//! Bit-level encoding primitives for progressive bit-plane retrieval.
//!
//! This crate hosts the three encoding layers the MGARD-style pipeline
//! needs, kept free of any knowledge about grids or levels:
//!
//! * [`bitstream`] — MSB-first bit writer/reader used to pack one bit per
//!   coefficient into a bit-plane byte stream,
//! * [`negabinary`] — sign-free base(-2) integer representation; truncating
//!   low digits yields the progressively refinable quantization MGARD uses,
//! * [`rle`] / [`lossless`] — the lossless stage. The paper compresses
//!   bit-planes with ZSTD; ZSTD is outside our allowed dependency set, so we
//!   substitute an escape-coded run-length codec which captures the same
//!   sparsity profile (high planes of negabinary streams are almost all
//!   zero bytes). See DESIGN.md §2,
//! * [`transpose`] — cache-blocked 64×64 bit-matrix transpose kernels
//!   (SWAR + runtime-detected AVX2/NEON) that turn per-bit plane slicing
//!   into whole-word copies. See DESIGN.md §10.

// Lossy casts, nondeterminism sources and discarded `Result`s, as
// scoped to this crate (DESIGN.md §8); test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        unused_must_use,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
    )
)]

pub mod bitstream;
pub mod lossless;
pub mod negabinary;
pub mod rle;
pub mod transpose;

pub use bitstream::{BitReader, BitWriter};
pub use lossless::Lossless;
pub use negabinary::{from_negabinary, to_negabinary, truncate_low_digits, NEGABINARY_MASK};
pub use transpose::{PlaneKernel, TileImpl};
