//! A ZFP-like block-transform progressive codec.
//!
//! The paper's related work (§V-B) describes ZFP: block-wise decorrelating
//! transform + embedded per-bit-plane encoding, with progressive decoding
//! by stream truncation "not yet available". This module implements that
//! baseline in simplified form so the MGARD-style multilevel path can be
//! compared against a block-transform path under the same progressive
//! retrieval contract:
//!
//! * the field is partitioned into 4×4×4 **blocks** (edges padded by
//!   sample replication),
//! * each block runs a separable two-level Haar-style lifting
//!   **transform** per dimension (exactly invertible in `f64`),
//! * coefficients are globally **reordered by frequency group** so that
//!   same-magnitude coefficients cluster, then encoded with the same
//!   negabinary bit-plane machinery as the multilevel path
//!   ([`pmr_mgard::LevelEncoding`]) with a collected error row,
//! * **progressive retrieval** = keeping a prefix of the bit-planes.
//!
//! Not implemented from real ZFP (documented simplifications): per-block
//! exponents (one global scale is used), the exact ZFP lifting butterfly,
//! and group-tested embedded coding. None of these change the *shape* of
//! the bytes-vs-error trade-off this baseline exists to exhibit.
//!
//! The codec is in-memory only: it has no file format, and its one user
//! outside tests is the `baseline_block` bench.

// Panics, lossy casts, nondeterminism sources and discarded `Result`s,
// as scoped to this module (DESIGN.md §8); test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
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

pub mod block;
pub mod codec;
pub mod lifting;

pub use codec::{BlockCompressed, BlockConfig};
