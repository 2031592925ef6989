//! Scientific field containers and metrics for progressive data retrieval.
//!
//! This crate provides the shared data model used by the rest of the
//! workspace:
//!
//! * [`Shape`] — an up-to-3-dimensional grid shape with strided indexing,
//! * [`Field`] — an owned `f64` scalar field tagged with a name and timestep,
//! * [`stats::FieldStats`] — the statistical summary used as DNN features,
//! * [`error`] — reconstruction error metrics (max error, RMSE, PSNR),
//! * [`io`] — a compact binary on-disk format for generated datasets.
//!
//! Everything here is deliberately simple and allocation-conscious: fields
//! are dense `Vec<f64>` buffers in row-major (x fastest) order, and all the
//! metric routines are single-pass where possible.

// Panics, as scoped to this crate (DESIGN.md §8); test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
    )
)]
#![forbid(unsafe_code)]

pub mod error;
pub mod field;
pub mod io;
pub mod shape;
pub mod stats;

pub use error::{max_abs_error, mse, psnr, rmse, ErrorReport};
pub use field::Field;
pub use shape::Shape;
pub use stats::FieldStats;
