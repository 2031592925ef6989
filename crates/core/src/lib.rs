//! The paper's contribution: DNN-based progressive retrieval.
//!
//! Two models replace parts of the MGARD error-control path (paper Fig. 4):
//!
//! * [`dmgard::DMgard`] — **D-MGARD**, a chained multi-output regression
//!   (CMOR) stack of per-level MLPs mapping
//!   `(data features, achieved max error, b_0..b_{l-1}) → b_l`. It bypasses
//!   the error estimator *and* the greedy retriever.
//! * [`emgard::EMgard`] — **E-MGARD**, per-level encoder networks that
//!   predict the mapping constants `C_l` of
//!   `err ≈ Σ_l C_l · Err[l][b_l]`, replacing the single pessimistic theory
//!   constant while keeping MGARD's greedy retriever.
//!
//! [`records`] harvests training data by running the theory-based retriever
//! over the paper's 81 relative error bounds; [`framework`] wraps all three
//! retrieval strategies behind one interface, and [`experiment`] orchestrates
//! the train-on-early / test-on-late evaluation protocol of §IV.

// Panics, lossy casts, nondeterminism sources and discarded `Result`s,
// as scoped to this crate (DESIGN.md §8); test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        unused_must_use,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
    )
)]
#![forbid(unsafe_code)]

pub mod api;
pub mod dmgard;
pub mod emgard;
pub mod experiment;
pub mod features;
pub mod framework;
pub mod records;
pub mod sweep;

pub use api::{
    retrieve, Backend, Dataset, RetrievalOutcome, RetrievalRequest, RetrievalTarget, Tolerance,
};
pub use dmgard::{DMgard, DMgardConfig};
pub use emgard::{build_samples_many, EMgard, EMgardConfig};
pub use framework::{Combined, RetrievalContext, Retriever, Theory};
pub use pmr_mgard::{ExecPolicy, PlaneKernel};
pub use records::{collect_records, collect_records_many, standard_rel_bounds, RetrievalRecord};
pub use sweep::{sweep, sweep_strategy, SweepPoint};
