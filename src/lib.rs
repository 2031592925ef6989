//! # pmr — Progressive MGARD Retrieval with DNN error control
//!
//! Umbrella crate for the workspace reproducing *"Improving Progressive
//! Retrieval for HPC Scientific Data using Deep Neural Network"* (ICDE 2023).
//!
//! It re-exports the public API of every library crate the product runs
//! (`pmrtool`, retrieval, the storage and conformance paths) so that
//! downstream users, and the examples and integration tests in this
//! repository, can depend on a single crate:
//!
//! * [`field`] — field containers, statistics, error metrics
//! * [`json`] — the JSON value, writer and strict parser every report,
//!   golden index and benchmark document goes through
//! * [`sim`] — Gray-Scott and synthetic WarpX data generators
//! * [`codec`] — bitstreams, negabinary mapping, lossless RLE
//! * [`mgard`] — multilevel decomposition + bit-plane progressive compressor
//! * [`storage`] — fault-tolerant segment I/O (sharded stores with a hot
//!   tier, retries, checksums, degraded retrieval)
//! * [`nn`] — from-scratch MLP library (Huber loss, Adam, …)
//! * [`core`] — D-MGARD and E-MGARD retrievers and the experiment runner
//! * [`conformance`] — error-bound conformance sweeps, differential checks,
//!   golden-artifact verification (`pmrtool conformance`), and the
//!   hostile-input oracle every parser of untrusted bytes is held to
//!
//! The experiment apparatus no product path runs (the ZFP-like block-codec
//! baseline, the post-hoc analysis kernels, the dataset cache) lives in
//! `pmr-bench`, beside the benches that use it. See the repository
//! `README.md` for a quickstart and `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]

pub use pmr_codec as codec;
pub use pmr_conformance as conformance;
pub use pmr_core as core;
pub use pmr_error::{PmrError, Result as PmrResult};
pub use pmr_field as field;
pub use pmr_json as json;
pub use pmr_mgard as mgard;
pub use pmr_nn as nn;
pub use pmr_sim as sim;
pub use pmr_storage as storage;
