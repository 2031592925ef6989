//! `pmrd` — a multi-tenant progressive-retrieval daemon.
//!
//! The library crates answer "how do I retrieve this artifact well";
//! `pmrd` answers "how do I *serve* that to many concurrent consumers".
//! A long-running daemon owns a corpus of compressed artifacts and their
//! segment stores, and serves retrieval requests over a length-prefixed
//! binary protocol (TCP or unix socket): request in, streamed bit-plane
//! payloads plus an achieved-bound report out.
//!
//! The daemon-level mechanics on top of the library's tolerant fetch
//! path:
//!
//! * [`cache::PlaneCache`] — a shared plane-level LRU keyed
//!   `(dataset, level, plane)` with **single-flight coalescing**:
//!   concurrent requests for the same plane trigger exactly one backing
//!   fetch, everyone else parks and shares the result.
//! * [`admission::Admission`] — global and per-tenant in-flight caps,
//!   rejecting with a graceful `Busy` report instead of queueing.
//! * [`server::Daemon`] — a small thread-pool reactor (one acceptor,
//!   N connection workers) over `std::net`; no async runtime.
//! * [`client::Client`] / [`load`] — a blocking client whose
//!   reconstructions are bit-identical to direct library retrievals, and
//!   an open-loop load generator reporting latency percentiles.
//!
//! Wire protocol details live in [`protocol`].

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
        unused_must_use,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
    )
)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod client;
pub mod corpus;
pub mod load;
pub mod protocol;
pub mod server;

pub use admission::{Admission, AdmissionConfig};
pub use cache::{CacheStats, Origin, PlaneCache};
pub use client::{Client, ConnectAddr, ServedRetrieval};
pub use corpus::{Corpus, CorpusEntry};
pub use load::{run_load, LoadReport, LoadSpec};
pub use protocol::{
    DatasetHealth, Health, Report, Request, ShardHealth, Status, Target, FLAG_NO_PLANES,
};
pub use server::{Daemon, DaemonConfig, DaemonHandle, Endpoint};
