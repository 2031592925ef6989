//! Fault-tolerant segment I/O for progressive retrieval.
//!
//! The paper's I/O cost is the bytes of the bit-planes a retrieval reads,
//! which [`FetchStats::bytes`] reports. The crate holds the stores those
//! planes live in and the reader that fetches them: [`segment`] (the
//! `(level, plane)`-keyed [`SegmentStore`] trait with in-memory and
//! file-backed backends), [`fault`] (a deterministic seed-driven
//! [`FaultInjector`]), [`fetch`] (retries with checksum verification),
//! [`tolerant`] (graceful degradation with honest re-estimated bounds),
//! [`shard`] (consistent-hash sharding with replication and the hot tier,
//! the one notion of storage tier here), and [`scrub`](mod@scrub) (manifest-driven
//! verification and repair).

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
#![forbid(unsafe_code)]

pub mod fault;
pub mod fetch;
pub mod scrub;
pub mod segment;
pub mod shard;
pub mod tolerant;

pub use fault::{FaultConfig, FaultEvent, FaultInjector, FaultKind};
pub use fetch::{ExpectedSegment, FetchExecutor, FetchStats, RetryPolicy};
pub use scrub::{repair, scrub, RepairReport, ScrubReport};
pub use segment::{
    FetchError, FileStore, MemStore, MutableSegmentStore, SegmentKey, SegmentRead, SegmentStore,
    QUARANTINE_SUFFIX,
};
pub use shard::{ShardConfig, ShardState, ShardStatus, ShardedStore, SHARD_DEAD_AFTER};
pub use tolerant::{
    fetch_plan_tolerant, fetch_planes_tolerant, DegradedRetrieval, FetchedPlanes, Stopped,
    TolerantConfig, TolerantRetrieval,
};
