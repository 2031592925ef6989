//! Error-bound conformance and differential testing for the progressive
//! retrieval pipeline.
//!
//! The paper's entire value proposition is an error contract: a retrieval
//! planned for bound `e` must reconstruct the field to within `e` (Theory,
//! provably) or close to it at a much smaller retrieval size (the learned
//! strategies, statistically). This crate audits that contract end to end:
//!
//! * [`fields`] — a seeded corpus of synthetic fields (smooth, turbulent,
//!   discontinuous, constant, NaN/inf-laced) in 1-D/2-D/3-D plus short
//!   Gray–Scott and WarpX runs from `pmr-sim`.
//! * [`sweep`] — every retrieval strategy × a tolerance grid over that
//!   corpus, asserting Theory's soundness on claimed points (hard failure)
//!   and auditing the learned strategies' violation rates and overshoot
//!   histograms against a configurable [`sweep::ViolationBudget`].
//! * [`differential`] — serial-vs-parallel bit-identity, batch-vs-per-item
//!   equivalence, and monotonicity invariants (tighter bound ⇒ no fewer
//!   bytes; more planes ⇒ no more error in stride aggregate).
//! * [`faults`] — one seeded fault grid over a flat store and a sharded
//!   N × R one (per-read schedules, dead and flapping shards, replica bit
//!   rot × seeds × tolerances over the corpus), every cell judged by one
//!   oracle, [`check_outcome`]: the reported bound holds, an undegraded
//!   cell is bit-identical to a healthy decode, and a degraded one is
//!   reproduced by its achieved planes decoded from healthy payloads.
//! * [`golden`] — small checked-in compressed blobs whose bytes, plans,
//!   fetch sizes and achieved-error *bits* must stay identical until the
//!   format intentionally changes.
//! * [`hostile`] — one hostile-input oracle for every parser of untrusted
//!   bytes (prefixes, a trailing byte, extreme counts under an allocation
//!   cap, every single-bit flip), with [`heap`]'s test allocator.
//!
//! `pmrtool conformance` drives all of it from the command line; the CI
//! workflow runs the quick grid per PR and the full 81-bound grid on a
//! schedule.

// Lossy casts, nondeterminism sources and discarded `Result`s, as
// scoped to this crate (DESIGN.md §8); test code is exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types,))]
#![deny(unsafe_code)]

pub mod differential;
pub mod faults;
pub mod fields;
pub mod golden;
#[expect(unsafe_code, reason = "a global allocator is an `unsafe impl GlobalAlloc`")]
pub mod heap;
pub mod hostile;
pub mod sweep;

pub use faults::{
    check_outcome, fault_report_json, run_fault_grid, within_reported_bound, FaultGridConfig,
    FaultReport, FaultSchedule, Verdict,
};
pub use fields::{catalogue, sim_slices, synthetic, FieldClass};
pub use golden::{regenerate as regenerate_golden, verify as verify_golden};
pub use sweep::{
    run_sweep, ConformanceReport, StrategyReport, SweepConfig, ToleranceGrid, ViolationBudget,
};

use pmr_json::Json;

/// Run the conformance sweep *and* the differential checks, folding the
/// differential failures into the sweep report. This is what the CLI and
/// the CI job execute.
pub fn run_all(cfg: &SweepConfig) -> ConformanceReport {
    let mut report = run_sweep(cfg);
    report.failures.extend(differential::run_differential(cfg.seed));
    report
}

/// The machine-readable report the scheduled CI job uploads.
pub fn report_json(report: &ConformanceReport, grid_name: &str) -> String {
    Json::obj(vec![("grid", Json::str(grid_name)), ("report", report.to_json())]).to_pretty()
}
