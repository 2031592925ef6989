//! The path scopes of the three lexical lints — the part of the scope table
//! a fixture test narrows. Every other scope and name list is a `const`
//! beside the lint that reads it: [`crate::callgraph::ENTRY_PATHS`] and
//! [`crate::callgraph::ENTRY_PREFIXES`], [`crate::dataflow::SWALLOW_PATHS`],
//! the taint lists in [`crate::taint`], and the blocking-call taxonomy in
//! [`crate::concurrency`]. (`unsafe_safety`, `send_sync_impl` and the two
//! lock lints judge every file they are given.)
//!
//! [`AnalyzeConfig::default`] is compiled in, so `pmrtool analyze` answers
//! the same from any working directory and on any copy of the sources.

/// Scoping for one analysis run.
///
/// Path fields are workspace-relative prefixes; a file is in scope for a
/// lint when its path starts with any of the lint's prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeConfig {
    /// `panic_reach`: library code that must route failures through
    /// `PmrError` instead of panicking — every panic site in a non-test fn
    /// here is a finding, reached or not. `crates/rng/src` is listed
    /// (here, in `cast_paths` and in `nondet_paths`) because it is the one
    /// random stream, and through pmr-sim and the trained models it feeds
    /// persisted artifacts.
    pub panic_paths: &'static [&'static str],
    /// `lossy_cast`: crates whose integer arithmetic feeds persisted
    /// artifacts and must use checked conversions.
    pub cast_paths: &'static [&'static str],
    /// `nondeterminism`: code that produces artifacts, plans, or fault
    /// schedules and must be bit-reproducible. `crates/sim/src` is listed
    /// because it generates every seeded input field on worker threads,
    /// `crates/json/src` because it writes the golden index.
    pub nondet_paths: &'static [&'static str],
}

/// Whether `rel_path` lies under any prefix of the scope list `paths`.
pub(crate) fn in_scope(paths: &[&str], rel_path: &str) -> bool {
    paths.iter().any(|p| rel_path.starts_with(p))
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            panic_paths: &[
                "crates/error/src",
                "crates/codec/src",
                "crates/mgard/src",
                "crates/storage/src",
                "crates/blockcodec/src",
                "crates/core/src",
                "crates/rng/src",
            ],
            cast_paths: &[
                "crates/error/src",
                "crates/codec/src",
                "crates/mgard/src",
                "crates/storage/src",
                "crates/blockcodec/src",
                "crates/rng/src",
            ],
            nondet_paths: &[
                "crates/codec/src",
                "crates/mgard/src",
                "crates/storage/src",
                "crates/blockcodec/src",
                "crates/core/src",
                "crates/conformance/src",
                "crates/json/src",
                "crates/rng/src",
                "crates/sim/src",
            ],
        }
    }
}
