//! The lint registry and the one description of each lint.
//!
//! Every lint protects the same thing: the retriever's *error-bound
//! contract*. An allocation sized by an unchecked wire length, a slice
//! indexed by one, or a plane decoded before its checksum is compared are
//! not style problems — each one lets hostile bytes crash the reader or
//! hand back data whose claimed bound is silently wrong. [`EXPLAIN`] is the
//! one description of each lint; `pmrtool analyze --explain <id>` prints
//! it. A finding has no waiver: it is fixed, or the helper that makes the
//! code safe is taught to the engine.

/// Lint identifiers, in report order.
pub const LINT_IDS: [&str; 3] = ["taint_alloc", "taint_index", "checksum_gate"];

/// One `--explain` entry per lint, in [`LINT_IDS`] order:
/// `(id, semantics, known false-positive patterns, how to resolve a finding)`.
/// This is the single source the CLI renders; `explain_table_is_exhaustive`
/// keeps it in lockstep with the registry.
pub const EXPLAIN: [(&str, &str, &str, &str); 3] = [
    (
        "taint_alloc",
        "No untrusted size (wire length, disk header field) may reach `with_capacity`, \
         `reserve`, or `vec![…; n]` without passing a cap or checked sanitizer first. \
         Unchecked `+`/`*`/`<<` on the size does not launder it: the finding is reported \
         at the sink.",
        "Sizes produced by arithmetic the engine cannot see through may stay tainted after a \
         manual bound check it does not recognize.",
        "Compare the size against its cap before the sink, or read it through a checked \
         helper listed in `TAINT_SANITIZERS` (`analyze::taint`).",
    ),
    (
        "taint_index",
        "No untrusted offset/length may reach slice indexing, `split_at`, or \
         `copy_from_slice` without a bound check.",
        "Indices validated through a helper not listed in `TAINT_SANITIZERS`.",
        "Check the index against the buffer first, or read through `pmr_error::ByteReader`; \
         a bounds-checking helper the engine does not know goes into `TAINT_SANITIZERS` \
         (`analyze::taint`).",
    ),
    (
        "checksum_gate",
        "Segment/artifact payloads must be checksum-verified before any decode entry point \
         sees their bytes, directly or transitively.",
        "Decode paths verified by a function not listed in `VERIFY_FNS`.",
        "Verify before decoding; a new verifier goes into `VERIFY_FNS` (`analyze::taint`).",
    ),
];

/// Render the `--explain` text for one lint id, or `None` if unknown.
pub fn explain(id: &str) -> Option<String> {
    EXPLAIN.iter().find(|(eid, ..)| *eid == id).map(|(eid, semantics, fps, fix)| {
        format!(
            "{eid}\n\nWhat it checks:\n  {semantics}\n\nKnown false-positive patterns:\n  \
             {fps}\n\nHow to resolve a finding:\n  {fix}\n"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_table_is_exhaustive() {
        // One entry per registered lint, same order — `--explain` must never
        // lag the registry.
        let explained: Vec<&str> = EXPLAIN.iter().map(|(id, ..)| *id).collect();
        assert_eq!(explained, LINT_IDS.to_vec());
        for id in LINT_IDS {
            let text = explain(id).unwrap();
            assert!(text.contains("What it checks"), "{id}");
            assert!(text.contains("How to resolve a finding"), "{id}");
        }
        assert!(explain("bogus").is_none());
    }
}
