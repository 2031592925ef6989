//! Fixture-driven lint tests: every lint must fire on its positive fixture
//! and stay quiet on its negative.
//!
//! Fixtures live under `tests/fixtures/` and are fed to the analyzer under
//! synthetic workspace-relative paths, in and out of each lint's scope, so
//! the compiled-in scope table applies exactly as it does in the real run.

use pmr_analyze::{analyze_sources, Report};

/// Lint one fixture as if it lived at `rel_path` in the workspace.
fn lint(rel_path: &str, src: &str) -> Report {
    analyze_sources([(rel_path, src)])
}

fn count(report: &Report, lint: &str) -> usize {
    report.violations.iter().filter(|v| v.lint == lint).count()
}

// ---- taint_alloc / taint_index ----

#[test]
fn taint_lints_fire_on_unbounded_wire_lengths() {
    let src = include_str!("fixtures/taint_positive.rs");
    let r = lint("crates/pmrd/src/fixture.rs", src);
    assert_eq!(count(&r, "taint_alloc"), 2, "{:#?}", r.violations);
    assert_eq!(count(&r, "taint_index"), 1, "{:#?}", r.violations);
    // Unchecked arithmetic on the length is reported at the sink it feeds.
    let via_arith = r
        .violations
        .iter()
        .find(|v| v.snippet.contains("Vec::with_capacity(total)"))
        .expect("the arithmetic-fed allocation");
    assert_eq!(via_arith.lint, "taint_alloc", "{via_arith:?}");
}

#[test]
fn sanitized_taint_shapes_are_clean() {
    let src = include_str!("fixtures/taint_negative.rs");
    let r = lint("crates/pmrd/src/fixture.rs", src);
    assert!(r.is_clean(), "{:#?}", r.violations);
}

#[test]
fn taint_lints_are_scoped_to_ingest_crates() {
    let src = include_str!("fixtures/taint_positive.rs");
    let r = lint("crates/analysis/src/fixture.rs", src);
    assert_eq!(count(&r, "taint_alloc"), 0, "analysis does not ingest untrusted bytes");
    assert_eq!(count(&r, "taint_index"), 0);
}

// ---- checksum_gate ----

#[test]
fn checksum_gate_fires_on_decode_before_verify() {
    let src = include_str!("fixtures/checksum_gate_positive.rs");
    let r = lint("crates/mgard/src/fixture.rs", src);
    assert_eq!(count(&r, "checksum_gate"), 1, "{:#?}", r.violations);
}

#[test]
fn checksum_gate_is_quiet_when_verify_precedes_decode() {
    let src = include_str!("fixtures/checksum_gate_negative.rs");
    let r = lint("crates/mgard/src/fixture.rs", src);
    assert_eq!(count(&r, "checksum_gate"), 0, "{:#?}", r.violations);
}

#[test]
fn checksum_gate_is_scoped_to_persisted_format_crates() {
    let src = include_str!("fixtures/checksum_gate_positive.rs");
    let r = lint("crates/pmrd/src/fixture.rs", src);
    assert_eq!(count(&r, "checksum_gate"), 0, "pmrd is not a persisted-format crate");
}

// ---- scope table ----

#[test]
fn default_scope_paths_exist() {
    // A renamed crate must not silently un-gate a lint: every path prefix in
    // the scope table names a directory of this workspace.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let tables = [
        ("TAINT_PATHS", pmr_analyze::taint::TAINT_PATHS),
        ("CHECKSUM_PATHS", pmr_analyze::taint::CHECKSUM_PATHS),
    ];
    for (field, paths) in tables {
        assert!(!paths.is_empty(), "{field} is empty: the lint is off");
        for p in paths {
            assert!(root.join(p).is_dir(), "{field}: `{p}` is not a directory of the workspace");
        }
    }
}

// ---- report plumbing ----

#[test]
fn summary_and_json_agree_with_violations() {
    let src = include_str!("fixtures/taint_positive.rs");
    let r = lint("crates/pmrd/src/fixture.rs", src);
    assert!(!r.is_clean());
    let json = r.to_json();
    let summary = json.get("summary").expect("summary");
    assert_eq!(summary.get("taint_alloc").and_then(pmr_json::Json::as_usize), Some(2), "{json:?}");
    // Serialization is deterministic.
    assert_eq!(json, r.to_json());
}
