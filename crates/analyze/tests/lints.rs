//! Fixture-driven lint tests: every lint must fire on its positive fixture
//! and stay quiet (or report the occurrence as *allowed*) on its negative.
//!
//! Fixtures live under `tests/fixtures/` and are fed to the analyzer under
//! synthetic workspace-relative paths so the path scoping in
//! `AnalyzeConfig::default()` applies exactly as it does in the real run.

use pmr_analyze::{analyze_sources, AnalyzeConfig, Report};

/// Lint one fixture as if it lived at `rel_path` in the workspace.
fn lint(rel_path: &str, src: &str, cfg: &AnalyzeConfig) -> Report {
    analyze_sources([(rel_path, src)], cfg)
}

fn count(report: &Report, lint: &str) -> usize {
    report.violations.iter().filter(|v| v.lint == lint).count()
}

fn count_allowed(report: &Report, lint: &str) -> usize {
    report.allowed.iter().filter(|a| a.violation.lint == lint).count()
}

// ---- unsafe_safety + send_sync_impl ----

#[test]
fn unsafe_without_safety_comment_fires() {
    let src = include_str!("fixtures/unsafe_safety_positive.rs");
    let r = lint("crates/nn/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "unsafe_safety"), 1, "{:#?}", r.violations);
    assert_eq!(count(&r, "send_sync_impl"), 1, "{:#?}", r.violations);
}

#[test]
fn documented_unsafe_is_clean() {
    let src = include_str!("fixtures/unsafe_safety_negative.rs");
    let r = lint("crates/nn/src/fixture.rs", src, &AnalyzeConfig::default());
    assert!(r.is_clean(), "{:#?}", r.violations);
}

#[test]
fn send_sync_impl_fires_and_cannot_be_waived() {
    let src = "// SAFETY: sole owner\n// lint:allow(send_sync_impl): trust me\nunsafe impl Send for H {}\npub struct H(*mut u8);\n";
    let r = lint("crates/nn/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "send_sync_impl"), 1, "the waiver must not apply");
    assert_eq!(count_allowed(&r, "send_sync_impl"), 0);
    assert_eq!(count(&r, "stale_suppression"), 1, "and, matching nothing, it is stale");
}

// ---- lossy_cast ----

#[test]
fn lossy_casts_fire_and_widening_does_not() {
    let src = include_str!("fixtures/lossy_cast_positive.rs");
    let r = lint("crates/codec/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "lossy_cast"), 2, "narrowing + float→int only: {:#?}", r.violations);
}

#[test]
fn waived_lossy_cast_is_reported_as_allowed() {
    let src = include_str!("fixtures/lossy_cast_negative.rs");
    let r = lint("crates/codec/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "lossy_cast"), 0, "{:#?}", r.violations);
    assert_eq!(count_allowed(&r, "lossy_cast"), 1);
}

#[test]
fn lossy_cast_is_scoped_to_codec_crates() {
    let src = include_str!("fixtures/lossy_cast_positive.rs");
    let r = lint("crates/core/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "lossy_cast"), 0, "core is not a cast-lint path");
}

// ---- nondeterminism ----

#[test]
fn nondeterminism_sources_fire() {
    let src = include_str!("fixtures/nondet_positive.rs");
    let r = lint("crates/mgard/src/fixture.rs", src, &AnalyzeConfig::default());
    // SystemTime::now plus the HashMap mentions (the import counts too —
    // the type's presence is what lets order leak into output).
    assert!(count(&r, "nondeterminism") >= 2, "{:#?}", r.violations);
}

#[test]
fn ordered_containers_are_clean() {
    let src = include_str!("fixtures/nondet_negative.rs");
    let r = lint("crates/mgard/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "nondeterminism"), 0, "{:#?}", r.violations);
}

// ---- panic_reach (interprocedural; `panic_path` folded in) ----

#[test]
fn panic_reach_fires_on_every_form_under_panic_paths() {
    // Fold equivalence: the three sites `panic_path` reported on this
    // fixture (unwrap, panic!, expect) are `panic_reach` findings now, next
    // to the reachable one.
    let src = include_str!("fixtures/panic_reach_positive.rs");
    let r = lint("crates/mgard/src/fixture.rs", src, &AnalyzeConfig::default());
    let lines: Vec<usize> =
        r.violations.iter().filter(|v| v.lint == "panic_reach").map(|v| v.line).collect();
    assert_eq!(lines, vec![8, 10, 12, 26], "{:#?}", r.violations);
    assert_eq!(r.violations.len(), 4, "nothing else fires: {:#?}", r.violations);
}

#[test]
fn panic_reach_fires_through_the_call_graph() {
    let src = include_str!("fixtures/panic_reach_positive.rs");
    // `crates/sim/src` is an entry tree but not a `panic_paths` tree, so
    // the finding below is attributable to reachability alone.
    let r = lint("crates/sim/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "panic_reach"), 1, "{:#?}", r.violations);
    let v = r.violations.iter().find(|v| v.lint == "panic_reach").expect("finding");
    assert!(v.message.contains("retrieve_snapshot"), "chain names the entry: {}", v.message);
    assert!(v.message.contains("decode_width"), "chain names the sink: {}", v.message);
}

#[test]
fn panic_reach_is_scoped_to_configured_paths() {
    let src = include_str!("fixtures/panic_reach_positive.rs");
    let r = lint("crates/nn/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "panic_reach"), 0, "nn is neither a panic path nor an entry tree");
}

#[test]
fn panic_reach_respects_tests_waivers_asserts_and_unreachable_panics() {
    let src = include_str!("fixtures/panic_reach_negative.rs");
    let r = lint("crates/sim/src/fixture.rs", src, &AnalyzeConfig::default());
    assert!(r.is_clean(), "spurious: {:#?}", r.violations);
    // The waived expect is audited, not silently dropped.
    assert_eq!(count_allowed(&r, "panic_reach"), 1);
    // On a `panic_paths` tree reachability is not required: the diagnostic
    // helper's panic is the one finding.
    let r = lint("crates/mgard/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "panic_reach"), 1, "{:#?}", r.violations);
    assert!(r.violations[0].snippet.contains("diagnostic overflow"), "{:#?}", r.violations);
    assert_eq!(count_allowed(&r, "panic_reach"), 1);
}

#[test]
fn panic_reach_waiver_at_the_panic_site_applies() {
    let src = "pub fn retrieve_x(k: usize) -> usize { decode(k) }\n\
               fn decode(k: usize) -> usize {\n\
               // lint:allow(panic_reach): bound checked by the header parser\n\
               if k > 64 { panic!(\"width\"); }\n\
               k }\n";
    let r = lint("crates/sim/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "panic_reach"), 0, "{:#?}", r.violations);
    assert_eq!(count_allowed(&r, "panic_reach"), 1);
    assert_eq!(count(&r, "stale_suppression"), 0, "waiver matched, not stale");
}

// ---- error_swallow (interprocedural) ----

#[test]
fn error_swallow_fires_on_all_three_forms() {
    let src = include_str!("fixtures/error_swallow_positive.rs");
    let r = lint("crates/codec/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "error_swallow"), 3, "let _ / bare / .ok(): {:#?}", r.violations);
}

#[test]
fn error_swallow_negative_is_clean_with_one_waived() {
    let src = include_str!("fixtures/error_swallow_negative.rs");
    let r = lint("crates/codec/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "error_swallow"), 0, "{:#?}", r.violations);
    assert_eq!(count_allowed(&r, "error_swallow"), 1, "the waived prefetch");
    assert_eq!(count(&r, "stale_suppression"), 0);
}

#[test]
fn error_swallow_is_scoped_to_data_path_crates() {
    let src = include_str!("fixtures/error_swallow_positive.rs");
    let r = lint("crates/nn/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "error_swallow"), 0, "nn is off the swallow scope");
}

// ---- lock_order (interprocedural) ----

#[test]
fn lock_order_fires_on_the_cycle_and_blocking_on_fetch_and_backoff() {
    let src = include_str!("fixtures/lock_order_positive.rs");
    let r = lint("crates/storage/src/fixture.rs", src, &AnalyzeConfig::default());
    // Both directions of the a/b cycle stay `lock_order`…
    assert_eq!(count(&r, "lock_order"), 2, "{:#?}", r.violations);
    // …and the guard held across the fetch and the one held across the
    // backoff loop, `lock_order` findings before the fold, are reported as
    // `blocking_under_lock` at the same sites.
    let blocking: Vec<&str> = r
        .violations
        .iter()
        .filter(|v| v.lint == "blocking_under_lock")
        .map(|v| v.snippet.as_str())
        .collect();
    assert_eq!(blocking, vec!["self.fetch_segment(*g)", "backoff_wait(attempt);"]);
    assert_eq!(r.violations.len(), 4, "{:#?}", r.violations);
}

#[test]
fn lock_order_negative_is_clean() {
    let src = include_str!("fixtures/lock_order_negative.rs");
    let r = lint("crates/storage/src/fixture.rs", src, &AnalyzeConfig::default());
    assert!(r.is_clean(), "{:#?}", r.violations);
}

// ---- taint_alloc / taint_index ----

#[test]
fn taint_lints_fire_on_unbounded_wire_lengths() {
    let src = include_str!("fixtures/taint_positive.rs");
    let r = lint("crates/pmrd/src/fixture.rs", src, &AnalyzeConfig::default());
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
    let r = lint("crates/pmrd/src/fixture.rs", src, &AnalyzeConfig::default());
    assert!(r.is_clean(), "{:#?}", r.violations);
}

#[test]
fn taint_lints_are_scoped_to_ingest_crates() {
    let src = include_str!("fixtures/taint_positive.rs");
    let r = lint("crates/analysis/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "taint_alloc"), 0, "analysis does not ingest untrusted bytes");
    assert_eq!(count(&r, "taint_index"), 0);
}

#[test]
fn taint_findings_accept_inline_waivers() {
    let src = "// lint:allow(taint_alloc): size is validated by the caller's quota check\n\
               pub fn alloc_from_wire(r: &mut Reader) -> usize {\n\
               let n = r.u32() as usize;\n\
               let v: Vec<u8> = Vec::with_capacity(n);\n\
               v.len()\n\
               }\n";
    let r = lint("crates/pmrd/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "taint_alloc"), 1, "waiver is two lines above the sink: stays live");

    let src_adjacent = "pub fn alloc_from_wire(r: &mut Reader) -> usize {\n\
               let n = r.u32() as usize;\n\
               // lint:allow(taint_alloc): size is validated by the caller's quota check\n\
               let v: Vec<u8> = Vec::with_capacity(n);\n\
               v.len()\n\
               }\n";
    let r = lint("crates/pmrd/src/fixture.rs", src_adjacent, &AnalyzeConfig::default());
    assert_eq!(count(&r, "taint_alloc"), 0, "{:#?}", r.violations);
    assert_eq!(count_allowed(&r, "taint_alloc"), 1);
    assert_eq!(count(&r, "stale_suppression"), 0);
}

// ---- checksum_gate ----

#[test]
fn checksum_gate_fires_on_decode_before_verify() {
    let src = include_str!("fixtures/checksum_gate_positive.rs");
    let r = lint("crates/mgard/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "checksum_gate"), 1, "{:#?}", r.violations);
}

#[test]
fn checksum_gate_is_quiet_when_verify_precedes_decode() {
    let src = include_str!("fixtures/checksum_gate_negative.rs");
    let r = lint("crates/mgard/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "checksum_gate"), 0, "{:#?}", r.violations);
}

#[test]
fn checksum_gate_is_scoped_to_persisted_format_crates() {
    let src = include_str!("fixtures/checksum_gate_positive.rs");
    let r = lint("crates/pmrd/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "checksum_gate"), 0, "pmrd is not a persisted-format crate");
}

// ---- blocking_under_lock (interprocedural) ----

#[test]
fn blocking_under_lock_fires_direct_and_transitive() {
    let src = include_str!("fixtures/blocking_under_lock_positive.rs");
    let r = lint("crates/pmrd/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "blocking_under_lock"), 2, "{:#?}", r.violations);
    let t =
        r.violations.iter().find(|v| v.message.contains("sync_all")).expect("transitive finding");
    assert!(t.message.contains("flush_disk"), "names the callee: {}", t.message);
}

#[test]
fn blocking_under_lock_negative_is_clean_with_one_waived() {
    let src = include_str!("fixtures/blocking_under_lock_negative.rs");
    let r = lint("crates/pmrd/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "blocking_under_lock"), 0, "{:#?}", r.violations);
    assert_eq!(count_allowed(&r, "blocking_under_lock"), 1, "the waived handoff recv");
    assert_eq!(count(&r, "stale_suppression"), 0);
}

// ---- stale suppressions ----

#[test]
fn unmatched_waiver_is_a_stale_suppression_finding() {
    let src = "// lint:allow(panic_reach): nothing panics here anymore\npub fn calm() {}\n";
    let r = lint("crates/mgard/src/fixture.rs", src, &AnalyzeConfig::default());
    assert_eq!(count(&r, "stale_suppression"), 1, "{:#?}", r.violations);
}

// ---- scope table ----

#[test]
fn default_scope_paths_exist() {
    // A renamed crate must not silently un-gate a lint: every path prefix in
    // the scope table names a directory of this workspace.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = AnalyzeConfig::default();
    let tables = [
        ("panic_paths", cfg.panic_paths),
        ("cast_paths", cfg.cast_paths),
        ("nondet_paths", cfg.nondet_paths),
        ("ENTRY_PATHS", pmr_analyze::callgraph::ENTRY_PATHS),
        ("SWALLOW_PATHS", pmr_analyze::dataflow::SWALLOW_PATHS),
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
    let src = include_str!("fixtures/panic_reach_positive.rs");
    let r = lint("crates/mgard/src/fixture.rs", src, &AnalyzeConfig::default());
    assert!(!r.is_clean());
    let json = r.to_json();
    let summary = json.get("summary").expect("summary");
    assert_eq!(summary.get("panic_reach").and_then(pmr_json::Json::as_usize), Some(4), "{json:?}");
    // Serialization is deterministic.
    assert_eq!(json, r.to_json());
}
