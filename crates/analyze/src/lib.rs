//! `pmr-analyze` — workspace-wide static analysis for the error contract.
//!
//! The paper's value proposition is a *guarantee*: retrieval promises the
//! reconstruction error stays under the user's bound. `pmr-conformance`
//! checks that guarantee dynamically and `pmr-storage`'s fault machinery
//! keeps it honest under I/O failure; this crate is the static layer that
//! keeps whole classes of contract-breaking bugs from landing at all.
//!
//! The analysis runs in three phases:
//!
//! 1. **Per-file**: lex, parse the item tree ([`parse`]), run the lexical
//!    lints ([`lints`]), collect waivers.
//! 2. **Interprocedural** (whole workspace): build the module-aware call
//!    graph ([`callgraph`]), run `panic_reach`, `error_swallow`, and
//!    `lock_order` ([`dataflow`]) over it, the taint lints ([`taint`])
//!    over per-function summaries computed to fixpoint, and
//!    `blocking_under_lock` ([`concurrency`]) over `lock_order`'s guard
//!    model.
//! 3. **Waivers & staleness**: apply the inline `// lint:allow(id): reason`
//!    waivers, then flag every waiver that matched nothing as a
//!    `stale_suppression` hard error.
//!
//! Run it as `pmrtool analyze [--root <dir>] [--report out.json]`; it exits
//! nonzero when any unwaived violation exists. The scope table is compiled
//! in: [`config::AnalyzeConfig::default`] for the lexical lints, a `const`
//! beside every other lint; `pmrtool analyze --explain <id>`
//! documents each lint ([`lints::EXPLAIN`]).

pub mod callgraph;
pub mod concurrency;
pub mod config;
pub mod dataflow;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod report;
pub mod taint;

pub use config::AnalyzeConfig;
pub use report::{Allowed, Report, Violation};

use parse::ParsedFile;
use pmr_error::PmrError;
use std::path::{Path, PathBuf};

/// Lint every Rust source of the workspace at `root`: `src/` and each
/// `crates/*/src/` tree, read beside each crate's `Cargo.toml`. Test,
/// bench, and example trees are out of scope by construction — the lints
/// guard *library* code on the data path.
pub fn analyze_workspace(root: &Path, cfg: &AnalyzeConfig) -> Result<Report, PmrError> {
    let started = std::time::Instant::now();
    let mut files = Vec::new();
    let mut members = vec![root.to_path_buf()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        members.extend(sorted_dir(&crates_dir)?);
    }
    for member in members {
        let manifest = member.join("Cargo.toml");
        if manifest.is_file() {
            files.push(manifest);
        }
        collect_rs(&member.join("src"), &mut files)?;
    }

    let mut inputs = Vec::with_capacity(files.len());
    for path in files {
        let src = std::fs::read_to_string(&path).map_err(|e| PmrError::io_at(&path, e))?;
        inputs.push((rel_slash(root, &path), src));
    }
    let mut report = analyze_sources(inputs.iter().map(|(p, s)| (p.as_str(), s.as_str())), cfg);
    report.wall_ms = Some(u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX));
    Ok(report)
}

/// The full three-phase pipeline over in-memory `(rel_path, source)`
/// pairs — what [`analyze_workspace`] runs and the fixture tests drive. A
/// pair whose path ends in `Cargo.toml` is a crate manifest, read only for
/// its dependencies.
pub fn analyze_sources<'a>(
    sources: impl IntoIterator<Item = (&'a str, &'a str)>,
    cfg: &AnalyzeConfig,
) -> Report {
    let (manifests, mut inputs): (Vec<_>, Vec<_>) =
        sources.into_iter().partition(|(path, _)| path.ends_with("Cargo.toml"));
    inputs.sort_by_key(|(path, _)| *path);

    // Phase 1 — per-file work, in path order.
    let files: Vec<ParsedFile> =
        inputs.iter().map(|(path, src)| parse::parse_file(path, src)).collect();
    let mut raw: Vec<Violation> = files.iter().flat_map(|p| lints::lexical_raw(p, cfg)).collect();

    // Phase 2 — interprocedural lints over the whole file set.
    let deps = callgraph::CrateDeps::from_manifests(&manifests);
    let graph = callgraph::CallGraph::build(&files, &deps);
    raw.extend(callgraph::panic_reach(&files, &graph, cfg));
    raw.extend(dataflow::error_swallow(&files, &graph));
    raw.extend(taint::taint_lints(&files, &graph));
    let acqs = dataflow::acquisitions(&files, &graph);
    raw.extend(dataflow::lock_order(&files, &graph, &acqs));
    raw.extend(concurrency::blocking_under_lock(&files, &graph, &acqs));

    // Phase 3 — each file's findings meet its waivers, whichever lint
    // raised them; then staleness.
    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    for parsed in &files {
        let (mine, rest) = raw.into_iter().partition(|v| v.file == parsed.rel_path);
        raw = rest;
        lints::apply_waivers(parsed, mine, &mut report);
    }
    report.finalize();
    report
}

/// Recursively collect `.rs` files under `dir` (missing dirs are fine).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), PmrError> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in sorted_dir(dir)? {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Directory entries in deterministic (sorted) order.
fn sorted_dir(dir: &Path) -> Result<Vec<PathBuf>, PmrError> {
    let rd = std::fs::read_dir(dir).map_err(|e| PmrError::io_at(dir, e))?;
    let mut entries = Vec::new();
    for entry in rd {
        entries.push(entry.map_err(|e| PmrError::io_at(dir, e))?.path());
    }
    entries.sort();
    Ok(entries)
}

/// Workspace-relative path with forward slashes (report paths must not
/// depend on the host OS).
fn rel_slash(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_sources_aggregates_and_sorts() {
        let report = analyze_sources(
            [
                ("crates/mgard/src/lib.rs", "fn f(x: Option<u8>) { x.unwrap(); }"),
                ("crates/codec/src/lib.rs", "fn g() { panic!(\"boom\"); }"),
            ],
            &AnalyzeConfig::default(),
        );
        assert_eq!(report.files_scanned, 2);
        assert_eq!(report.violations.len(), 2);
        assert_eq!(report.violations[0].file, "crates/codec/src/lib.rs");
        assert!(!report.is_clean());
    }

    #[test]
    fn pipeline_is_deterministic_across_runs() {
        let cfg = AnalyzeConfig::default();
        let sources = [
            (
                "crates/sim/src/lib.rs",
                "pub fn retrieve() { helper(); }\nfn helper(x: Option<u8>) { x.unwrap(); }",
            ),
            (
                "crates/mgard/src/lib.rs",
                "fn save() -> Result<(), E> { Ok(()) }\npub fn compress() { let _ = save(); }",
            ),
        ];
        let r1 = analyze_sources(sources, &cfg);
        let r2 = analyze_sources(sources, &cfg);
        assert_eq!(r1.to_json(), r2.to_json());
        assert_eq!(r1.count("panic_reach"), 1);
        assert_eq!(r1.count("error_swallow"), 1);
    }

    #[test]
    fn stale_inline_waiver_is_a_hard_error() {
        let cfg = AnalyzeConfig::default();
        let src = "// lint:allow(lossy_cast): no cast here anymore\nfn ok() {}";
        let report = analyze_sources([("crates/mgard/src/lib.rs", src)], &cfg);
        assert_eq!(report.count("stale_suppression"), 1);
        assert_eq!(report.violations[0].line, 1);
    }

    #[test]
    fn live_waivers_are_not_stale() {
        let src = "// lint:allow(panic_reach): x is Some by construction\n\
                   fn f(x: Option<u8>) { x.unwrap(); }\n\
                   // lint:allow(lossy_cast): bounded\n\
                   fn g(k: usize) -> u32 { k as u32 }";
        let report = analyze_sources([("crates/mgard/src/lib.rs", src)], &AnalyzeConfig::default());
        assert_eq!(report.allowed.len(), 2);
        assert!(report.is_clean(), "{}", report.summary());
    }
}
