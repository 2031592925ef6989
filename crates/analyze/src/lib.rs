//! `pmr-analyze` — workspace-wide static analysis for the error contract.
//!
//! The paper's value proposition is a *guarantee*: retrieval promises the
//! reconstruction error stays under the user's bound. `pmr-conformance`
//! checks that guarantee dynamically and `pmr-storage`'s fault machinery
//! keeps it honest under I/O failure; this crate is the static layer that
//! keeps hostile bytes from reaching an allocation, an index or a decoder
//! unchecked.
//!
//! The analysis runs in two phases:
//!
//! 1. **Per-file**: lex and parse the item tree ([`parse`]).
//! 2. **Interprocedural** (whole workspace): build the module-aware call
//!    graph ([`callgraph`]) and run the three taint lints ([`taint`]) over
//!    per-function summaries computed to fixpoint.
//!
//! Run it as `pmrtool analyze [--root <dir>] [--report out.json]`; it exits
//! nonzero when any violation exists. The scope table is compiled in, a
//! `const` beside each lint; `pmrtool analyze --explain <id>` documents
//! each lint ([`lints::EXPLAIN`]). Panics, undocumented `unsafe`, lossy
//! casts, nondeterminism sources and discarded `Result`s are clippy's and
//! rustc's, denied at the crate roots; lock order is the ranked locks' of
//! `pmr_error::sync` (DESIGN.md §8).

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod parse;
pub mod report;
pub mod taint;

pub use report::{Report, Violation};

use parse::ParsedFile;
use pmr_error::PmrError;
use std::path::{Path, PathBuf};

/// Lint every Rust source of the workspace at `root`: `src/` and each
/// `crates/*/src/` tree, read beside each crate's `Cargo.toml`. Test,
/// bench, and example trees are out of scope by construction — the lints
/// guard *library* code on the data path.
pub fn analyze_workspace(root: &Path) -> Result<Report, PmrError> {
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
    let mut report = analyze_sources(inputs.iter().map(|(p, s)| (p.as_str(), s.as_str())));
    report.wall_ms = Some(u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX));
    Ok(report)
}

/// The whole pipeline over in-memory `(rel_path, source)` pairs — what
/// [`analyze_workspace`] runs and the fixture tests drive. A pair whose path
/// ends in `Cargo.toml` is a crate manifest, read only for its
/// dependencies.
pub fn analyze_sources<'a>(sources: impl IntoIterator<Item = (&'a str, &'a str)>) -> Report {
    let (manifests, mut inputs): (Vec<_>, Vec<_>) =
        sources.into_iter().partition(|(path, _)| path.ends_with("Cargo.toml"));
    inputs.sort_by_key(|(path, _)| *path);

    let files: Vec<ParsedFile> =
        inputs.iter().map(|(path, src)| parse::parse_file(path, src)).collect();
    let deps = callgraph::CrateDeps::from_manifests(&manifests);
    let graph = callgraph::CallGraph::build(&files, &deps);
    let mut report = Report {
        files_scanned: files.len(),
        violations: taint::taint_lints(&files, &graph),
        wall_ms: None,
    };
    report.finalize();
    report
}

/// Whether `rel_path` lies under any prefix of the scope list `paths`.
pub(crate) fn in_scope(paths: &[&str], rel_path: &str) -> bool {
    paths.iter().any(|p| rel_path.starts_with(p))
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

    const ALLOC: &str = "pub fn alloc_from_wire(r: &mut Reader) -> usize {\n\
                         let n = r.u32() as usize;\n\
                         let v: Vec<u8> = Vec::with_capacity(n);\n\
                         v.len()\n}\n";
    const DECODE: &str = "pub fn load(buf: &[u8]) -> Option<Artifact> {\n\
                          let mut r = ByteReader::new(buf, \"artifact\");\n\
                          let len = r.u64().ok()?;\n\
                          let art = Artifact::from_parts(len)?;\n\
                          verify_checksums(buf, len)?;\n\
                          Some(art)\n}\n";

    #[test]
    fn analyze_sources_aggregates_and_sorts() {
        let report = analyze_sources([
            ("crates/pmrd/src/lib.rs", ALLOC),
            ("crates/mgard/src/lib.rs", DECODE),
        ]);
        assert_eq!(report.files_scanned, 2);
        let found: Vec<(&str, &str)> =
            report.violations.iter().map(|v| (v.file.as_str(), v.lint)).collect();
        assert_eq!(
            found,
            vec![
                ("crates/mgard/src/lib.rs", "checksum_gate"),
                ("crates/pmrd/src/lib.rs", "taint_alloc")
            ]
        );
        assert!(!report.is_clean());
    }

    #[test]
    fn pipeline_is_deterministic_across_runs() {
        let sources = [("crates/pmrd/src/lib.rs", ALLOC), ("crates/mgard/src/lib.rs", DECODE)];
        let r1 = analyze_sources(sources);
        let r2 = analyze_sources(sources);
        assert_eq!(r1.to_json(), r2.to_json());
        assert_eq!(r1.count("taint_alloc"), 1);
        assert_eq!(r1.count("checksum_gate"), 1);
    }
}
