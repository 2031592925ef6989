//! Machine-readable analysis report.
//!
//! The JSON is a [`Json`] value and **deterministic**: same tree in, same
//! findings out — violations are sorted by `(file, line, lint)` and keys
//! are emitted in fixed order. The only
//! environment-dependent field is the optional `timing` object, which the
//! CLI attaches for humans.

use crate::lints::LINT_IDS;
use pmr_json::Json;
use std::fmt::Write as _;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Lint identifier (one of [`LINT_IDS`]).
    pub lint: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    pub message: String,
    /// The trimmed source line, for human triage without opening the file.
    pub snippet: String,
}

impl Violation {
    pub fn new(
        lint: &'static str,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
        snippet: impl Into<String>,
    ) -> Self {
        Violation {
            lint,
            file: file.into(),
            line,
            message: message.into(),
            snippet: snippet.into(),
        }
    }
}

/// The result of analysing a workspace.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
    /// Wall time of the run, attached only by [`crate::analyze_workspace`]
    /// (the fixture paths stay byte-stable without it).
    pub wall_ms: Option<u64>,
}

impl Report {
    /// Sort contents into the canonical report order.
    pub fn finalize(&mut self) {
        self.violations.sort_by_key(|v| (v.file.clone(), v.line, v.lint));
    }

    /// Whether the workspace is clean (no violations).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Count of hard violations for `lint`.
    pub fn count(&self, lint: &str) -> usize {
        self.violations.iter().filter(|v| v.lint == lint).count()
    }

    /// Human-readable summary block.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "pmr-analyze: {} files scanned", self.files_scanned);
        for lint in LINT_IDS {
            let _ = writeln!(out, "  {lint:<16} {:>3} violation(s)", self.count(lint));
        }
        for v in &self.violations {
            let _ = writeln!(out, "{}:{}: [{}] {}", v.file, v.line, v.lint, v.message);
            let _ = writeln!(out, "    {}", v.snippet);
        }
        out
    }

    /// The stable JSON document (plus the volatile `timing` object when the
    /// caller attached one — drop it before comparing two runs).
    pub fn to_json(&self) -> Json {
        let num = |n: usize| Json::Num(n as f64);
        let violation = |v: &Violation| {
            Json::obj(vec![
                ("lint", Json::str(v.lint)),
                ("file", Json::str(&v.file)),
                ("line", num(v.line)),
                ("message", Json::str(&v.message)),
                ("snippet", Json::str(&v.snippet)),
            ])
        };
        let mut doc = vec![("version", Json::Num(5.0)), ("files_scanned", num(self.files_scanned))];
        if let Some(wall_ms) = self.wall_ms {
            doc.push(("timing", Json::obj(vec![("wall_ms", Json::Num(wall_ms as f64))])));
        }
        let summary = LINT_IDS.iter().map(|lint| (*lint, num(self.count(lint)))).collect();
        doc.push(("summary", Json::obj(summary)));
        doc.push(("violations", Json::Arr(self.violations.iter().map(violation).collect())));
        Json::obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(file: &str, line: usize, lint: &'static str) -> Violation {
        Violation::new(lint, file, line, "m", "let x = \"q\";")
    }

    #[test]
    fn json_is_stable_and_sorted() {
        let mut r = Report {
            files_scanned: 2,
            violations: vec![v("b.rs", 3, "taint_alloc"), v("a.rs", 9, "checksum_gate")],
            wall_ms: None,
        };
        r.finalize();
        assert_eq!(r.violations[0].file, "a.rs");
        let j = r.to_json();
        assert_eq!(j, r.to_json());
        let summary = j.get("summary").expect("summary");
        assert_eq!(summary.get("taint_alloc").and_then(Json::as_usize), Some(1));
        let first = &j.get("violations").and_then(Json::as_arr).expect("violations")[0];
        assert_eq!(first.get("file").and_then(Json::as_str), Some("a.rs"));
        // Embedded quotes survive the write-parse round trip.
        let text = j.to_pretty();
        assert!(text.contains("\\\"q\\\""));
        assert_eq!(pmr_json::parse(&text), Ok(j));
    }

    #[test]
    fn empty_report_is_clean() {
        let mut r = Report::default();
        r.finalize();
        assert!(r.is_clean());
        assert_eq!(r.to_json().get("violations"), Some(&Json::Arr(vec![])));
    }

    #[test]
    fn timing_is_emitted_only_when_attached() {
        let mut r = Report::default();
        r.finalize();
        assert!(r.to_json().get("timing").is_none());
        r.wall_ms = Some(12);
        let j = r.to_json();
        assert_eq!(j.get("timing").and_then(|t| t.get("wall_ms")), Some(&Json::Num(12.0)));
    }
}
