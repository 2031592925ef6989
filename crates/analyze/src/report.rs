//! Machine-readable analysis report.
//!
//! The JSON is hand-written (the workspace has no third-party crates) and
//! **deterministic**: same tree in, same findings out — violations and
//! allowed entries are sorted by `(file, line, lint)` and keys are emitted
//! in fixed order. The only environment-dependent field is the optional
//! `timing` block, which the CLI attaches for humans.

use crate::lints::LINT_IDS;
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

/// A finding suppressed by an inline waiver — kept in the report so the
/// audit surface stays visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allowed {
    pub violation: Violation,
    pub reason: String,
}

/// The result of analysing a workspace.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
    pub allowed: Vec<Allowed>,
    /// Wall time of the run, attached only by [`crate::analyze_workspace`]
    /// (the fixture paths stay byte-stable without it).
    pub wall_ms: Option<u64>,
}

impl Report {
    /// Sort contents into the canonical report order.
    pub fn finalize(&mut self) {
        let key = |v: &Violation| (v.file.clone(), v.line, v.lint);
        self.violations.sort_by_key(key);
        self.allowed.sort_by_key(|a| key(&a.violation));
    }

    /// Whether the workspace is clean (no unwaived violations).
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
            let _ = writeln!(
                out,
                "  {lint:<16} {:>3} violation(s), {:>3} allowed",
                self.count(lint),
                self.allowed.iter().filter(|a| a.violation.lint == lint).count()
            );
        }
        for v in &self.violations {
            let _ = writeln!(out, "{}:{}: [{}] {}", v.file, v.line, v.lint, v.message);
            let _ = writeln!(out, "    {}", v.snippet);
        }
        out
    }

    /// The stable JSON document (plus the volatile `timing` block when the
    /// caller attached one — strip it before byte-comparing two runs).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"version\": 4,\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        if let Some(wall_ms) = self.wall_ms {
            let _ = writeln!(s, "  \"timing\": {{ \"wall_ms\": {wall_ms} }},");
        }
        s.push_str("  \"summary\": {");
        for (i, lint) in LINT_IDS.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, " \"{lint}\": {}", self.count(lint));
        }
        s.push_str(" },\n");
        s.push_str("  \"violations\": [");
        write_items(&mut s, &self.violations, |s, v| write_violation(s, v, None));
        s.push_str("],\n");
        s.push_str("  \"allowed\": [");
        write_items(&mut s, &self.allowed, |s, a| {
            write_violation(s, &a.violation, Some(&a.reason))
        });
        s.push_str("]\n}\n");
        s
    }
}

fn write_items<T>(s: &mut String, items: &[T], mut one: impl FnMut(&mut String, &T)) {
    for (i, item) in items.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str("    ");
        one(s, item);
    }
    if !items.is_empty() {
        s.push_str("\n  ");
    }
}

fn write_violation(s: &mut String, v: &Violation, reason: Option<&str>) {
    let _ = write!(
        s,
        "{{ \"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"snippet\": \"{}\"",
        v.lint,
        escape(&v.file),
        v.line,
        escape(&v.message),
        escape(&v.snippet)
    );
    if let Some(r) = reason {
        let _ = write!(s, ", \"reason\": \"{}\"", escape(r));
    }
    s.push_str(" }");
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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
            violations: vec![v("b.rs", 3, "panic_reach"), v("a.rs", 9, "lossy_cast")],
            allowed: vec![],
            wall_ms: None,
        };
        r.finalize();
        assert_eq!(r.violations[0].file, "a.rs");
        let j1 = r.to_json();
        let j2 = r.to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"summary\""));
        assert!(j1.contains("\"panic_reach\": 1"));
        // Embedded quotes are escaped.
        assert!(j1.contains("\\\"q\\\""));
    }

    #[test]
    fn empty_report_is_clean() {
        let mut r = Report::default();
        r.finalize();
        assert!(r.is_clean());
        assert!(r.to_json().contains("\"violations\": []"));
    }

    #[test]
    fn timing_is_emitted_only_when_attached() {
        let mut r = Report::default();
        r.finalize();
        assert!(!r.to_json().contains("timing"));
        r.wall_ms = Some(12);
        let j = r.to_json();
        assert!(j.contains("\"wall_ms\": 12"));
    }
}
