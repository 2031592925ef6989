//! Machine-readable analysis report.
//!
//! The JSON is hand-written (the workspace has no third-party crates) and **deterministic**: same tree in, same
//! findings out — violations and allowed entries are sorted by
//! `(file, line, lint)`, keys are emitted in fixed order, and each finding
//! carries a stable FNV-1a fingerprint that survives line drift (it hashes
//! the lint, file, and snippet, not the line number), so `analyze --diff`
//! can match findings across rebases. The only environment-dependent field
//! is the optional `timing` block, which the CLI attaches for humans and
//! which diff/baseline logic never reads.

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
    /// Stable identity for baseline diffing, filled in by
    /// [`Report::finalize`]: `lint:fnv1a64(lint, file, snippet, dup-index)`.
    pub fingerprint: String,
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
            fingerprint: String::new(),
        }
    }
}

/// A finding suppressed by the allowlist or an inline waiver — kept in the
/// report so the audit surface stays visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allowed {
    pub violation: Violation,
    pub reason: String,
}

/// Wall-clock measurements of one analysis run. Attached only by the CLI
/// (the library's fixture/golden paths stay byte-stable without it), and
/// never part of a finding's identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub wall_ms: u64,
    pub files_per_sec: f64,
}

/// The result of analysing a workspace.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
    pub allowed: Vec<Allowed>,
    pub timing: Option<Timing>,
}

impl Report {
    /// Sort contents into the canonical report order and assign fingerprints.
    pub fn finalize(&mut self) {
        let key = |v: &Violation| (v.file.clone(), v.line, v.lint);
        self.violations.sort_by_key(key);
        self.allowed.sort_by_key(|a| key(&a.violation));
        assign_fingerprints(self.violations.iter_mut());
        assign_fingerprints(self.allowed.iter_mut().map(|a| &mut a.violation));
    }

    /// Whether the workspace is clean (no unallowlisted violations).
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
        s.push_str("{\n  \"version\": 2,\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        if let Some(t) = self.timing {
            let _ = writeln!(
                s,
                "  \"timing\": {{ \"wall_ms\": {}, \"files_per_sec\": {:.1} }},",
                t.wall_ms, t.files_per_sec
            );
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

/// Assign each violation its stable identity. Violations must already be in
/// canonical order: duplicates (same lint, file, snippet — e.g. two
/// identical casts on different lines) are disambiguated by their ordinal,
/// so identity is insensitive to line renumbering but still unique.
fn assign_fingerprints<'a>(violations: impl Iterator<Item = &'a mut Violation>) {
    let mut seen: std::collections::BTreeMap<(String, String, String), usize> =
        std::collections::BTreeMap::new();
    for v in violations {
        let k = (v.lint.to_string(), v.file.clone(), v.snippet.clone());
        let n = seen.entry(k).or_insert(0);
        v.fingerprint = format!("{}:{:016x}", v.lint, fnv1a64(v, *n));
        *n += 1;
    }
}

/// 64-bit FNV-1a over the identity fields, NUL-separated.
fn fnv1a64(v: &Violation, ordinal: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        // Field bytes, then a NUL separator so field boundaries can't alias.
        for &b in bytes.iter().chain(std::iter::once(&0u8)) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(v.lint.as_bytes());
    eat(v.file.as_bytes());
    eat(v.snippet.as_bytes());
    eat(ordinal.to_string().as_bytes());
    h
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
        "{{ \"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"fingerprint\": \"{}\", \"message\": \"{}\", \"snippet\": \"{}\"",
        v.lint,
        escape(&v.file),
        v.line,
        escape(&v.fingerprint),
        escape(&v.message),
        escape(&v.snippet)
    );
    if let Some(r) = reason {
        let _ = write!(s, ", \"reason\": \"{}\"", escape(r));
    }
    s.push_str(" }");
}

pub(crate) fn escape(s: &str) -> String {
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
            violations: vec![v("b.rs", 3, "panic_path"), v("a.rs", 9, "lossy_cast")],
            allowed: vec![],
            timing: None,
        };
        r.finalize();
        assert_eq!(r.violations[0].file, "a.rs");
        let j1 = r.to_json();
        let j2 = r.to_json();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"summary\""));
        assert!(j1.contains("\"panic_path\": 1"));
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
    fn fingerprints_survive_line_drift_but_split_duplicates() {
        let mut r1 = Report { violations: vec![v("a.rs", 9, "lossy_cast")], ..Report::default() };
        r1.finalize();
        let mut r2 = Report { violations: vec![v("a.rs", 42, "lossy_cast")], ..Report::default() };
        r2.finalize();
        // Same finding moved to another line: identical fingerprint.
        assert_eq!(r1.violations[0].fingerprint, r2.violations[0].fingerprint);
        assert!(r1.violations[0].fingerprint.starts_with("lossy_cast:"));
        // Two identical snippets in one run get distinct ordinals.
        let mut r3 = Report {
            violations: vec![v("a.rs", 9, "lossy_cast"), v("a.rs", 10, "lossy_cast")],
            ..Report::default()
        };
        r3.finalize();
        assert_ne!(r3.violations[0].fingerprint, r3.violations[1].fingerprint);
        assert_eq!(r3.violations[0].fingerprint, r1.violations[0].fingerprint);
    }

    #[test]
    fn timing_is_emitted_only_when_attached() {
        let mut r = Report::default();
        r.finalize();
        assert!(!r.to_json().contains("timing"));
        r.timing = Some(Timing { wall_ms: 12, files_per_sec: 410.0 });
        let j = r.to_json();
        assert!(j.contains("\"wall_ms\": 12"));
        assert!(j.contains("\"files_per_sec\": 410.0"));
    }
}
