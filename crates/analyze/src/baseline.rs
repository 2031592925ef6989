//! Persisted finding baselines for `pmrtool analyze --diff`.
//!
//! A baseline is the set of *known* findings, stored as fingerprints (see
//! [`crate::report`]): `analyze --diff analyze-baseline.json` fails only
//! when a finding appears that is not in the set, so CI can gate new debt
//! while the existing set burns down. Fingerprints are line-number-free,
//! which keeps a baseline valid across rebases and unrelated edits; the
//! file is versioned, sorted, and deduped so regeneration is byte-stable.

use crate::report::{escape, Report, Violation};
use pmr_error::PmrError;
use std::collections::BTreeSet;

/// Render the current violations as a baseline document.
pub fn to_json(report: &Report) -> String {
    let fps: BTreeSet<&str> = report.violations.iter().map(|v| v.fingerprint.as_str()).collect();
    let mut s = String::from("{\n  \"version\": 1,\n  \"fingerprints\": [");
    for (i, fp) in fps.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str("    \"");
        s.push_str(&escape(fp));
        s.push('"');
    }
    if !fps.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Parse a baseline document. Strict: anything but the exact shape
/// `{"version": 1, "fingerprints": ["…", …]}` is an error — a half-read
/// baseline would silently un-gate the diff.
pub fn parse(text: &str) -> Result<BTreeSet<String>, PmrError> {
    let mut p = Scanner { s: text.as_bytes(), i: 0 };
    let malformed = |msg: &str| PmrError::malformed("analyze baseline", msg.to_string());
    p.ws();
    p.expect(b'{').map_err(|()| malformed("expected `{`"))?;
    let mut fingerprints: Option<BTreeSet<String>> = None;
    let mut saw_version = false;
    loop {
        p.ws();
        let key = p.string().map_err(|()| malformed("expected object key"))?;
        p.ws();
        p.expect(b':').map_err(|()| malformed("expected `:`"))?;
        p.ws();
        match key.as_str() {
            "version" => {
                let n = p.number().map_err(|()| malformed("expected version number"))?;
                if n != 1 {
                    return Err(malformed("unsupported baseline version"));
                }
                saw_version = true;
            }
            "fingerprints" => {
                p.expect(b'[').map_err(|()| malformed("expected `[`"))?;
                let mut set = BTreeSet::new();
                p.ws();
                if !p.peek(b']') {
                    loop {
                        p.ws();
                        set.insert(p.string().map_err(|()| malformed("expected fingerprint"))?);
                        p.ws();
                        if p.peek(b',') {
                            p.i += 1;
                            continue;
                        }
                        break;
                    }
                }
                p.ws();
                p.expect(b']').map_err(|()| malformed("expected `]`"))?;
                fingerprints = Some(set);
            }
            other => return Err(malformed(&format!("unknown key `{other}`"))),
        }
        p.ws();
        if p.peek(b',') {
            p.i += 1;
            continue;
        }
        break;
    }
    p.ws();
    p.expect(b'}').map_err(|()| malformed("expected `}`"))?;
    if !saw_version {
        return Err(malformed("missing `version`"));
    }
    fingerprints.ok_or_else(|| malformed("missing `fingerprints`"))
}

/// Violations in `report` whose fingerprint is not in `baseline` — the
/// findings a `--diff` run fails on.
pub fn new_findings<'r>(report: &'r Report, baseline: &BTreeSet<String>) -> Vec<&'r Violation> {
    report.violations.iter().filter(|v| !baseline.contains(&v.fingerprint)).collect()
}

struct Scanner<'a> {
    s: &'a [u8],
    i: usize,
}

impl Scanner<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self, b: u8) -> bool {
        self.s.get(self.i) == Some(&b)
    }

    fn expect(&mut self, b: u8) -> Result<(), ()> {
        if self.peek(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(())
        }
    }

    fn string(&mut self) -> Result<String, ()> {
        self.expect(b'"')?;
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                return Err(()); // fingerprints never need escapes
            }
            self.i += 1;
        }
        let out = String::from_utf8(self.s[start..self.i].to_vec()).map_err(|_| ())?;
        self.expect(b'"')?;
        Ok(out)
    }

    fn number(&mut self) -> Result<u64, ()> {
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i].is_ascii_digit() {
            self.i += 1;
        }
        if start == self.i {
            return Err(());
        }
        std::str::from_utf8(&self.s[start..self.i]).map_err(|_| ())?.parse().map_err(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(fps: &[&str]) -> Report {
        let mut r = Report::default();
        for (i, _) in fps.iter().enumerate() {
            r.violations.push(Violation::new("panic_path", format!("f{i}.rs"), 1, "m", "s"));
        }
        r.finalize();
        for (v, fp) in r.violations.iter_mut().zip(fps) {
            v.fingerprint = (*fp).to_string();
        }
        r
    }

    #[test]
    fn round_trips_and_sorts() {
        let r = report_with(&["panic_path:02", "panic_path:01"]);
        let json = to_json(&r);
        let set = parse(&json).expect("parses");
        assert_eq!(set.len(), 2);
        assert!(set.contains("panic_path:01"));
        // Emission is sorted regardless of violation order.
        assert!(json.find("panic_path:01").unwrap() < json.find("panic_path:02").unwrap());
        assert_eq!(to_json(&r), json);
    }

    #[test]
    fn diff_reports_only_new_findings() {
        let r = report_with(&["a:1", "b:2"]);
        let baseline: BTreeSet<String> = ["a:1".to_string()].into();
        let new = new_findings(&r, &baseline);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].fingerprint, "b:2");
        let full: BTreeSet<String> = ["a:1".to_string(), "b:2".to_string()].into();
        assert!(new_findings(&r, &full).is_empty());
    }

    #[test]
    fn empty_report_yields_empty_baseline() {
        let json = to_json(&Report::default());
        assert_eq!(parse(&json).expect("parses").len(), 0);
        assert!(json.contains("\"fingerprints\": []"));
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(parse("").is_err());
        assert!(parse("{}").is_err());
        assert!(parse("{\"version\": 2, \"fingerprints\": []}").is_err());
        assert!(parse("{\"version\": 1}").is_err());
        assert!(parse("{\"version\": 1, \"fingerprints\": [1]}").is_err());
        assert!(parse("{\"version\": 1, \"bogus\": [], \"fingerprints\": []}").is_err());
    }
}
