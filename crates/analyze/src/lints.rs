//! The lint registry, the lexical lints, and the waiver machinery shared
//! with the interprocedural passes.
//!
//! Every lint protects the same thing: the retriever's *error-bound
//! contract*. A panic mid-retrieval, a silently dropped `Result`, a lock
//! held across a segment fetch, a wrapped plane-length cast, or a
//! nondeterministic fault schedule are not style problems — each one lets
//! the system hand back data whose claimed bound is silently wrong. The
//! lints are deliberately conservative: they flag *forms* (and, for the
//! interprocedural ones, call-graph over-approximations), and every
//! accepted occurrence must carry a written justification inline:
//! `// lint:allow(<id>): reason`. [`EXPLAIN`] is the one description of
//! each lint; `pmrtool analyze --explain <id>` prints it.

use crate::config::{in_scope, AnalyzeConfig};
use crate::lexer::{Tok, TokKind};
use crate::parse::ParsedFile;
use crate::report::{Allowed, Report, Violation};

/// Lint identifiers, in report order.
pub const LINT_IDS: [&str; 12] = [
    "panic_reach",
    "error_swallow",
    "lock_order",
    "unsafe_safety",
    "send_sync_impl",
    "lossy_cast",
    "nondeterminism",
    "taint_alloc",
    "taint_index",
    "checksum_gate",
    "blocking_under_lock",
    "stale_suppression",
];

/// One `--explain` entry per lint, in [`LINT_IDS`] order:
/// `(id, semantics, known false-positive patterns, waiver guidance)`.
/// This is the single source the CLI renders; `explain_table_is_exhaustive`
/// keeps it in lockstep with the registry.
pub const EXPLAIN: [(&str, &str, &str, &str); 12] = [
    (
        "panic_reach",
        "No `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in a non-test \
         fn of the compress/retrieve/fetch crates (`panic_paths`), nor in any fn transitively \
         reachable from a `compress*`/`retrieve*`/`fetch*`/bit-plane-kernel entry point of \
         the entry crates; failures must surface as `PmrError` so the error-bound contract \
         cannot be voided by an abort. Reported at the panic site with the shortest call \
         chain. Contract `assert!`s on caller invariants are permitted.",
        "Dynamic dispatch is over-approximated (any same-named method may be linked), so a \
         chain through an unrelated impl can be reported.",
        "`// lint:allow(panic_reach): <invariant that makes the panic unreachable>` on or \
         above the panic site.",
    ),
    (
        "error_swallow",
        "No `let _ = fallible()`, no `.ok();` with the value dropped, and no bare \
         `fallible();` statement: a discarded `Result` on the data path silently voids the \
         caller's error bound.",
        "Shutdown/cleanup paths where the error is genuinely unactionable (waive with that \
         reasoning, not silence).",
        "`// lint:allow(error_swallow): <why the error is unactionable here>`.",
    ),
    (
        "lock_order",
        "No cyclic lock-acquisition order anywhere in the workspace and no guard \
         re-acquiring its own lock, directly or through a callee. (A guard held across a \
         fetch or a backoff wait is `blocking_under_lock`.)",
        "Guards dropped via a re-bound name (not literal `drop`) may appear live longer than \
         they are.",
        "`// lint:allow(lock_order): <why the order is acyclic / the guard is short>`.",
    ),
    (
        "unsafe_safety",
        "Every `unsafe` block or impl carries a `// SAFETY:` comment within the three lines \
         above it.",
        "None known; the check is purely lexical.",
        "Write the `// SAFETY:` comment instead of waiving.",
    ),
    (
        "send_sync_impl",
        "No `unsafe impl Send`/`Sync`: asserted thread safety is something the compiler \
         cannot check, and the workspace has no site that needs it.",
        "None known.",
        "Not waivable — share the data through `Arc`/`Mutex`/atomics or scoped threads \
         instead; a design that truly needs the impl changes this lint in review.",
    ),
    (
        "lossy_cast",
        "No `as` casts to narrower integers and no evident float→int `as` casts in the \
         codec/mgard/storage crates; use `try_from` or checked helpers.",
        "Values already bounded by construction (e.g. a bit-plane index < 64).",
        "`// lint:allow(lossy_cast): <the bound that makes the cast lossless>`.",
    ),
    (
        "nondeterminism",
        "No wall clocks, OS-seeded RNGs, or `HashMap`/`HashSet` in code that produces \
         persisted artifacts, plans, or fault schedules: byte-identical reruns are part of \
         the contract.",
        "Clocks used only for operator-facing logging or latency metrics that never reach an \
         artifact.",
        "`// lint:allow(nondeterminism): <why the value never reaches persisted output>`.",
    ),
    (
        "taint_alloc",
        "No untrusted size (wire length, disk header field) may reach `with_capacity`, \
         `reserve`, or `vec![…; n]` without passing a cap or checked sanitizer first. \
         Unchecked `+`/`*`/`<<` on the size does not launder it: the finding is reported \
         at the sink.",
        "Sizes produced by arithmetic the engine cannot see through may stay tainted after a \
         manual bound check it does not recognize.",
        "`// lint:allow(taint_alloc): <the bound and where it is enforced>`.",
    ),
    (
        "taint_index",
        "No untrusted offset/length may reach slice indexing, `split_at`, or \
         `copy_from_slice` without a bound check.",
        "Indices validated through a helper not listed in `TAINT_SANITIZERS`; add the helper \
         there (`analyze::taint`) instead of waiving repeatedly.",
        "`// lint:allow(taint_index): <the check that bounds the index>`.",
    ),
    (
        "checksum_gate",
        "Segment/artifact payloads must be checksum-verified before any decode entry point \
         sees their bytes, directly or transitively.",
        "Decode paths verified by a function not listed in `VERIFY_FNS`.",
        "Add the verifier to `VERIFY_FNS` in `analyze::taint`, or \
         `// lint:allow(checksum_gate): <where verification happens>`.",
    ),
    (
        "blocking_under_lock",
        "No blocking call while a mutex guard is live — directly or through any resolved \
         callee (interprocedural reachability). Blocking means the `blocking_calls` taxonomy \
         (`sleep`, `join`, `recv`, fsync, socket I/O, …), any segment fetch (a call named \
         `fetch*`, atomic RMWs aside), and any retry/backoff helper (a call whose name \
         contains `sleep`, `retry` or `backoff`). A worker stalled under a lock serializes \
         every peer behind it.",
        "Locks whose entire purpose is to serialize the blocking call (e.g. a shared mpsc \
         receiver where the guard *is* the dequeue permit), and `Condvar::wait`-style calls \
         that release the guard while parked — `wait` is excluded from the taxonomy for \
         exactly that reason.",
        "`// lint:allow(blocking_under_lock): <why holding the guard across the block is the \
         design>` on or above the flagged line.",
    ),
    (
        "stale_suppression",
        "Every inline `lint:allow` waiver must still match at least one finding; dead \
         suppressions are hard errors so rot cannot accumulate, and this lint can never \
         itself be suppressed.",
        "None known; staleness is computed over the same run that would have matched the \
         suppression.",
        "Not waivable by design — delete the dead suppression instead.",
    ),
];

/// Render the `--explain` text for one lint id, or `None` if unknown.
pub fn explain(id: &str) -> Option<String> {
    EXPLAIN.iter().find(|(eid, ..)| *eid == id).map(|(eid, semantics, fps, waiver)| {
        format!(
            "{eid}\n\nWhat it checks:\n  {semantics}\n\nKnown false-positive patterns:\n  \
             {fps}\n\nHow to waive:\n  {waiver}\n"
        )
    })
}

const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
const WIDE_INTS: [&str; 6] = ["u64", "i64", "u128", "i128", "usize", "isize"];
const FLOAT_TO_INT_FNS: [&str; 4] = ["round", "floor", "ceil", "trunc"];

/// Raw (pre-waiver) lexical findings for one file: `unsafe_safety`,
/// `send_sync_impl`, `lossy_cast`, `nondeterminism`. (Panic sites are
/// collected by [`crate::parse`] and judged by `panic_reach`.)
pub fn lexical_raw(p: &ParsedFile, cfg: &AnalyzeConfig) -> Vec<Violation> {
    let rel_path = p.rel_path.as_str();
    let safety_lines: Vec<usize> = p
        .toks
        .iter()
        .filter(|t| !t.is_code() && t.text.contains("SAFETY:"))
        .map(|t| t.line)
        .collect();

    let mut raw: Vec<Violation> = Vec::new();

    for ci in 0..p.code.len() {
        let t = p.ct(ci);
        if p.in_test(ci) || t.kind != TokKind::Ident {
            continue;
        }
        let next = |k: usize| p.code.get(ci + k).map(|&ti| &p.toks[ti]);

        // L2 — unsafe audit (whole workspace).
        if t.text == "unsafe" {
            let documented =
                safety_lines.iter().any(|&l| l <= t.line && t.line.saturating_sub(l) <= 3);
            if !documented {
                raw.push(Violation::new(
                    "unsafe_safety",
                    rel_path,
                    t.line,
                    "`unsafe` without a `// SAFETY:` comment in the 3 lines above it",
                    p.snippet(t.line),
                ));
            }
            if next(1).is_some_and(|n| n.is_ident("impl")) {
                let trait_name = (2..40)
                    .map_while(&next)
                    .take_while(|n| !n.is_punct('{') && !n.is_ident("for"))
                    .find(|n| n.is_ident("Send") || n.is_ident("Sync"))
                    .map(|n| n.text.clone());
                if let Some(name) = trait_name {
                    raw.push(Violation::new(
                        "send_sync_impl",
                        rel_path,
                        t.line,
                        format!(
                            "`unsafe impl {name}` asserts thread safety the compiler cannot \
                             check; share the data through safe primitives instead (this \
                             lint cannot be waived)"
                        ),
                        p.snippet(t.line),
                    ));
                }
            }
        }

        // L3 — lossy casts in the codec/artifact crates.
        if t.text == "as" && in_scope(cfg.cast_paths, rel_path) {
            if let Some(target) = next(1).filter(|n| n.kind == TokKind::Ident) {
                let narrow = NARROW_INTS.contains(&target.text.as_str());
                let wide = WIDE_INTS.contains(&target.text.as_str());
                if narrow || wide {
                    let float_src = cast_source_is_float(p, ci);
                    if narrow || float_src {
                        let kind = if float_src {
                            "float→int `as` cast saturates and drops fractions silently"
                        } else {
                            "integer `as` cast to a narrower type wraps silently"
                        };
                        raw.push(Violation::new(
                            "lossy_cast",
                            rel_path,
                            t.line,
                            format!(
                                "{kind}; use `try_from`/checked conversion (cast to `{}`)",
                                target.text
                            ),
                            p.snippet(t.line),
                        ));
                    }
                }
            }
        }

        // L4 — nondeterminism sources in artifact-producing code.
        if in_scope(cfg.nondet_paths, rel_path) {
            let clock = matches!(t.text.as_str(), "SystemTime" | "Instant")
                && next(1).is_some_and(|n| n.is_punct(':'))
                && next(2).is_some_and(|n| n.is_punct(':'))
                && next(3).is_some_and(|n| n.is_ident("now"));
            let rng = matches!(t.text.as_str(), "thread_rng" | "from_entropy");
            let hash = matches!(t.text.as_str(), "HashMap" | "HashSet");
            if clock || rng || hash {
                let what = if clock {
                    format!("`{}::now()` makes artifacts differ run to run", t.text)
                } else if rng {
                    format!("`{}` seeds from the OS; use an explicit seed", t.text)
                } else {
                    format!(
                        "`{}` iteration order is nondeterministic; use `BTreeMap`/`Vec` \
                         where order can reach persisted output",
                        t.text
                    )
                };
                raw.push(Violation::new(
                    "nondeterminism",
                    rel_path,
                    t.line,
                    what,
                    p.snippet(t.line),
                ));
            }
        }
    }
    raw
}

/// Phase 3 for one file: split its raw findings into `report.violations`
/// and waived `report.allowed`, then report every waiver that matched
/// nothing as a `stale_suppression`. `stale_suppression` and
/// `send_sync_impl` findings are never waivable: rot cannot hide itself,
/// and asserted thread safety is a design change, not a local exception.
pub fn apply_waivers(p: &ParsedFile, raw: Vec<Violation>, report: &mut Report) {
    let waivers = collect_waivers(&p.toks);
    let mut live = vec![false; waivers.len()];
    for v in raw {
        let mut reason: Option<&str> = None;
        if v.lint != "stale_suppression" && v.lint != "send_sync_impl" {
            for (w, live) in waivers.iter().zip(&mut live) {
                if w.lints.iter().any(|l| l == v.lint) && (w.line == v.line || w.line + 1 == v.line)
                {
                    *live = true;
                    reason.get_or_insert(&w.reason);
                }
            }
        }
        match reason {
            Some(r) => report.allowed.push(Allowed { violation: v, reason: r.to_string() }),
            None => report.violations.push(v),
        }
    }
    for (w, _) in waivers.iter().zip(live).filter(|(_, live)| !live) {
        report.violations.push(Violation::new(
            "stale_suppression",
            p.rel_path.as_str(),
            w.line,
            format!(
                "inline waiver `lint:allow({})` matches no finding; remove it \
                 (suppressions must not outlive what they suppress)",
                w.lints.join(", ")
            ),
            p.snippet(w.line),
        ));
    }
}

/// Does the `as` at code index `ci` cast an evidently-float expression?
/// Recognizes a float literal (`1.5 as i64`) and a trailing
/// `.round()/.floor()/.ceil()/.trunc()` call chain.
fn cast_source_is_float(p: &ParsedFile, ci: usize) -> bool {
    let Some(i) = ci.checked_sub(1) else { return false };
    let prev = p.ct(i);
    if prev.kind == TokKind::Num {
        let t = &prev.text;
        return t.contains('.') || t.ends_with("f32") || t.ends_with("f64");
    }
    if prev.is_punct(')') {
        // Walk back over the argument list to the matching `(`.
        let mut depth = 0usize;
        let mut j = i;
        loop {
            let t = p.ct(j);
            if t.is_punct(')') {
                depth += 1;
            } else if t.is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            let Some(nj) = j.checked_sub(1) else { return false };
            j = nj;
        }
        // `<expr>.round( … ) as` — ident directly before the `(`.
        if let Some(k) = j.checked_sub(1) {
            return FLOAT_TO_INT_FNS.contains(&p.ct(k).text.as_str())
                && k.checked_sub(1).is_some_and(|d| p.ct(d).is_punct('.'));
        }
    }
    false
}

/// An inline waiver parsed from a comment: `// lint:allow(a, b): reason`.
/// Covers findings on the comment's own line and the line below it.
struct Waiver {
    line: usize,
    lints: Vec<String>,
    reason: String,
}

fn collect_waivers(toks: &[Tok]) -> Vec<Waiver> {
    let mut out = Vec::new();
    for t in toks {
        if t.is_code() {
            continue;
        }
        let Some(pos) = t.text.find("lint:allow(") else { continue };
        let rest = &t.text[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else { continue };
        let lints: Vec<String> = rest[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let reason = rest[close + 1..]
            .trim_start_matches([':', '-', '—', ' '])
            .trim_end_matches("*/")
            .trim()
            .to_string();
        // A waiver with no reason is no waiver: the violation stays. And
        // only known lint ids count — prose that merely *mentions* the
        // syntax (`lint:allow(<id>)`) must not parse as a suppression.
        // A typo'd id is still loud: the finding it meant to waive fires.
        if !lints.is_empty()
            && !reason.is_empty()
            && lints.iter().all(|l| LINT_IDS.contains(&l.as_str()))
        {
            out.push(Waiver { line: t.line, lints, reason });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_sources;

    fn report_of(rel_path: &str, src: &str, cfg: &AnalyzeConfig) -> Report {
        analyze_sources([(rel_path, src)], cfg)
    }

    /// Lint `src` with every path-scoped lexical lint switched on.
    fn lints_of(src: &str) -> Vec<&'static str> {
        let cfg = AnalyzeConfig { panic_paths: &[""], cast_paths: &[""], nondet_paths: &[""] };
        report_of("crates/x/src/lib.rs", src, &cfg).violations.iter().map(|v| v.lint).collect()
    }

    #[test]
    fn explain_table_is_exhaustive() {
        // One entry per registered lint, same order — `--explain` must never
        // lag the registry.
        let explained: Vec<&str> = EXPLAIN.iter().map(|(id, ..)| *id).collect();
        assert_eq!(explained, LINT_IDS.to_vec());
        for id in LINT_IDS {
            let text = explain(id).unwrap();
            assert!(text.contains("What it checks"), "{id}");
            assert!(text.contains("How to waive"), "{id}");
        }
        assert!(explain("bogus").is_none());
    }

    #[test]
    fn panic_forms_fire() {
        assert_eq!(lints_of("fn f(x: Option<u8>) { x.unwrap(); }"), vec!["panic_reach"]);
        assert_eq!(lints_of("fn f() { panic!(\"boom\"); }"), vec!["panic_reach"]);
        assert_eq!(lints_of("fn f(x: Option<u8>) { x.expect(\"y\"); }"), vec!["panic_reach"]);
        // Non-panicking relatives do not fire.
        assert!(lints_of("fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }").is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn g() { x.unwrap(); panic!(); }\n}\n";
        assert!(lints_of(src).is_empty());
        let src = "#[test]\nfn t() { x.unwrap(); }\n";
        assert!(lints_of(src).is_empty());
        // #[cfg(not(test))] guards production code: still linted.
        let src = "#[cfg(not(test))]\nfn g() { x.unwrap(); }\n";
        assert_eq!(lints_of(src), vec!["panic_reach"]);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        assert_eq!(lints_of("fn f() { unsafe { g() } }"), vec!["unsafe_safety"]);
        let ok = "fn f() {\n // SAFETY: g has no preconditions\n unsafe { g() } }";
        assert!(lints_of(ok).is_empty());
        // Comment too far above does not count.
        let far = "// SAFETY: stale\n\n\n\n\nfn f() { unsafe { g() } }";
        assert_eq!(lints_of(far), vec!["unsafe_safety"]);
    }

    #[test]
    fn send_sync_impl_fires() {
        let src = "// SAFETY: disjoint writes\nunsafe impl Send for P {}";
        assert_eq!(lints_of(src), vec!["send_sync_impl"]);
        // Other unsafe impls (e.g. of an unsafe trait) pass.
        let other = "// SAFETY: contract upheld\nunsafe impl Searcher for P {}";
        assert!(lints_of(other).is_empty());
    }

    #[test]
    fn lossy_casts_fire_and_wide_lossless_do_not() {
        assert_eq!(lints_of("fn f(x: u64) -> u32 { x as u32 }"), vec!["lossy_cast"]);
        assert_eq!(lints_of("fn f(x: f64) -> i64 { x.round() as i64 }"), vec!["lossy_cast"]);
        assert_eq!(lints_of("fn f() -> i64 { 1.5 as i64 }"), vec!["lossy_cast"]);
        // Widening and same-width casts to 64-bit/usize are not flagged.
        assert!(lints_of("fn f(x: u32) -> u64 { x as u64 }").is_empty());
        assert!(lints_of("fn f(x: u32) -> usize { x as usize }").is_empty());
        // Casts to float are fine.
        assert!(lints_of("fn f(x: usize) -> f64 { x as f64 }").is_empty());
    }

    #[test]
    fn nondeterminism_sources_fire() {
        assert_eq!(lints_of("fn f() { let t = SystemTime::now(); }"), vec!["nondeterminism"]);
        assert_eq!(lints_of("fn f() { let r = thread_rng(); }"), vec!["nondeterminism"]);
        assert_eq!(lints_of("use std::collections::HashMap;"), vec!["nondeterminism"]);
        // Deterministic relatives pass.
        assert!(lints_of("use std::collections::BTreeMap;").is_empty());
        // Instant without ::now (e.g. a type in a signature) passes.
        assert!(lints_of("fn f(t: Instant) {}").is_empty());
    }

    #[test]
    fn inline_waiver_with_reason_suppresses() {
        let cfg = AnalyzeConfig::default();
        let src = "// lint:allow(lossy_cast): k < 64 planes by construction\nfn f(k: usize) -> u32 { k as u32 }";
        let r = report_of("crates/mgard/src/lib.rs", src, &cfg);
        assert!(r.is_clean(), "{}", r.summary());
        assert_eq!(r.allowed.len(), 1);
        assert_eq!(r.allowed[0].reason, "k < 64 planes by construction");
        // Same-line waiver works too.
        let src = "fn f(k: usize) -> u32 { k as u32 } // lint:allow(lossy_cast): bounded";
        assert!(report_of("crates/mgard/src/lib.rs", src, &cfg).is_clean());
    }

    #[test]
    fn waiver_without_reason_is_ignored() {
        assert_eq!(
            lints_of("// lint:allow(lossy_cast)\nfn f(k: usize) -> u32 { k as u32 }"),
            vec!["lossy_cast"]
        );
    }

    #[test]
    fn scoping_limits_lints_to_their_paths() {
        let hot: &[&str] = &["crates/hot"];
        let cfg = AnalyzeConfig { panic_paths: hot, cast_paths: hot, nondet_paths: hot };
        let src = "fn f(x: Option<u8>, y: u64) { x.unwrap(); let _ = y as u32; }";
        assert!(report_of("crates/cold/src/lib.rs", src, &cfg).is_clean());
        assert_eq!(report_of("crates/hot/src/lib.rs", src, &cfg).violations.len(), 2);
        // unsafe_safety is workspace-wide regardless of scoping.
        let u = "fn f() { unsafe { g() } }";
        assert_eq!(report_of("crates/cold/src/lib.rs", u, &cfg).violations.len(), 1);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r#"fn f() { let s = "x.unwrap() panic! HashMap"; } // x.unwrap()"#;
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn waiver_hits_are_counted_per_waiver() {
        let src = "// lint:allow(nondeterminism): display only\n\
                   fn f(k: usize) -> u32 { let t = SystemTime::now(); k as u32 }\n\
                   // lint:allow(lossy_cast): matches nothing on the next line\n";
        let r = report_of("crates/mgard/src/lib.rs", src, &AnalyzeConfig::default());
        let lints: Vec<&str> = r.violations.iter().map(|v| v.lint).collect();
        assert_eq!(lints, vec!["lossy_cast", "stale_suppression"], "{}", r.summary());
        assert_eq!(r.allowed.len(), 1);
        assert_eq!(r.allowed[0].violation.lint, "nondeterminism");
    }
}
