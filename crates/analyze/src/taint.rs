//! Interprocedural taint analysis: untrusted wire/disk input must not
//! size memory, index slices, or be structurally decoded before its
//! checksum is verified.
//!
//! Three lints share the engine (`--explain` has the contract of each):
//! `taint_alloc` (sinks `with_capacity`/`reserve`/`resize`/`set_len`/
//! `vec![…; n]`) and `taint_index` (slice indexing and the `split_at`
//! family) report in `taint_paths`, at the sink, however the size was
//! computed; `checksum_gate` (a `decode_fns` call on a tainted payload
//! before any `verify_fns` call in the same function) in `checksum_paths`.
//!
//! The engine is a per-function linear walk plus a workspace fixpoint.
//! Each function gets a summary — does its return value carry source
//! taint, and which parameters reach a sink — computed bottom-up over
//! [`CallGraph`] edges until stable. Taint is a bitmask per variable:
//! bit 63 marks "derived from a source call", bits 0..48 mark "derived
//! from parameter *i*", so one pass both reports source→sink flows and
//! records param→sink summaries for callers.
//!
//! Like the rest of the analyzer the approximation is asymmetric: flows
//! the walk cannot shape (loop back-edges, `match` binders, computed
//! receivers) are dropped, never guessed, because a missed finding
//! weakens the gate while an invented one erodes trust in it. Four
//! deliberate cleanses keep the false-positive rate workable: any
//! configured sanitizer call cleans its whole expression, comparing a
//! variable (`n > MAX`, `i < len`) cleans that variable, `.len()` of a
//! tainted buffer (and `.rows()`/`.cols()` of a tainted matrix) is clean
//! (it is bounded by memory already received), and the induction variable
//! of `for k in a..x.count()` is clean as an argument of a call on that
//! same `x` — as receiver or as a sibling argument — because an object's
//! count bounds its own lists (a parsed level checks its plane count
//! against the planes it holds).

use crate::callgraph::CallGraph;
use crate::in_scope;
use crate::lexer::TokKind;
use crate::parse::ParsedFile;
use crate::report::Violation;
use std::collections::{BTreeMap, BTreeSet};

/// `taint_alloc`/`taint_index`: crates that ingest
/// untrusted wire or disk bytes and must bound every length they read.
/// Summaries are computed workspace-wide; findings are scoped here.
pub const TAINT_PATHS: &[&str] = &[
    "crates/error/src",
    "crates/pmrd/src",
    "crates/storage/src",
    "crates/codec/src",
    "crates/mgard/src",
    "crates/field/src",
    "crates/blockcodec/src",
    "crates/core/src",
    "crates/nn/src",
];

/// Taint sources: call names whose return value (and `&mut` out-params)
/// carry attacker-controlled bytes or lengths — the typed reads of
/// `pmr_error::ByteReader`, through which every artifact, model and frame
/// is parsed, and the stream reads. `take` is deliberately absent — it
/// collides with `std::mem::take`/`Iterator::take`; a length read through
/// a typed read is tainted before it reaches `take`.
const TAINT_SOURCES: &[&str] = &[
    "u8",
    "u16",
    "u32",
    "u64",
    "f32",
    "f64",
    "read_string",
    "read",
    "read_exact",
    "read_frame",
    "read_frame_limited",
];

/// Taint sanitizers: call names that bound or validate a value; any
/// expression containing one is considered clean.
const TAINT_SANITIZERS: &[&str] = &[
    "min",
    "clamp",
    "len",
    "rows",
    "cols",
    "len_u32",
    "decode_bounded",
    "decompress_bounded",
    "try_from",
    "try_into",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_shl",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "verify_segment",
    "contains",
    "get",
];

/// `checksum_gate`: crates whose decode paths must verify checksums before
/// structurally decoding untrusted payloads.
pub const CHECKSUM_PATHS: &[&str] = &["crates/mgard/src", "crates/storage/src"];

/// `checksum_gate`: decode entry points that must not see unverified
/// tainted payloads.
const DECODE_FNS: &[&str] = &["from_parts"];

/// `checksum_gate`: verification calls that gate a decode (directly or
/// transitively through a callee). `fnv1a64` is not one: a level takes its
/// planes' digests as it is parsed (`LevelEncoding::read_from`), so hashing
/// alone proves nothing — the gate opens where a digest is *compared* with
/// the stored one.
const VERIFY_FNS: &[&str] = &["verify_segment", "verify_checksums"];

/// Taint-mask bit marking "derived from an untrusted source call".
const SOURCE: u64 = 1 << 63;
/// Parameters tracked per function (mask bits 0..MAX_PARAMS).
const MAX_PARAMS: usize = 48;
/// Fixpoint safety cap; summaries grow monotonically so non-convergence
/// degrades to missed findings, never invented ones.
const MAX_ITERS: usize = 10;

/// Call names whose argument sizes an allocation or buffer length.
const ALLOC_SINKS: [&str; 5] = ["with_capacity", "reserve", "reserve_exact", "resize", "set_len"];
/// Call names whose argument is a slice offset/length that panics when
/// out of range.
const INDEX_SINKS: [&str; 4] = ["split_at", "split_at_mut", "split_off", "copy_from_slice"];

/// Words that can precede `*`/`[` without making them binary/indexing.
const NON_VALUE_WORDS: [&str; 10] =
    ["return", "in", "else", "if", "while", "match", "let", "loop", "break", "move"];

/// What one parameter of a function ends up used as.
#[derive(Clone, PartialEq, Eq, Debug)]
struct ParamSink {
    lint: &'static str,
    /// Sink description with its location, carried up the call chain so
    /// the report at the tainting call site names the real sink.
    what: String,
}

/// Per-function taint summary, computed to fixpoint.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct FnTaint {
    /// The return value can carry source taint.
    returns_source: bool,
    /// Per-parameter: the uncapped sink it reaches, if any.
    sinks: Vec<Option<ParamSink>>,
}

/// Shared read-only context for one function's walk.
struct Env<'a> {
    files: &'a [ParsedFile],
    f: &'a ParsedFile,
    call_at: &'a BTreeMap<usize, usize>,
    targets: &'a [Vec<usize>],
    summaries: &'a [FnTaint],
}

/// Loop variable → the object whose count bounds it, until the variable is
/// bound or assigned again.
type CountBounds = BTreeMap<String, String>;

/// Run the three taint lints over the workspace.
pub fn taint_lints(files: &[ParsedFile], graph: &CallGraph) -> Vec<Violation> {
    // Which nodes perform checksum verification, transitively.
    let mut reaches_verify: Vec<bool> =
        graph.nodes.iter().map(|n| !n.is_test && VERIFY_FNS.contains(&n.name.as_str())).collect();
    loop {
        let mut changed = false;
        for i in 0..graph.nodes.len() {
            if !reaches_verify[i] && graph.edges[i].iter().any(|&m| reaches_verify[m]) {
                reaches_verify[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut summaries: Vec<FnTaint> = graph
        .nodes
        .iter()
        .map(|n| FnTaint {
            returns_source: false,
            sinks: vec![None; files[n.file].fns[n.fn_idx].params.len().min(MAX_PARAMS)],
        })
        .collect();

    for _ in 0..MAX_ITERS {
        let mut changed = false;
        for ni in 0..graph.nodes.len() {
            if graph.nodes[ni].is_test {
                continue;
            }
            let computed = scan_fn(files, graph, &summaries, &reaches_verify, ni, None);
            if merge(&mut summaries, ni, computed) {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Reporting pass, scoped per lint family.
    let mut out: Vec<Violation> = Vec::new();
    let mut seen: BTreeSet<(&'static str, String, usize)> = BTreeSet::new();
    for ni in 0..graph.nodes.len() {
        let node = &graph.nodes[ni];
        if node.is_test {
            continue;
        }
        let taint_scope = in_scope(TAINT_PATHS, &node.rel_path);
        let cks_scope = in_scope(CHECKSUM_PATHS, &node.rel_path);
        if !taint_scope && !cks_scope {
            continue;
        }
        let mut viols = Vec::new();
        scan_fn(files, graph, &summaries, &reaches_verify, ni, Some(&mut viols));
        for v in viols {
            let in_scope = if v.lint == "checksum_gate" { cks_scope } else { taint_scope };
            if in_scope && seen.insert((v.lint, v.file.clone(), v.line)) {
                out.push(v);
            }
        }
    }
    out
}

/// Merge a freshly computed summary into the table; returns whether it
/// grew. Monotone: `returns_source` only flips to true, sinks only fill.
fn merge(summaries: &mut [FnTaint], ni: usize, computed: FnTaint) -> bool {
    let cur = &mut summaries[ni];
    let mut changed = false;
    if computed.returns_source && !cur.returns_source {
        cur.returns_source = true;
        changed = true;
    }
    for (slot, new) in cur.sinks.iter_mut().zip(computed.sinks) {
        if slot.is_none() {
            if let Some(ps) = new {
                *slot = Some(ps);
                changed = true;
            }
        }
    }
    changed
}

/// One linear walk over a function body: computes the summary, and (when
/// `emit` is given) reports source→sink violations.
fn scan_fn(
    files: &[ParsedFile],
    graph: &CallGraph,
    summaries: &[FnTaint],
    reaches_verify: &[bool],
    ni: usize,
    mut emit: Option<&mut Vec<Violation>>,
) -> FnTaint {
    let node = &graph.nodes[ni];
    let f = &files[node.file];
    let func = &f.fns[node.fn_idx];
    let scan = BodyScan::new(f, func.body);
    let call_at: BTreeMap<usize, usize> =
        func.calls.iter().enumerate().map(|(k, c)| (c.ci, k)).collect();
    let env = Env { files, f, call_at: &call_at, targets: &graph.call_targets[ni], summaries };

    // Variable → taint mask; parameters seed their own bit.
    let mut taint: BTreeMap<String, u64> = BTreeMap::new();
    for (i, p) in func.params.iter().take(MAX_PARAMS).enumerate() {
        taint.insert(p.clone(), 1u64 << i);
    }
    let mut summary =
        FnTaint { returns_source: false, sinks: vec![None; func.params.len().min(MAX_PARAMS)] };
    let mut verified = false;
    let mut bounds = CountBounds::new();

    let off = func.body.0 + 1;
    for ci in off..func.body.1 {
        let t = f.ct(ci);

        if t.kind == TokKind::Ident {
            if t.is_ident("let") {
                handle_let(&env, &scan, ci, &mut taint, &mut bounds);
            } else if t.is_ident("return") {
                let e = stmt_end(&scan, f, scan.stmt_of(ci));
                if eval_range(&env, &taint, ci + 1, e) & SOURCE != 0 {
                    summary.returns_source = true;
                }
            } else if t.is_ident("for") {
                handle_for(&env, ci, func.body.1, &mut taint, &mut bounds);
            } else if scan.stmt_of(ci) == ci {
                handle_assign(&env, &scan, ci, &mut taint, &mut bounds);
            }

            // `vec![elem; n]` — the repeat count sizes an allocation.
            if t.is_ident("vec")
                && f.code.get(ci + 1).is_some_and(|&ti| f.toks[ti].is_punct('!'))
                && f.code.get(ci + 2).is_some_and(|&ti| f.toks[ti].is_punct('['))
            {
                if let Some(close) = close_of(f, ci + 2) {
                    // Only the `[elem; n]` form has a dynamic length.
                    let semi = (ci + 3..close)
                        .find(|&cj| f.ct(cj).is_punct(';') && delim_depth(f, ci + 2, cj) == 1);
                    if let Some(semi) = semi {
                        let mask = eval_range(&env, &taint, semi + 1, close);
                        sink_hit(
                            "taint_alloc",
                            "an allocation size",
                            mask,
                            t.line,
                            &env,
                            &mut summary,
                            &mut emit,
                        );
                    }
                }
            }

            if let Some(&k) = call_at.get(&ci) {
                handle_call(
                    &env,
                    graph,
                    reaches_verify,
                    ci,
                    k,
                    &mut taint,
                    &bounds,
                    &mut summary,
                    &mut verified,
                    &mut emit,
                );
            }
            continue;
        }

        // Comparisons bound the compared variable: clear it.
        clear_on_comparison(f, ci, &mut taint);

        // Indexing sink: `expr[…]` with a tainted index/range.
        if t.is_punct('[') {
            let indexish = ci.checked_sub(1).map(|i| f.ct(i)).is_some_and(|p| {
                (p.kind == TokKind::Ident && !NON_VALUE_WORDS.contains(&p.text.as_str()))
                    || p.is_punct(')')
                    || p.is_punct(']')
            });
            if indexish {
                if let Some(close) = close_of(f, ci) {
                    let mask = eval_range(&env, &taint, ci + 1, close);
                    sink_hit(
                        "taint_index",
                        "a slice index/bound",
                        mask,
                        t.line,
                        &env,
                        &mut summary,
                        &mut emit,
                    );
                }
            }
        }
    }

    // Trailing expression: the implicit return value.
    if func.body.1 > off {
        let last = func.body.1 - 1;
        if !f.ct(last).is_punct(';') {
            let s = scan.stmt_of(last);
            if eval_range(&env, &taint, s, func.body.1) & SOURCE != 0 {
                summary.returns_source = true;
            }
        }
    }
    summary
}

/// Process one call site: sanitizer cleanses, source out-params, direct
/// alloc/index sinks, the checksum gate, and callee param-sink summaries.
#[allow(clippy::too_many_arguments)]
fn handle_call(
    env: &Env<'_>,
    graph: &CallGraph,
    reaches_verify: &[bool],
    ci: usize,
    k: usize,
    taint: &mut BTreeMap<String, u64>,
    bounds: &CountBounds,
    summary: &mut FnTaint,
    verified: &mut bool,
    emit: &mut Option<&mut Vec<Violation>>,
) {
    let f = env.f;
    let name = f.ct(ci).text.clone();
    let Some(close) = close_of(f, ci + 1) else { return };

    if TAINT_SANITIZERS.contains(&name.as_str()) {
        // A bounded/validated value: receiver chain and plain variable
        // arguments are considered clean from here on.
        let mut j = ci;
        while j >= 2 && f.ct(j - 1).is_punct('.') && f.ct(j - 2).kind == TokKind::Ident {
            taint.remove(&f.ct(j - 2).text);
            j -= 2;
        }
        for cj in (ci + 2)..close {
            let u = f.ct(cj);
            if u.kind == TokKind::Ident
                && !cj
                    .checked_sub(1)
                    .map(|i| f.ct(i))
                    .is_some_and(|p| p.is_punct('.') || p.is_punct(':'))
            {
                taint.remove(&u.text);
            }
        }
        return;
    }

    if TAINT_SOURCES.contains(&name.as_str()) {
        // Source call: `&mut buf` / leading bare-variable arguments are
        // out-params the callee fills with untrusted bytes.
        for cj in (ci + 2)..close {
            let u = f.ct(cj);
            if u.kind != TokKind::Ident || !taint.contains_key(&u.text) {
                continue;
            }
            let prev1 = cj.checked_sub(1).map(|i| f.ct(i));
            let after_amp_mut = prev1.is_some_and(|p| p.is_ident("mut"))
                && cj.checked_sub(2).map(|i| f.ct(i)).is_some_and(|p| p.is_punct('&'));
            let arg_head = prev1.is_some_and(|p| p.is_punct('(') || p.is_punct(','));
            if after_amp_mut || arg_head {
                *taint.get_mut(&u.text).expect("checked") |= SOURCE;
            }
        }
    }

    let sinkish: Option<(&'static str, &str)> = if ALLOC_SINKS.contains(&name.as_str()) {
        Some(("taint_alloc", "an allocation size"))
    } else if INDEX_SINKS.contains(&name.as_str()) {
        Some(("taint_index", "a slice index/bound"))
    } else {
        None
    };
    if let Some((lint, phrase)) = sinkish {
        let mask = eval_range(env, taint, ci + 2, close);
        sink_hit(lint, phrase, mask, f.ct(ci).line, env, summary, emit);
    }

    // checksum_gate: a verify call (direct or transitive) opens the gate;
    // a decode entry point on a tainted payload before that is a finding.
    let targets = &env.targets[k];
    if VERIFY_FNS.contains(&name.as_str()) || targets.iter().any(|&tg| reaches_verify[tg]) {
        *verified = true;
    } else if DECODE_FNS.contains(&name.as_str()) {
        let mask = eval_range(env, taint, ci + 2, close);
        if mask & SOURCE != 0 && !*verified {
            if let Some(out) = emit.as_deref_mut() {
                let line = f.ct(ci).line;
                out.push(Violation::new(
                    "checksum_gate",
                    f.rel_path.as_str(),
                    line,
                    format!(
                        "`{name}` decodes an untrusted payload before any checksum \
                         verification; verify (e.g. `{}`) before decoding",
                        VERIFY_FNS.first().unwrap_or(&"")
                    ),
                    f.snippet(line),
                ));
            }
        }
    }

    // Callee parameter-sink summaries: report tainted arguments, and
    // propagate param→sink chains into this function's own summary. A loop
    // variable bounded by the count of the receiver or of a sibling
    // argument stays inside that object's lists: it carries nothing.
    let args = arg_ranges(f, ci + 1, close);
    let lone_ident = |(a0, a1): (usize, usize)| {
        (a1 == a0 + 1 && f.ct(a0).kind == TokKind::Ident).then(|| f.ct(a0).text.as_str())
    };
    let receiver = (ci >= 2 && f.ct(ci - 1).is_punct('.') && f.ct(ci - 2).kind == TokKind::Ident)
        .then(|| f.ct(ci - 2).text.as_str());
    let in_own_bounds = |arg: (usize, usize)| {
        lone_ident(arg).and_then(|v| bounds.get(v)).is_some_and(|obj| {
            receiver == Some(obj.as_str()) || args.iter().any(|&a| lone_ident(a) == Some(obj))
        })
    };
    for &tg in targets {
        let ts = &env.summaries[tg];
        if ts.sinks.iter().all(Option::is_none) {
            continue;
        }
        let tnode = &graph.nodes[tg];
        for (i, &(a0, a1)) in args.iter().enumerate() {
            let Some(Some(ps)) = ts.sinks.get(i) else { continue };
            if in_own_bounds((a0, a1)) {
                continue;
            }
            let m = eval_range(env, taint, a0, a1);
            if m & SOURCE != 0 {
                if let Some(out) = emit.as_deref_mut() {
                    let line = f.ct(ci).line;
                    let pname = graph_param_name(env, graph, tg, i);
                    out.push(Violation::new(
                        ps.lint,
                        f.rel_path.as_str(),
                        line,
                        format!(
                            "untrusted input flows into `{}` parameter `{pname}`, \
                             used as {}",
                            tnode.qual, ps.what
                        ),
                        f.snippet(line),
                    ));
                }
            }
            for b in 0..summary.sinks.len() {
                if m & (1 << b) != 0 && summary.sinks[b].is_none() {
                    summary.sinks[b] = Some(ps.clone());
                }
            }
        }
    }
}

/// Declared name of parameter `i` of graph node `tg` (`#i` if unknown).
fn graph_param_name(env: &Env<'_>, graph: &CallGraph, tg: usize, i: usize) -> String {
    let n = &graph.nodes[tg];
    env.files[n.file].fns[n.fn_idx].params.get(i).cloned().unwrap_or_else(|| format!("#{i}"))
}

/// A direct sink saw `mask`: report source taint at the sink, and record
/// parameter bits into the function summary.
fn sink_hit(
    lint: &'static str,
    phrase: &str,
    mask: u64,
    line: usize,
    env: &Env<'_>,
    summary: &mut FnTaint,
    emit: &mut Option<&mut Vec<Violation>>,
) {
    let f = env.f;
    if mask & SOURCE != 0 {
        if let Some(out) = emit.as_deref_mut() {
            out.push(Violation::new(
                lint,
                f.rel_path.as_str(),
                line,
                format!(
                    "untrusted input reaches {phrase} with no bound; cap or validate it \
                     (e.g. `.min(…)` or a checked helper) before use"
                ),
                f.snippet(line),
            ));
        }
    }
    let what = format!("{phrase} ({}:{line})", f.rel_path);
    for b in 0..summary.sinks.len() {
        if mask & (1 << b) != 0 && summary.sinks[b].is_none() {
            summary.sinks[b] = Some(ParamSink { lint, what: what.clone() });
        }
    }
}

/// `let` bindings, including `if let` / `while let` headers: binders in
/// the pattern take the taint of the right-hand side.
fn handle_let(
    env: &Env<'_>,
    scan: &BodyScan,
    ci: usize,
    taint: &mut BTreeMap<String, u64>,
    bounds: &mut CountBounds,
) {
    let f = env.f;
    let stmt = scan.stmt_of(ci);
    let cond_form = stmt != ci; // `if let …` / `while let …`
    let end = stmt_end(scan, f, stmt);
    let Some(eq) = ((ci + 1)..end).find(|&cj| {
        f.ct(cj).is_punct('=')
            && !f.code.get(cj + 1).is_some_and(|&ti| f.toks[ti].is_punct('='))
            && !cj
                .checked_sub(1)
                .map(|i| f.ct(i))
                .is_some_and(|p| "<>!=+-*/%&|^".chars().any(|c| p.is_punct(c)))
    }) else {
        return;
    };
    // Pattern region ends at a top-level `:` (type ascription) or the `=`.
    let mut depth = 0usize;
    let mut pat_end = eq;
    for cj in (ci + 1)..eq {
        let u = f.ct(cj);
        if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
            depth += 1;
        } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
            depth = depth.saturating_sub(1);
        } else if u.is_punct(':') && depth == 0 {
            pat_end = cj;
            break;
        }
    }
    let rhs_end = if cond_form {
        ((eq + 1)..end).find(|&cj| f.ct(cj).is_punct('{')).unwrap_or(end)
    } else {
        end
    };
    let mask = eval_range(env, taint, eq + 1, rhs_end);
    for cj in (ci + 1)..pat_end {
        let u = f.ct(cj);
        if u.kind == TokKind::Ident
            && !matches!(u.text.as_str(), "mut" | "ref")
            && !u.text.chars().next().is_some_and(char::is_uppercase)
        {
            taint.insert(u.text.clone(), mask);
            bounds.remove(&u.text);
        }
    }
}

/// `for i in expr { … }`: loop binders take the taint of the iterated
/// expression (a tainted bound taints the induction variable). For
/// `for k in a..x.count() { … }` it also records that `x` bounds `k`.
fn handle_for(
    env: &Env<'_>,
    ci: usize,
    body_end: usize,
    taint: &mut BTreeMap<String, u64>,
    bounds: &mut CountBounds,
) {
    let f = env.f;
    let limit = body_end.min(ci + 64);
    let Some(in_ci) = ((ci + 1)..limit).find(|&cj| f.ct(cj).is_ident("in")) else { return };
    let Some(open) = ((in_ci + 1)..body_end).find(|&cj| f.ct(cj).is_punct('{')) else { return };
    let mask = eval_range(env, taint, in_ci + 1, open);
    // `.. x . count ( )` closing the header, bound to a single binder.
    let counted = open >= in_ci + 8
        && [(7, '.'), (6, '.'), (4, '.'), (2, '('), (1, ')')]
            .iter()
            .all(|&(back, c)| f.ct(open - back).is_punct(c))
        && f.ct(open - 5).kind == TokKind::Ident
        && f.ct(open - 3).kind == TokKind::Ident
        && in_ci == ci + 2;
    for cj in (ci + 1)..in_ci {
        let u = f.ct(cj);
        if u.kind == TokKind::Ident
            && !matches!(u.text.as_str(), "mut" | "ref")
            && !u.text.chars().next().is_some_and(char::is_uppercase)
        {
            taint.insert(u.text.clone(), mask);
            bounds.remove(&u.text);
        }
    }
    if counted {
        bounds.insert(f.ct(ci + 1).text.clone(), f.ct(open - 5).text.clone());
    }
}

/// Statement-initial `x = …;` / `x += …;` / `x <<= …;` assignments.
fn handle_assign(
    env: &Env<'_>,
    scan: &BodyScan,
    ci: usize,
    taint: &mut BTreeMap<String, u64>,
    bounds: &mut CountBounds,
) {
    let f = env.f;
    let name = f.ct(ci).text.clone();
    if NON_VALUE_WORDS.contains(&name.as_str()) {
        return;
    }
    let end = stmt_end(scan, f, ci);
    let p1 = f.code.get(ci + 1).map(|&ti| &f.toks[ti]);
    let p2 = f.code.get(ci + 2).map(|&ti| &f.toks[ti]);
    let p3 = f.code.get(ci + 3).map(|&ti| &f.toks[ti]);
    // `x = rhs;` (not `==`)
    if p1.is_some_and(|t| t.is_punct('=')) && !p2.is_some_and(|t| t.is_punct('=')) {
        let mask = eval_range(env, taint, ci + 2, end);
        bounds.remove(&name);
        taint.insert(name, mask);
        return;
    }
    // `x op= rhs;` — compound assignment: `x` keeps its taint and gains the
    // right-hand side's.
    let rhs_from = if p1.is_some_and(|t| t.is_punct('<'))
        && p2.is_some_and(|t| t.is_punct('<'))
        && p3.is_some_and(|t| t.is_punct('='))
    {
        ci + 4
    } else if p1.is_some_and(|t| "+-*/%&|^".chars().any(|c| t.is_punct(c)))
        && p2.is_some_and(|t| t.is_punct('='))
    {
        ci + 3
    } else {
        return;
    };
    let mask = taint.get(&name).copied().unwrap_or(0) | eval_range(env, taint, rhs_from, end);
    bounds.remove(&name);
    taint.insert(name, mask);
}

/// A comparison (`<`, `>`, `<=`, `>=`, `==`, `!=`) bounds the compared
/// variables: clear their taint. `<<`/`>>`/`->`/`=>` are not comparisons.
fn clear_on_comparison(f: &ParsedFile, ci: usize, taint: &mut BTreeMap<String, u64>) {
    let t = f.ct(ci);
    let next = |k: usize| f.code.get(ci + k).map(|&ti| &f.toks[ti]);
    let prev = ci.checked_sub(1).map(|i| f.ct(i));
    let operands: Option<(usize, usize)> = if t.is_punct('<') {
        if next(1).is_some_and(|n| n.is_punct('<')) {
            None // shift
        } else if next(1).is_some_and(|n| n.is_punct('=')) {
            Some((ci.wrapping_sub(1), ci + 2))
        } else {
            Some((ci.wrapping_sub(1), ci + 1))
        }
    } else if t.is_punct('>') {
        if prev.is_some_and(|p| p.is_punct('-') || p.is_punct('='))
            || next(1).is_some_and(|n| n.is_punct('>'))
        {
            None // `->`, `=>`, shift
        } else if next(1).is_some_and(|n| n.is_punct('=')) {
            Some((ci.wrapping_sub(1), ci + 2))
        } else {
            Some((ci.wrapping_sub(1), ci + 1))
        }
    } else if (t.is_punct('=')
        && next(1).is_some_and(|n| n.is_punct('='))
        && !prev.is_some_and(|p| {
            p.is_punct('=') || p.is_punct('<') || p.is_punct('>') || p.is_punct('!')
        }))
        || (t.is_punct('!') && next(1).is_some_and(|n| n.is_punct('=')))
    {
        Some((ci.wrapping_sub(1), ci + 2))
    } else {
        None
    };
    if let Some((l, r)) = operands {
        for cj in [l, r] {
            if let Some(&ti) = f.code.get(cj) {
                let u = &f.toks[ti];
                if u.kind == TokKind::Ident {
                    taint.remove(&u.text);
                }
            }
        }
    }
}

/// Union the taint of every value-position token in `[from, to)`. Any
/// sanitizer call in the range cleans the whole expression; calls union
/// SOURCE when the name is a configured source or a resolved target whose
/// summary returns source taint.
fn eval_range(env: &Env<'_>, taint: &BTreeMap<String, u64>, from: usize, to: usize) -> u64 {
    let f = env.f;
    let to = to.min(f.code.len());
    for cj in from..to {
        if env.call_at.contains_key(&cj) && TAINT_SANITIZERS.contains(&f.ct(cj).text.as_str()) {
            return 0;
        }
    }
    let mut mask = 0u64;
    for cj in from..to {
        let t = f.ct(cj);
        if t.kind != TokKind::Ident {
            continue;
        }
        if let Some(&k) = env.call_at.get(&cj) {
            if TAINT_SOURCES.contains(&t.text.as_str())
                || env.targets[k].iter().any(|&tg| env.summaries[tg].returns_source)
            {
                mask |= SOURCE;
            }
            continue;
        }
        // Variable use — skip field/method names and path segments, but not
        // range bounds: `..n` puts a '.' before `n`, yet `n` is a value.
        if cj.checked_sub(1).map(|i| f.ct(i)).is_some_and(|p| p.is_punct('.') || p.is_punct(':')) {
            let range_bound = cj >= 2 && f.ct(cj - 1).is_punct('.') && f.ct(cj - 2).is_punct('.');
            if !range_bound {
                continue;
            }
        }
        if let Some(&m) = taint.get(&t.text) {
            mask |= m;
        }
    }
    mask
}

/// Per-token structural facts for one function body: a linear pass that
/// assigns every code token the start of its enclosing statement.
/// That is enough to bound a statement without a full expression parser,
/// and a construct the scan cannot shape is skipped, not guessed at.
struct BodyScan {
    /// First code index inside the body (just after the opening `{`).
    off: usize,
    /// `stmt[ci - off]`: code index where the enclosing statement starts.
    stmt: Vec<usize>,
}

impl BodyScan {
    fn new(p: &ParsedFile, body: (usize, usize)) -> BodyScan {
        let off = body.0 + 1;
        let n = body.1.saturating_sub(off);
        let mut stmt = vec![off; n];
        let mut pd = 0usize;
        let mut cur_start = off;
        let mut cur_pd = 0usize;
        // Saved (stmt_start, stmt_pd) per enclosing brace.
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for ci in off..body.1 {
            let t = p.ct(ci);
            if t.is_punct('}') {
                if let Some((s, spd)) = stack.pop() {
                    cur_start = s;
                    cur_pd = spd;
                }
            }
            stmt[ci - off] = cur_start;
            if t.is_punct('{') {
                stack.push((cur_start, cur_pd));
                cur_start = ci + 1;
                cur_pd = pd;
            } else if t.is_punct('(') || t.is_punct('[') {
                pd += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                pd = pd.saturating_sub(1);
            } else if t.is_punct(';') && pd == cur_pd {
                cur_start = ci + 1;
            }
        }
        BodyScan { off, stmt }
    }

    fn stmt_of(&self, ci: usize) -> usize {
        self.stmt.get(ci.wrapping_sub(self.off)).copied().unwrap_or(self.off)
    }

    fn end(&self) -> usize {
        self.off + self.stmt.len()
    }
}

/// Exclusive end of the statement starting at `s`: its terminating `;`,
/// or the end of the body.
fn stmt_end(scan: &BodyScan, f: &ParsedFile, s: usize) -> usize {
    (s..scan.end())
        .find(|&cj| f.ct(cj).is_punct(';') && scan.stmt_of(cj) == s)
        .unwrap_or_else(|| scan.end())
}

/// Code index of the delimiter closing the `(`/`[` at `open`, counting
/// all bracket kinds as nesting.
fn close_of(f: &ParsedFile, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for cj in open..f.code.len() {
        let t = f.ct(cj);
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(cj);
            }
        }
    }
    None
}

/// Bracket depth at `at`, relative to the opener at `open` (1 = directly
/// inside it).
fn delim_depth(f: &ParsedFile, open: usize, at: usize) -> usize {
    let mut depth = 0usize;
    for cj in open..=at.min(f.code.len().saturating_sub(1)) {
        let t = f.ct(cj);
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
        }
    }
    depth
}

/// Top-level comma-separated argument ranges of the call whose `(` is at
/// `open` and `)` at `close` (commas and parens excluded).
#[allow(clippy::needless_range_loop)]
fn arg_ranges(f: &ParsedFile, open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = open + 1;
    for cj in open..=close.min(f.code.len().saturating_sub(1)) {
        let t = f.ct(cj);
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                if cj > start {
                    out.push((start, cj));
                }
                break;
            }
        } else if t.is_punct(',') && depth == 1 {
            out.push((start, cj));
            start = cj + 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CrateDeps;
    use crate::parse::parse_file;

    fn run_at(sources: &[(&str, &str)]) -> Vec<Violation> {
        let mut files: Vec<ParsedFile> = sources.iter().map(|(p, s)| parse_file(p, s)).collect();
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        let graph = CallGraph::build(&files, &CrateDeps::default());
        taint_lints(&files, &graph)
    }

    fn run(src: &str) -> Vec<Violation> {
        run_at(&[("crates/pmrd/src/lib.rs", src)])
    }

    #[test]
    fn untrusted_alloc_fires() {
        let v = run("fn f(r: &mut R) { let n = r.u16().unwrap_or(0) as usize; \
             let _v: Vec<u8> = Vec::with_capacity(n); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, "taint_alloc");
    }

    #[test]
    fn capped_alloc_is_clean() {
        let v = run("fn f(r: &mut R) { let n = (r.u16().unwrap_or(0) as usize).min(16); \
             let _v: Vec<u8> = Vec::with_capacity(n); }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn comparison_bounds_clear_taint() {
        let v = run("fn f(r: &mut R) -> Result<(), E> { let n = r.u32().unwrap_or(0) as usize; \
             if n > MAX { return Err(E); } let _v: Vec<u8> = Vec::with_capacity(n); Ok(()) }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn untrusted_slice_bound_fires() {
        let v = run("fn f(r: &mut R, buf: &[u8]) { let n = r.u32().unwrap_or(0) as usize; \
             let _x = &buf[..n]; }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, "taint_index");
    }

    #[test]
    fn vec_macro_repeat_count_is_an_alloc_sink() {
        let v = run("fn f(r: &mut R) { let n = r.u32().unwrap_or(0) as usize; \
             let _b = vec![0u8; n]; }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, "taint_alloc");
        // Static-length forms have no dynamic size to taint.
        let v2 = run("fn f(r: &mut R) { let n = r.u8().unwrap_or(0); let _b = vec![n, n]; }");
        assert!(v2.is_empty(), "{v2:?}");
    }

    #[test]
    fn interprocedural_param_sink_reports_at_the_tainting_call() {
        let v = run("fn alloc_exact(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n\
             fn go(r: &mut R) { let n = r.u32().unwrap_or(0) as usize; let _v = alloc_exact(n); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, "taint_alloc");
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("alloc_exact"), "{}", v[0].message);
        assert!(v[0].message.contains("`n`"), "{}", v[0].message);
    }

    #[test]
    fn returns_source_propagates_through_helpers() {
        let v = run("fn rd(r: &mut R) -> usize { r.u32().unwrap_or(0) as usize }\n\
             fn go(r: &mut R) { let n = rd(r); let _v: Vec<u8> = Vec::with_capacity(n); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, "taint_alloc");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unchecked_arith_is_reported_at_the_sink() {
        let v = run("fn f(r: &mut R) { let n = (r.u16().unwrap_or(0) as usize) * 8;\n\
             let _v: Vec<u8> = Vec::with_capacity(n); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, "taint_alloc");
        assert_eq!(v[0].line, 2, "reported at the allocation");
    }

    #[test]
    fn source_out_params_taint_their_buffer() {
        let v = run("fn f(r: &mut R) { let mut hdr = [0u8; 4]; let _n = r.read_exact(&mut hdr); \
             let n = hdr[0] as usize; let _v: Vec<u8> = Vec::with_capacity(n); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, "taint_alloc");
    }

    #[test]
    fn decode_before_verify_fires_and_verify_gates() {
        let v = run_at(&[(
            "crates/mgard/src/persist.rs",
            // `read_frame` (not `take`) is the registered source: `take`
            // was dropped from the default sources for colliding with
            // `std::mem::take`/`Iterator::take`.
            "fn from_parts(p: &[u8]) -> u8 { 0 }\n\
             fn verify_checksums(p: &[u8]) -> u64 { 0 }\n\
             fn bad(r: &mut R) -> u8 { let p = r.read_frame(8).unwrap_or_default(); from_parts(&p) }\n\
             fn good(r: &mut R) -> u8 { let p = r.read_frame(8).unwrap_or_default(); \
             let _c = verify_checksums(&p); from_parts(&p) }",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, "checksum_gate");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn out_of_scope_paths_are_ignored() {
        let v = run_at(&[(
            "crates/analyze/src/lib.rs",
            "fn f(r: &mut R) { let n = r.u16().unwrap_or(0) as usize; \
             let _v: Vec<u8> = Vec::with_capacity(n); }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn len_of_received_buffer_is_bounded() {
        // `.len()` of already-received bytes is bounded by real memory.
        let v = run("fn f(buf: &[u8], r: &mut R) { let b = r.take(9).unwrap_or_default(); \
             let _v: Vec<u8> = Vec::with_capacity(b.len()); }");
        assert!(v.is_empty(), "{v:?}");
        // So are the dimensions of a matrix built from received values.
        let v = run("fn f(r: &mut R) { let m = r.read_frame(9).unwrap_or_default(); \
             let _v: Vec<u8> = Vec::with_capacity(m.rows() * m.cols()); }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn an_objects_count_bounds_positions_in_that_object_only() {
        // `lvl` is parsed from untrusted bytes; `at` indexes its receiver.
        let run_loop = |header: &str, call: &str| {
            run(&format!(
                "impl L {{ fn at(&self, k: u32) -> u8 {{ self.v[k as usize] }} }}\n\
                 fn at_of(l: &L, k: u32) -> u8 {{ l.at(k) }}\n\
                 fn go(r: &mut R, other: &L) {{ let lvl = r.read_frame(8).unwrap_or_default();\n\
                 for k in {header} {{ let _b = {call}; }} }}"
            ))
        };
        for own in ["lvl.at(k)", "at_of(lvl, k)"] {
            let v = run_loop("0..lvl.count()", own);
            assert!(v.is_empty(), "{own}: {v:?}");
        }
        let v = run_loop("0..lvl.count()", "other.at(k)");
        assert_eq!(v.len(), 1, "another object's positions: {v:?}");
        assert_eq!((v[0].lint, v[0].line), ("taint_index", 4));
        let v = run_loop("0..=lvl.count()", "lvl.at(k)");
        assert_eq!(v.len(), 1, "an inclusive count runs one past the end: {v:?}");
        let v = run_loop("0..lvl.count()", "{ let k = r.u32().unwrap_or(0); lvl.at(k) }");
        assert_eq!(v.len(), 1, "a rebound index is no longer the count's: {v:?}");
    }
}
