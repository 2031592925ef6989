//! Concurrency-soundness lints on top of the parse/callgraph layers:
//! `lock_consistency` (RacerD-style GUARDED_BY inference by majority vote),
//! `atomic_ordering` (per-atomic publication-protocol checks across the
//! workspace), and `blocking_under_lock` (a blocking-call taxonomy —
//! named I/O and wait calls, segment fetches, backoff helpers — resolved
//! interprocedurally and checked against live guards).
//!
//! All three reuse the guard model built for `lock_order` in
//! [`crate::dataflow`]: the acquisition sites and liveness ranges double as
//! the "what is held here" oracle. The analyses degrade the same way the
//! parser does — a receiver chain that cannot be normalized to a stable
//! identity is prefixed with the function qual so distinct locals never
//! unify, which can only *miss* a protocol pairing, never invent one.

use crate::callgraph::{CallGraph, Node};
use crate::dataflow::{matching_close, Acquisition, BodyScan};
use crate::lexer::TokKind;
use crate::parse::{Callee, FnInfo, ParsedFile};
use crate::report::Violation;
use std::collections::{BTreeMap, BTreeSet};

/// Cap on the interprocedural fixpoint passes. The call graph is small and
/// both passes move monotonically through finite lattices, so this is a
/// backstop, not a tuning knob; hitting it degrades to larger held-sets,
/// which suppresses findings rather than inventing them.
const MAX_ITERS: usize = 20;

/// Run all three concurrency lints over the shared guard model `acqs`
/// ([`crate::dataflow::acquisitions`]). Acquisitions are collected
/// workspace-wide because lock context must flow through every call edge.
pub(crate) fn concurrency_lints(
    files: &[ParsedFile],
    graph: &CallGraph,
    acqs: &[Vec<Acquisition>],
) -> Vec<Violation> {
    let mut out = lock_consistency(files, graph, acqs);
    out.extend(atomic_ordering(files, graph));
    out.extend(blocking_under_lock(files, graph, acqs));
    out
}

/// Lock ids whose guard liveness covers code index `ci`. Explicit `drop`
/// is not modeled here (an access after a drop counts as guarded), which
/// errs toward *suppressing* lock_consistency findings — conservative.
fn held_at(acqs: &[Acquisition], ci: usize) -> BTreeSet<String> {
    acqs.iter().filter(|a| a.ci < ci && ci < a.live_end).map(|a| a.id.clone()).collect()
}

/// Must-held lock context at each function's entry: the intersection over
/// all call sites of (caller's entry context ∪ locks held at the site).
/// Functions with no observed callers get the empty set, so their bodies
/// are judged on intraprocedural evidence alone.
fn entry_lock_context(
    files: &[ParsedFile],
    graph: &CallGraph,
    acqs: &[Vec<Acquisition>],
) -> Vec<BTreeSet<String>> {
    let n = graph.nodes.len();
    let mut entry: Vec<Option<BTreeSet<String>>> = vec![None; n];
    for _ in 0..MAX_ITERS {
        let mut changed = false;
        for i in 0..n {
            let node = &graph.nodes[i];
            if node.is_test {
                continue;
            }
            let func = &files[node.file].fns[node.fn_idx];
            for (k, call) in func.calls.iter().enumerate() {
                let mut held = entry[i].clone().unwrap_or_default();
                held.extend(held_at(&acqs[i], call.ci));
                for &t in &graph.call_targets[i][k] {
                    if graph.nodes[t].is_test {
                        continue;
                    }
                    let slot = &mut entry[t];
                    match slot {
                        None => {
                            *slot = Some(held.clone());
                            changed = true;
                        }
                        Some(cur) => {
                            let inter: BTreeSet<String> =
                                cur.intersection(&held).cloned().collect();
                            if inter.len() != cur.len() {
                                *cur = inter;
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    entry.into_iter().map(|e| e.unwrap_or_default()).collect()
}

// ---------------------------------------------------------------------------
// lock_consistency

/// The `lock_consistency` lint: observe which guard is held at every
/// `self.field` access of each struct, infer GUARDED_BY(field) = L when a
/// strict majority (and at least two) of the accesses hold L, then flag
/// the accesses that hold nothing that includes L.
fn lock_consistency(
    files: &[ParsedFile],
    graph: &CallGraph,
    acqs: &[Vec<Acquisition>],
) -> Vec<Violation> {
    let entry = entry_lock_context(files, graph, acqs);

    // Field identity (`Type.field`) → access observations in node order.
    let mut obs: BTreeMap<String, Vec<(usize, usize, BTreeSet<String>)>> = BTreeMap::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        if node.is_test || node.self_type.is_none() {
            continue;
        }
        let f = &files[node.file];
        let func = &f.fns[node.fn_idx];
        let mut ci = func.body.0 + 1;
        while ci < func.body.1 {
            let t = f.ct(ci);
            if !t.is_ident("self")
                || f.in_test(ci)
                || ci.checked_sub(1).is_some_and(|p| f.ct(p).is_punct('.'))
            {
                ci += 1;
                continue;
            }
            // Maximal `self.a.b…` chain.
            let mut segs: Vec<String> = Vec::new();
            let mut j = ci;
            while f.code.get(j + 1).is_some_and(|&ti| f.toks[ti].is_punct('.'))
                && f.code.get(j + 2).is_some_and(|&ti| f.toks[ti].kind == TokKind::Ident)
            {
                j += 2;
                segs.push(f.ct(j).text.clone());
            }
            let is_call = f.code.get(j + 1).is_some_and(|&ti| f.toks[ti].is_punct('('));
            if is_call {
                // The last segment is a method name, not data. Lock
                // acquisitions are the guard, not an access of the field
                // that holds the mutex.
                let Some(m) = segs.pop() else {
                    ci = j + 1;
                    continue;
                };
                if m == "lock" || m == "try_lock" {
                    ci = j + 1;
                    continue;
                }
            }
            let Some(field) = segs.first() else {
                ci = j + 1;
                continue;
            };
            let id = crate::dataflow::normalize_lock_id(&format!("self.{field}"), node);
            let mut held = held_at(&acqs[ni], ci);
            held.extend(entry[ni].iter().cloned());
            obs.entry(id).or_default().push((node.file, t.line, held));
            ci = j + 1;
        }
    }

    let mut out = Vec::new();
    for (field, sites) in &obs {
        let total = sites.len();
        // Majority vote: the lock held at the most access sites.
        let mut votes: BTreeMap<&str, usize> = BTreeMap::new();
        for (_, _, held) in sites {
            for g in held {
                *votes.entry(g.as_str()).or_default() += 1;
            }
        }
        let mut best: Option<(&str, usize)> = None;
        for (g, c) in &votes {
            if best.is_none_or(|(_, bc)| *c > bc) {
                best = Some((g, *c));
            }
        }
        let Some((guard, gcount)) = best else { continue };
        // Inference needs at least two guarded sites and a strict majority;
        // below that, the "convention" is too weak to flag against.
        if gcount < 2 || gcount * 2 <= total {
            continue;
        }
        for (fi, line, held) in sites {
            if held.contains(guard) {
                continue;
            }
            let f = &files[*fi];
            out.push(Violation::new(
                "lock_consistency",
                f.rel_path.as_str(),
                *line,
                format!(
                    "`{field}` is accessed with `{guard}` held at {gcount} of {total} sites, \
                     but this access holds no guard; lock `{guard}` or document why this \
                     path is single-threaded"
                ),
                f.snippet(*line),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// atomic_ordering

/// Memory orderings, ordered by (rough) strength for display only.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MemOrd {
    Relaxed,
    Release,
    Acquire,
    AcqRel,
    SeqCst,
}

impl MemOrd {
    fn parse(text: &str) -> Option<MemOrd> {
        match text {
            "Relaxed" => Some(MemOrd::Relaxed),
            "Release" => Some(MemOrd::Release),
            "Acquire" => Some(MemOrd::Acquire),
            "AcqRel" => Some(MemOrd::AcqRel),
            "SeqCst" => Some(MemOrd::SeqCst),
            _ => None,
        }
    }

    /// Strength of the ordering's load half: 0 none, 1 acquire, 2 seqcst.
    fn load_half(self) -> u8 {
        match self {
            MemOrd::Relaxed | MemOrd::Release => 0,
            MemOrd::Acquire | MemOrd::AcqRel => 1,
            MemOrd::SeqCst => 2,
        }
    }

    /// Whether a store/RMW with this ordering publishes (release semantics).
    fn is_release_write(self) -> bool {
        matches!(self, MemOrd::Release | MemOrd::AcqRel | MemOrd::SeqCst)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum AtomOp {
    Load,
    Store,
    Rmw,
    /// `compare_exchange`/`compare_exchange_weak`/`fetch_update`: two
    /// orderings, success/set first, failure/fetch second.
    Cas,
}

fn classify_atomic(name: &str) -> Option<AtomOp> {
    match name {
        "load" => Some(AtomOp::Load),
        "store" => Some(AtomOp::Store),
        "swap" | "fetch_add" | "fetch_sub" | "fetch_and" | "fetch_or" | "fetch_xor"
        | "fetch_nand" | "fetch_max" | "fetch_min" => Some(AtomOp::Rmw),
        "compare_exchange" | "compare_exchange_weak" | "fetch_update" => Some(AtomOp::Cas),
        _ => None,
    }
}

struct AtomSite {
    op: AtomOp,
    /// Ordering arguments in source order (success/set first for CAS).
    ords: Vec<MemOrd>,
    file: usize,
    line: usize,
}

/// The `atomic_ordering` lint: group every atomic access by the identity of
/// the atomic it touches, then check the per-atomic protocol: a published
/// (Release/SeqCst-written) atomic must not be read `Relaxed`, an
/// Acquire-read atomic must not be written `Relaxed`, and a CAS failure
/// ordering must not out-rank the load half of its success ordering.
/// Pure statistics counters (all-Relaxed) pass by construction.
fn atomic_ordering(files: &[ParsedFile], graph: &CallGraph) -> Vec<Violation> {
    let mut atoms: BTreeMap<String, Vec<AtomSite>> = BTreeMap::new();
    for node in &graph.nodes {
        if node.is_test {
            continue;
        }
        let f = &files[node.file];
        let func = &f.fns[node.fn_idx];
        let scan = BodyScan::new(f, func.body);
        for call in &func.calls {
            let Callee::Method { name, recv } = &call.callee else { continue };
            let Some(op) = classify_atomic(name) else { continue };
            let Some(chain) = recv.as_deref() else { continue };
            if f.in_test(call.ci) {
                continue;
            }
            let Some(close) = matching_close(f, call.ci + 1) else { continue };
            // Ordering arguments at the call's own argument depth only: a
            // nested atomic call's orderings belong to its own site.
            let mut ords = Vec::new();
            let mut depth = 0usize;
            for cj in (call.ci + 1)..=close {
                let t = f.ct(cj);
                if t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(')') {
                    depth = depth.saturating_sub(1);
                } else if depth == 1 && t.kind == TokKind::Ident {
                    if let Some(o) = MemOrd::parse(&t.text) {
                        ords.push(o);
                    }
                }
            }
            if ords.is_empty() {
                // Not an atomic access (e.g. some map's `store` method).
                continue;
            }
            let id = resolve_atom_id(f, func, node, call.ci, chain, &scan);
            atoms.entry(id).or_default().push(AtomSite {
                op,
                ords,
                file: node.file,
                line: call.line,
            });
        }
    }

    let mut out = Vec::new();
    for (id, sites) in &atoms {
        let write_ord = |s: &AtomSite| -> Option<MemOrd> {
            matches!(s.op, AtomOp::Store | AtomOp::Rmw | AtomOp::Cas)
                .then(|| s.ords.first().copied())
                .flatten()
        };
        let has_release_write =
            sites.iter().any(|s| write_ord(s).is_some_and(MemOrd::is_release_write));
        let has_acquire_load = sites
            .iter()
            .any(|s| s.op == AtomOp::Load && s.ords.first().is_some_and(|o| o.load_half() > 0));
        for s in sites {
            let f = &files[s.file];
            if s.op == AtomOp::Load && has_release_write && s.ords.first() == Some(&MemOrd::Relaxed)
            {
                out.push(Violation::new(
                    "atomic_ordering",
                    f.rel_path.as_str(),
                    s.line,
                    format!(
                        "atomic `{id}` is written with release semantics elsewhere but read \
                         here with `Relaxed`; the read does not synchronize with the \
                         publication — use `Acquire`"
                    ),
                    f.snippet(s.line),
                ));
            }
            if has_acquire_load && write_ord(s) == Some(MemOrd::Relaxed) {
                out.push(Violation::new(
                    "atomic_ordering",
                    f.rel_path.as_str(),
                    s.line,
                    format!(
                        "atomic `{id}` is read with acquire semantics elsewhere but written \
                         here with `Relaxed`; the store publishes nothing — use `Release`"
                    ),
                    f.snippet(s.line),
                ));
            }
            if s.op == AtomOp::Cas && s.ords.len() >= 2 {
                let (success, failure) = (s.ords[0], s.ords[1]);
                if failure.load_half() > success.load_half() {
                    out.push(Violation::new(
                        "atomic_ordering",
                        f.rel_path.as_str(),
                        s.line,
                        format!(
                            "`compare_exchange` on `{id}`: failure ordering `{:?}` is stronger \
                             than the load half of success ordering `{:?}`; the failed path \
                             would synchronize more than the successful one — strengthen \
                             the success ordering",
                            failure, success
                        ),
                        f.snippet(s.line),
                    ));
                }
            }
        }
    }
    out
}

/// Resolve an atomic receiver chain to a stable identity. `self.field…`
/// becomes `Type.field…` directly; a plain local is traced one `let`
/// binding back (`let flag = self.killed.get(i)` → `Type.killed`), so the
/// common borrow-then-operate idiom joins the field's protocol; anything
/// else stays function-local and never unifies across functions.
fn resolve_atom_id(
    f: &ParsedFile,
    func: &FnInfo,
    node: &Node,
    ci: usize,
    chain: &str,
    scan: &BodyScan,
) -> String {
    if chain.starts_with("self") || node.self_type.is_none() {
        return crate::dataflow::normalize_lock_id(chain, node);
    }
    let mut parts = chain.split('.');
    let Some(first) = parts.next() else {
        return crate::dataflow::normalize_lock_id(chain, node);
    };
    let rest: String = parts.map(|s| format!(".{s}")).collect();
    // Last `let …first… = …self.field…` binding before the use site wins
    // (re-bindings shadow).
    let mut found: Option<String> = None;
    for cj in (func.body.0 + 1)..ci {
        if !f.ct(cj).is_ident(first) {
            continue;
        }
        let s = scan.stmt_of(cj);
        // A `let` statement (incl. `if let` / `while let`) binding `first`…
        if !(s..cj).any(|ck| f.ct(ck).is_ident("let")) {
            continue;
        }
        // …with `first` on the pattern side of the `=`…
        let Some(eq) =
            (cj + 1..func.body.1).find(|&ck| scan.stmt_of(ck) == s && f.ct(ck).is_punct('='))
        else {
            continue;
        };
        // …and a `self.field` chain on the right-hand side.
        let mut ck = eq + 1;
        while ck < func.body.1 && scan.stmt_of(ck) == s {
            if f.ct(ck).is_ident("self")
                && f.code.get(ck + 1).is_some_and(|&ti| f.toks[ti].is_punct('.'))
                && f.code.get(ck + 2).is_some_and(|&ti| f.toks[ti].kind == TokKind::Ident)
            {
                found = Some(f.ct(ck + 2).text.clone());
                break;
            }
            ck += 1;
        }
    }
    if let Some(field) = found {
        let id = crate::dataflow::normalize_lock_id(&format!("self.{field}"), node);
        return format!("{id}{rest}");
    }
    crate::dataflow::normalize_lock_id(chain, node)
}

// ---------------------------------------------------------------------------
// blocking_under_lock

/// `blocking_under_lock`: the blocking-call taxonomy by exact name (segment
/// fetches and backoff helpers are matched by name shape, see
/// [`blocks_by_shape`]). `Condvar::wait` is deliberately absent — it
/// releases the guard while parked.
const BLOCKING_CALLS: &[&str] = &[
    "sleep",
    "join",
    "park",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "sync_all",
    "sync_data",
    "read_to_end",
    "read_exact",
    "write_all",
    "write_vectored",
    "accept",
    "connect",
];

/// Call names that block without being listed in [`BLOCKING_CALLS`]: a
/// segment fetch (`fetch*`, the atomic RMWs aside) and the retry/backoff
/// helpers (`*sleep*`, `*retry*`, `*backoff*`) — a guard held across either
/// stalls every peer for a storage round-trip or a backoff interval.
fn blocks_by_shape(name: &str) -> bool {
    (name.starts_with("fetch") && classify_atomic(name).is_none())
        || ["sleep", "retry", "backoff"].iter().any(|m| name.contains(m))
}

/// The `blocking_under_lock` lint: flag calls in a guard's live range that
/// are in the blocking-call taxonomy ([`BLOCKING_CALLS`] by name,
/// [`blocks_by_shape`] by shape), directly or through any resolved callee
/// (computed as a reachability fixpoint over the call graph, carrying the
/// name of the witnessing blocking call).
fn blocking_under_lock(
    files: &[ParsedFile],
    graph: &CallGraph,
    acqs: &[Vec<Acquisition>],
) -> Vec<Violation> {
    let blocks = |name: &str| BLOCKING_CALLS.contains(&name) || blocks_by_shape(name);

    // Direct witness: the first blocking call in each non-test body.
    let mut witness: Vec<Option<String>> = graph
        .nodes
        .iter()
        .map(|node| {
            if node.is_test {
                return None;
            }
            let f = &files[node.file];
            f.fns[node.fn_idx]
                .calls
                .iter()
                .find(|c| blocks(c.callee.name()) && !f.in_test(c.ci))
                .map(|c| c.callee.name().to_string())
        })
        .collect();
    // Propagate caller ← callee to fixpoint.
    loop {
        let mut changed = false;
        for i in 0..graph.nodes.len() {
            if witness[i].is_some() || graph.nodes[i].is_test {
                continue;
            }
            let Some(w) = graph.edges[i].iter().find_map(|&m| witness[m].clone()) else {
                continue;
            };
            witness[i] = Some(w);
            changed = true;
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        let f = &files[node.file];
        let func = &f.fns[node.fn_idx];
        let call_at: BTreeMap<usize, usize> =
            func.calls.iter().enumerate().map(|(k, c)| (c.ci, k)).collect();
        let mut flagged: BTreeSet<(String, usize)> = BTreeSet::new();
        for a in &acqs[ni] {
            for ci in a.held(f) {
                let Some(&k) = call_at.get(&ci) else { continue };
                let name = func.calls[k].callee.name();
                if name == "lock" || name == "try_lock" {
                    continue; // acquisitions are lock_order's concern
                }
                let what = if blocks(name) {
                    format!("blocking call `{name}`")
                } else {
                    let reached = graph.call_targets[ni][k]
                        .iter()
                        .find_map(|&tg| witness[tg].as_ref().map(|w| (tg, w)));
                    let Some((tg, w)) = reached else { continue };
                    format!("`{}` reaches blocking call `{w}`", graph.nodes[tg].qual)
                };
                let line = f.ct(ci).line;
                if flagged.insert((a.id.clone(), line)) {
                    out.push(Violation::new(
                        "blocking_under_lock",
                        f.rel_path.as_str(),
                        line,
                        format!(
                            "{what} while the guard on `{}` is held; drop the guard first",
                            a.id
                        ),
                        f.snippet(line),
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn run(sources: &[(&str, &str)]) -> Vec<Violation> {
        let mut files: Vec<ParsedFile> = sources.iter().map(|(p, s)| parse_file(p, s)).collect();
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        let graph = CallGraph::build(&files);
        let acqs = crate::dataflow::acquisitions(&files, &graph);
        concurrency_lints(&files, &graph, &acqs)
    }

    fn of<'a>(v: &'a [Violation], lint: &str) -> Vec<&'a Violation> {
        v.iter().filter(|x| x.lint == lint).collect()
    }

    // -- lock_consistency ---------------------------------------------------

    #[test]
    fn unguarded_minority_access_fires() {
        let v = run(&[(
            "crates/storage/src/lib.rs",
            "impl Registry {\n\
             \x20fn add(&self) { let g = self.mu.lock().unwrap_or_default(); self.entries.push(1); }\n\
             \x20fn count(&self) -> usize { let g = self.mu.lock().unwrap_or_default(); self.entries.len() }\n\
             \x20fn peek(&self) -> usize { self.entries.len() }\n\
             }",
        )]);
        let lc = of(&v, "lock_consistency");
        assert_eq!(lc.len(), 1, "{v:?}");
        assert!(lc[0].message.contains("Registry.mu"), "{}", lc[0].message);
        assert_eq!(lc[0].line, 4);
    }

    #[test]
    fn helper_called_under_lock_inherits_context() {
        let v = run(&[(
            "crates/storage/src/lib.rs",
            "impl Registry {\n\
             \x20fn add(&self) { let g = self.mu.lock().unwrap_or_default(); self.push_locked(); }\n\
             \x20fn push_locked(&self) { self.entries.push(1); }\n\
             \x20fn count(&self) -> usize { let g = self.mu.lock().unwrap_or_default(); self.entries.len() }\n\
             \x20fn sum(&self) -> usize { let g = self.mu.lock().unwrap_or_default(); self.entries.len() }\n\
             }",
        )]);
        assert!(of(&v, "lock_consistency").is_empty(), "{v:?}");
    }

    #[test]
    fn no_majority_means_no_inference() {
        let v = run(&[(
            "crates/storage/src/lib.rs",
            "impl Registry {\n\
             \x20fn a(&self) { let g = self.mu.lock().unwrap_or_default(); self.entries.push(1); }\n\
             \x20fn b(&self) { let g = self.mu.lock().unwrap_or_default(); self.entries.push(2); }\n\
             \x20fn c(&self) -> usize { self.entries.len() }\n\
             \x20fn d(&self) -> usize { self.entries.len() }\n\
             }",
        )]);
        assert!(of(&v, "lock_consistency").is_empty(), "{v:?}");
    }

    #[test]
    fn release_store_with_relaxed_load_fires() {
        let v = run(&[(
            "crates/pmrd/src/lib.rs",
            "impl Flag {\n\
             \x20fn publish(&self) { self.ready.store(true, Ordering::Release); }\n\
             \x20fn poll(&self) -> bool { self.ready.load(Ordering::Relaxed) }\n\
             }",
        )]);
        let ao = of(&v, "atomic_ordering");
        assert_eq!(ao.len(), 1, "{v:?}");
        assert!(ao[0].message.contains("Flag.ready"), "{}", ao[0].message);
        assert_eq!(ao[0].line, 3);
    }

    #[test]
    fn relaxed_store_read_with_acquire_fires_at_the_store() {
        let v = run(&[(
            "crates/pmrd/src/lib.rs",
            "impl Flag {\n\
             \x20fn publish(&self) { self.ready.store(true, Ordering::Relaxed); }\n\
             \x20fn poll(&self) -> bool { self.ready.load(Ordering::Acquire) }\n\
             }",
        )]);
        let ao = of(&v, "atomic_ordering");
        assert_eq!(ao.len(), 1, "{v:?}");
        assert!(ao[0].message.contains("publishes nothing"), "{}", ao[0].message);
        assert_eq!(ao[0].line, 2);
    }

    #[test]
    fn consistent_protocols_are_clean() {
        let v = run(&[(
            "crates/storage/src/lib.rs",
            "impl Health {\n\
             \x20fn kill(&self) { self.killed.store(true, Ordering::Release); }\n\
             \x20fn is_killed(&self) -> bool { self.killed.load(Ordering::Acquire) }\n\
             \x20fn note(&self) { self.fetches.fetch_add(1, Ordering::Relaxed); }\n\
             \x20fn snapshot(&self) -> u64 { self.fetches.load(Ordering::Relaxed) }\n\
             \x20fn stop(&self) { self.stopping.store(true, Ordering::SeqCst); }\n\
             \x20fn stopping(&self) -> bool { self.stopping.load(Ordering::SeqCst) }\n\
             }",
        )]);
        assert!(of(&v, "atomic_ordering").is_empty(), "{v:?}");
    }

    #[test]
    fn local_alias_joins_the_field_protocol() {
        // `let flag = self.killed.get(i)` — the alias's accesses must unify
        // with the field's identity so cross-function pairing is observed.
        let v = run(&[(
            "crates/storage/src/lib.rs",
            "impl Health {\n\
             \x20fn kill(&self, i: usize) { if let Some(flag) = self.killed.get(i) { flag.store(true, Ordering::Release); } }\n\
             \x20fn is_killed(&self, i: usize) -> bool { let flag = self.killed.get(i); flag.load(Ordering::Relaxed) }\n\
             }",
        )]);
        let ao = of(&v, "atomic_ordering");
        assert_eq!(ao.len(), 1, "{v:?}");
        assert!(ao[0].message.contains("Health.killed"), "{}", ao[0].message);
        assert_eq!(ao[0].line, 3);
    }

    #[test]
    fn cas_failure_stronger_than_success_fires() {
        let v = run(&[(
            "crates/pmrd/src/lib.rs",
            "impl Seq {\n\
             \x20fn bump(&self) { let _r = self.seq.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Acquire); }\n\
             }",
        )]);
        let ao = of(&v, "atomic_ordering");
        assert_eq!(ao.len(), 1, "{v:?}");
        assert!(ao[0].message.contains("failure ordering"), "{}", ao[0].message);
    }

    #[test]
    fn cas_with_matched_orderings_is_clean() {
        let v = run(&[(
            "crates/pmrd/src/lib.rs",
            "impl Seq {\n\
             \x20fn bump(&self) { let _r = self.seq.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire); }\n\
             }",
        )]);
        assert!(of(&v, "atomic_ordering").is_empty(), "{v:?}");
    }

    // -- blocking_under_lock ------------------------------------------------

    #[test]
    fn direct_blocking_call_under_guard_fires() {
        let v = run(&[(
            "crates/pmrd/src/lib.rs",
            "impl Pool {\n\
             \x20fn drain(&self) { let g = self.jobs.lock().unwrap_or_default(); g.recv(); }\n\
             }",
        )]);
        let bl = of(&v, "blocking_under_lock");
        assert_eq!(bl.len(), 1, "{v:?}");
        assert!(bl[0].message.contains("recv"), "{}", bl[0].message);
        assert!(bl[0].message.contains("Pool.jobs"), "{}", bl[0].message);
    }

    #[test]
    fn transitive_blocking_call_under_guard_fires() {
        let v = run(&[(
            "crates/pmrd/src/lib.rs",
            "impl Pool {\n\
             \x20fn persist(&self) { let g = self.state.lock().unwrap_or_default(); self.flush_disk(); }\n\
             \x20fn flush_disk(&self) { self.file.sync_all(); }\n\
             }",
        )]);
        let bl = of(&v, "blocking_under_lock");
        assert_eq!(bl.len(), 1, "{v:?}");
        assert!(bl[0].message.contains("sync_all"), "{}", bl[0].message);
        assert!(bl[0].message.contains("flush_disk"), "{}", bl[0].message);
    }

    #[test]
    fn blocking_after_guard_scope_closes_is_clean() {
        let v = run(&[(
            "crates/pmrd/src/lib.rs",
            "impl Pool {\n\
             \x20fn persist(&self) { { let g = self.state.lock().unwrap_or_default(); } self.file.sync_all(); }\n\
             }",
        )]);
        assert!(of(&v, "blocking_under_lock").is_empty(), "{v:?}");
    }

    #[test]
    fn condvar_wait_is_not_in_the_default_taxonomy() {
        // Condvar::wait releases the guard while parked; flagging it would
        // false-positive every legitimate condvar loop.
        let v = run(&[(
            "crates/pmrd/src/lib.rs",
            "impl Pool {\n\
             \x20fn idle(&self) { let g = self.state.lock().unwrap_or_default(); let g2 = self.cv.wait(g); }\n\
             }",
        )]);
        assert!(of(&v, "blocking_under_lock").is_empty(), "{v:?}");
    }

    #[test]
    fn guard_across_fetch_fires_direct_and_transitive() {
        let v = run(&[(
            "crates/storage/src/lib.rs",
            "impl Exec {\n\
             \x20fn fetch_segment(&self, k: u32) {}\n\
             \x20fn warm(&self) { self.fetch_segment(2); }\n\
             \x20fn go(&self) { let g = self.state.lock().unwrap_or_default(); self.fetch_segment(1); }\n\
             \x20fn via(&self) { let g = self.state.lock().unwrap_or_default(); self.warm(); }\n\
             \x20fn after(&self) { { let g = self.state.lock().unwrap_or_default(); } self.fetch_segment(1); }\n\
             \x20fn count(&self) { let g = self.state.lock().unwrap_or_default(); self.hits.fetch_add(1, Ordering::Relaxed); }\n\
             }",
        )]);
        let bl = of(&v, "blocking_under_lock");
        assert_eq!(bl.iter().map(|v| v.line).collect::<Vec<_>>(), vec![4, 5], "{v:?}");
        assert!(bl[0].message.contains("`fetch_segment`"), "{}", bl[0].message);
        assert!(bl[0].message.contains("Exec.state"), "{}", bl[0].message);
        assert!(bl[1].message.contains("Exec::warm"), "{}", bl[1].message);
    }

    #[test]
    fn guard_across_backoff_wait_fires() {
        let v = run(&[(
            "crates/storage/src/lib.rs",
            "fn sleep_ms(n: u64) {}\nimpl S { fn go(&self) { let g = self.a.lock().x(); loop { sleep_ms(5); } } }",
        )]);
        let bl = of(&v, "blocking_under_lock");
        assert_eq!(bl.len(), 1, "{v:?}");
        assert!(bl[0].message.contains("sleep_ms"), "{}", bl[0].message);
    }
}
