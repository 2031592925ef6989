//! Statement-level dataflow lints on top of the call graph:
//! `error_swallow` (a `Result` silently dropped on the data path) and
//! `lock_order` (lock-acquisition cycles and self-deadlocks).
//!
//! Both work on the same per-function body scan: a linear pass that
//! assigns every code token its enclosing statement start, brace depth,
//! and paren/bracket depth. That is enough to answer the questions these
//! lints ask — "is this call the whole statement?", "is this `let _ =`?",
//! "how long does this guard live?" — without a full expression parser,
//! and it degrades conservatively: a construct the scan cannot shape is
//! skipped, not guessed at.

use crate::callgraph::CallGraph;
use crate::config::in_scope;
use crate::parse::{Callee, ParsedFile};
use crate::report::Violation;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// Shared body scan

/// Per-token structural facts for one function body. Shared with the
/// taint engine in [`crate::taint`], which walks bodies the same way.
pub(crate) struct BodyScan {
    /// First code index inside the body (just after the opening `{`).
    off: usize,
    /// `stmt[ci - off]`: code index where the enclosing statement starts.
    stmt: Vec<usize>,
    /// `depth[ci - off]`: brace depth relative to the body (opening `{` of
    /// the body itself not counted; a closing `}` records the depth of the
    /// block it returns to).
    depth: Vec<usize>,
}

impl BodyScan {
    pub(crate) fn new(p: &ParsedFile, body: (usize, usize)) -> BodyScan {
        let off = body.0 + 1;
        let n = body.1.saturating_sub(off);
        let mut stmt = vec![off; n];
        let mut depth = vec![0usize; n];
        let mut d = 0usize;
        let mut pd = 0usize;
        let mut cur_start = off;
        let mut cur_pd = 0usize;
        // Saved (stmt_start, stmt_pd) per enclosing brace.
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for ci in off..body.1 {
            let t = p.ct(ci);
            if t.is_punct('}') {
                d = d.saturating_sub(1);
                if let Some((s, spd)) = stack.pop() {
                    cur_start = s;
                    cur_pd = spd;
                }
            }
            stmt[ci - off] = cur_start;
            depth[ci - off] = d;
            if t.is_punct('{') {
                d += 1;
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
        BodyScan { off, stmt, depth }
    }

    pub(crate) fn stmt_of(&self, ci: usize) -> usize {
        self.stmt.get(ci.wrapping_sub(self.off)).copied().unwrap_or(self.off)
    }

    pub(crate) fn depth_of(&self, ci: usize) -> usize {
        self.depth.get(ci.wrapping_sub(self.off)).copied().unwrap_or(0)
    }

    pub(crate) fn end(&self) -> usize {
        self.off + self.stmt.len()
    }
}

/// Walk back from the callee name token to the start of the call's
/// receiver/path expression, or `None` if the shape isn't a simple
/// `a.b.name` / `a::b::name` / `name` chain.
fn expr_start(ci: usize, callee: &Callee) -> Option<usize> {
    match callee {
        Callee::Free(_) => Some(ci),
        Callee::Path(segs) => ci.checked_sub(2 * (segs.len() - 1)),
        Callee::Method { recv, .. } => {
            let chain = recv.as_deref()?;
            let segs = chain.split('.').count();
            ci.checked_sub(2 * segs)
        }
    }
}

// ---------------------------------------------------------------------------
// error_swallow

/// `error_swallow`: data-path crates where a discarded `Result` is a
/// contract violation, not a style nit.
pub const SWALLOW_PATHS: &[&str] = &[
    "crates/codec/src",
    "crates/mgard/src",
    "crates/storage/src",
    "crates/blockcodec/src",
    "crates/core/src",
    "crates/sim/src",
    "crates/pmrd/src",
];

/// The `error_swallow` lint: `let _ = fallible()`, `.ok();` with the value
/// dropped, and bare `fallible();` statements. Resolution comes from the
/// call graph, so only calls known to return `Result` are flagged.
pub fn error_swallow(files: &[ParsedFile], graph: &CallGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        if node.is_test || !in_scope(SWALLOW_PATHS, &node.rel_path) {
            continue;
        }
        let f = &files[node.file];
        let func = &f.fns[node.fn_idx];
        let scan = BodyScan::new(f, func.body);
        let mut flagged_stmts: BTreeSet<usize> = BTreeSet::new();

        for (k, call) in func.calls.iter().enumerate() {
            let targets = &graph.call_targets[ni][k];
            let fallible = targets.iter().any(|&t| graph.nodes[t].returns_result);
            if !fallible {
                continue;
            }
            let s = scan.stmt_of(call.ci);
            // `let _ = fallible_expr();` — the binding exists to discard.
            let is_let_underscore = f.ct(s).is_ident("let")
                && f.code.get(s + 1).is_some_and(|&ti| f.toks[ti].text == "_")
                && f.code.get(s + 2).is_some_and(|&ti| f.toks[ti].is_punct('='));
            if is_let_underscore && flagged_stmts.insert(s) {
                let line = f.ct(s).line;
                out.push(Violation::new(
                    "error_swallow",
                    f.rel_path.as_str(),
                    line,
                    format!(
                        "`let _ = …` discards the `Result` of `{}`; handle it or propagate with `?`",
                        first_qual(graph, targets)
                    ),
                    f.snippet(line),
                ));
                continue;
            }
            // Bare `fallible();` statement: the call *is* the statement and
            // nothing consumes its value.
            let Some(s0) = expr_start(call.ci, &call.callee) else { continue };
            if s0 != s {
                continue;
            }
            let Some(close) = matching_close(f, call.ci + 1) else { continue };
            if f.code.get(close + 1).is_some_and(|&ti| f.toks[ti].is_punct(';'))
                && flagged_stmts.insert(s)
            {
                out.push(Violation::new(
                    "error_swallow",
                    f.rel_path.as_str(),
                    call.line,
                    format!(
                        "`{}` returns a `Result` that is silently discarded; use `?` or handle the error",
                        first_qual(graph, targets)
                    ),
                    f.snippet(call.line),
                ));
            }
        }

        // `.ok();` — converts the error to `None` and drops it, no
        // resolution needed: the form itself is the swallow.
        for ci in (func.body.0 + 1)..func.body.1 {
            let t = f.ct(ci);
            if t.is_ident("ok")
                && !f.in_test(ci)
                && ci.checked_sub(1).is_some_and(|i| f.ct(i).is_punct('.'))
                && f.code.get(ci + 1).is_some_and(|&ti| f.toks[ti].is_punct('('))
                && f.code.get(ci + 2).is_some_and(|&ti| f.toks[ti].is_punct(')'))
                && f.code.get(ci + 3).is_some_and(|&ti| f.toks[ti].is_punct(';'))
                && flagged_stmts.insert(scan.stmt_of(ci))
            {
                out.push(Violation::new(
                    "error_swallow",
                    f.rel_path.as_str(),
                    t.line,
                    "`.ok();` drops the error on the floor; handle it, log it, or propagate with `?`",
                    f.snippet(t.line),
                ));
            }
        }
    }
    out
}

fn first_qual(graph: &CallGraph, targets: &[usize]) -> String {
    targets.first().map_or_else(|| "<unresolved>".into(), |&t| graph.nodes[t].qual.clone())
}

/// Code index of the `)` matching the `(` at `open`, scanning forward.
fn matching_close(p: &ParsedFile, open: usize) -> Option<usize> {
    if !p.code.get(open).map(|&ti| &p.toks[ti]).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let mut depth = 0usize;
    for ci in open..p.code.len() {
        let t = p.ct(ci);
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(ci);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// lock_order

/// One lock acquisition site inside a function body. Shared with
/// `blocking_under_lock` in [`crate::concurrency`], which reuses the same
/// guard-liveness model.
pub(crate) struct Acquisition {
    /// Normalized lock identity: `Type.field` for `self.field.lock()`
    /// (comparable across functions), `fn_qual::chain` for locals.
    pub(crate) id: String,
    /// Code index of the `lock`/`try_lock` ident.
    pub(crate) ci: usize,
    pub(crate) line: usize,
    /// End (exclusive code index) of the guard's live range.
    pub(crate) live_end: usize,
    /// Whether the guard is `let`-bound (named, outlives the statement).
    pub(crate) let_bound: bool,
}

impl Acquisition {
    /// Code indices at which the guard is held: its live range, cut short
    /// at an explicit `drop` of a named guard.
    pub(crate) fn held<'a>(&'a self, f: &'a ParsedFile) -> impl Iterator<Item = usize> + 'a {
        (self.ci + 1..self.live_end)
            .take_while(move |&ci| !(self.let_bound && f.ct(ci).is_ident("drop")))
    }
}

/// The `lock_order` lint: cyclic acquisition orders across the workspace
/// and same-lock re-entry, direct or through a callee. (What a guard may
/// not be held *across* — fetches, backoff waits, blocking I/O — is
/// `blocking_under_lock` in [`crate::concurrency`].)
pub(crate) fn lock_order(
    files: &[ParsedFile],
    graph: &CallGraph,
    acqs: &[Vec<Acquisition>],
) -> Vec<Violation> {
    // Transitive lock sets, to fixpoint.
    let mut lock_sets: Vec<BTreeSet<String>> =
        acqs.iter().map(|a| a.iter().map(|x| x.id.clone()).collect()).collect();
    loop {
        let mut changed = false;
        for i in 0..graph.nodes.len() {
            for &m in &graph.edges[i] {
                if !lock_sets[m].is_empty() {
                    let add: Vec<String> = lock_sets[m]
                        .iter()
                        .filter(|s| !lock_sets[i].contains(*s))
                        .cloned()
                        .collect();
                    if !add.is_empty() {
                        lock_sets[i].extend(add);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    // Ordered acquisition edges: (held, acquired) → first witness site.
    let mut order_edges: BTreeMap<(String, String), (String, usize, String)> = BTreeMap::new();

    for (ni, node) in graph.nodes.iter().enumerate() {
        let f = &files[node.file];
        let func = &f.fns[node.fn_idx];
        let call_at: BTreeMap<usize, usize> =
            func.calls.iter().enumerate().map(|(k, c)| (c.ci, k)).collect();

        for a in &acqs[ni] {
            for ci in a.held(f) {
                // Nested direct acquisition.
                if let Some(b) = acqs[ni].iter().find(|b| b.ci == ci) {
                    if b.id == a.id {
                        out.push(Violation::new(
                            "lock_order",
                            f.rel_path.as_str(),
                            b.line,
                            format!(
                                "`{}` re-acquired while its guard is still held (self-deadlock)",
                                a.id
                            ),
                            f.snippet(b.line),
                        ));
                    } else {
                        order_edges.entry((a.id.clone(), b.id.clone())).or_insert((
                            f.rel_path.clone(),
                            b.line,
                            f.snippet(b.line),
                        ));
                    }
                    continue;
                }
                let Some(&k) = call_at.get(&ci) else { continue };
                let callee_name = func.calls[k].callee.name();
                if callee_name == "lock" || callee_name == "try_lock" {
                    continue; // handled as an acquisition (or unresolvable)
                }
                let targets = &graph.call_targets[ni][k];
                // Locks acquired transitively by the callee.
                for id2 in targets.iter().flat_map(|&tg| lock_sets[tg].iter()) {
                    if *id2 == a.id {
                        let line = f.ct(ci).line;
                        out.push(Violation::new(
                            "lock_order",
                            f.rel_path.as_str(),
                            line,
                            format!(
                                "guard on `{}` held across call to `{}`, which acquires \
                                 `{}` again (deadlock)",
                                a.id,
                                first_qual(graph, targets),
                                a.id
                            ),
                            f.snippet(line),
                        ));
                    } else {
                        order_edges.entry((a.id.clone(), id2.clone())).or_insert((
                            f.rel_path.clone(),
                            f.ct(ci).line,
                            f.snippet(f.ct(ci).line),
                        ));
                    }
                }
            }
        }
    }

    // Cyclic orders: edge (a, b) participates in a cycle iff b reaches a.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in order_edges.keys() {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
    }
    for ((a, b), (file, line, snippet)) in &order_edges {
        if lock_reaches(&adj, b, a) {
            out.push(Violation::new(
                "lock_order",
                file.as_str(),
                *line,
                format!(
                    "lock-order cycle: `{a}` is held while acquiring `{b}` here, but an \
                     opposite ordering exists elsewhere in the workspace"
                ),
                snippet.as_str(),
            ));
        }
    }
    out
}

fn lock_reaches(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if seen.insert(n) {
            if let Some(next) = adj.get(n) {
                stack.extend(next.iter().copied());
            }
        }
    }
    false
}

/// Every non-test function's lock acquisitions, indexed like
/// `graph.nodes` — the guard model `lock_order` and `blocking_under_lock`
/// share.
pub(crate) fn acquisitions(files: &[ParsedFile], graph: &CallGraph) -> Vec<Vec<Acquisition>> {
    (0..graph.nodes.len())
        .map(|ni| {
            let node = &graph.nodes[ni];
            if node.is_test {
                Vec::new()
            } else {
                collect_acquisitions(&files[node.file], graph, ni)
            }
        })
        .collect()
}

fn collect_acquisitions(f: &ParsedFile, graph: &CallGraph, ni: usize) -> Vec<Acquisition> {
    let node = &graph.nodes[ni];
    let func = &f.fns[node.fn_idx];
    let scan = BodyScan::new(f, func.body);
    let mut out = Vec::new();
    for call in &func.calls {
        let Callee::Method { name, recv } = &call.callee else { continue };
        if name != "lock" && name != "try_lock" {
            continue;
        }
        let Some(chain) = recv.as_deref() else { continue };
        if f.in_test(call.ci) {
            continue;
        }
        let id = normalize_lock_id(chain, node);
        let s = scan.stmt_of(call.ci);
        let let_bound = f.ct(s).is_ident("let") && {
            let name_at = if f.code.get(s + 1).is_some_and(|&ti| f.toks[ti].is_ident("mut")) {
                s + 2
            } else {
                s + 1
            };
            f.code.get(name_at).is_some_and(|&ti| {
                f.toks[ti].kind == crate::lexer::TokKind::Ident && f.toks[ti].text != "_"
            }) && f.code.get(name_at + 1).is_some_and(|&ti| f.toks[ti].is_punct('='))
        };
        let live_end = if let_bound {
            // Until the enclosing block closes.
            let d = scan.depth_of(s);
            (call.ci + 1..scan.end())
                .find(|&cj| scan.depth_of(cj) < d)
                .unwrap_or_else(|| scan.end())
        } else {
            // Temporary guard: to the end of the statement (first
            // statement-level `;`, or the enclosing block close for
            // `if let Ok(g) = m.try_lock()`-style headers).
            let d = scan.depth_of(s);
            (call.ci + 1..scan.end())
                .find(|&cj| {
                    (f.ct(cj).is_punct(';') && scan.depth_of(cj) == d && scan.stmt_of(cj) != s)
                        || (f.ct(cj).is_punct(';') && scan.stmt_of(cj) == s)
                        || scan.depth_of(cj) < d
                })
                .unwrap_or_else(|| scan.end())
        };
        out.push(Acquisition { id, ci: call.ci, line: call.line, live_end, let_bound });
    }
    out
}

/// Normalize a receiver chain to a lock identity. `self.field` becomes
/// `Type.field` (comparable across methods of the type); anything else is
/// prefixed with the function qual so distinct locals never unify.
fn normalize_lock_id(chain: &str, node: &crate::callgraph::Node) -> String {
    if let Some(rest) = chain.strip_prefix("self") {
        if let Some(t) = &node.self_type {
            return format!("{t}{rest}");
        }
    }
    format!("{}::{chain}", node.qual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CrateDeps;
    use crate::parse::parse_file;

    fn run_both(sources: &[(&str, &str)]) -> (Vec<Violation>, Vec<Violation>) {
        let mut files: Vec<ParsedFile> = sources.iter().map(|(p, s)| parse_file(p, s)).collect();
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        let graph = CallGraph::build(&files, &CrateDeps::default());
        let acqs = acquisitions(&files, &graph);
        (error_swallow(&files, &graph), lock_order(&files, &graph, &acqs))
    }

    #[test]
    fn let_underscore_on_fallible_call_fires() {
        let (es, _) = run_both(&[(
            "crates/mgard/src/lib.rs",
            "fn save() -> Result<(), E> { Ok(()) }\nfn go() { let _ = save(); }",
        )]);
        assert_eq!(es.len(), 1);
        assert!(es[0].message.contains("pmr_mgard::save"));
    }

    #[test]
    fn bare_discarded_fallible_call_fires() {
        let (es, _) = run_both(&[(
            "crates/mgard/src/lib.rs",
            "fn save() -> Result<(), E> { Ok(()) }\nfn go() { save(); }",
        )]);
        assert_eq!(es.len(), 1);
        assert!(es[0].message.contains("silently discarded"));
    }

    #[test]
    fn consumed_or_propagated_results_do_not_fire() {
        let (es, _) = run_both(&[(
            "crates/mgard/src/lib.rs",
            "fn save() -> Result<(), E> { Ok(()) }\nfn go() -> Result<(), E> { save()?; let r = save(); r }",
        )]);
        assert!(es.is_empty(), "{es:?}");
    }

    #[test]
    fn dot_ok_dropped_fires_infallible_call_does_not() {
        let (es, _) = run_both(&[(
            "crates/storage/src/lib.rs",
            "fn hint() {}\nfn go(file: &File) { file.sync_all().ok(); hint(); }",
        )]);
        assert_eq!(es.len(), 1);
        assert!(es[0].message.contains(".ok()"));
    }

    #[test]
    fn swallow_scope_is_respected() {
        let (es, _) = run_both(&[(
            "crates/nn/src/lib.rs",
            "fn save() -> Result<(), E> { Ok(()) }\nfn go() { let _ = save(); }",
        )]);
        assert!(es.is_empty());
    }

    #[test]
    fn cyclic_lock_order_fires_on_both_edges() {
        let (_, lo) = run_both(&[(
            "crates/core/src/lib.rs",
            "impl S {\n fn ab(&self) { let g = self.a.lock().x(); let h = self.b.lock().x(); }\n fn ba(&self) { let g = self.b.lock().x(); let h = self.a.lock().x(); }\n}",
        )]);
        let cycles: Vec<_> = lo.iter().filter(|v| v.message.contains("lock-order cycle")).collect();
        assert_eq!(cycles.len(), 2, "{lo:?}");
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let (_, lo) = run_both(&[(
            "crates/core/src/lib.rs",
            "impl S {\n fn ab(&self) { let g = self.a.lock().x(); let h = self.b.lock().x(); }\n fn ab2(&self) { let g = self.a.lock().x(); let h = self.b.lock().x(); }\n}",
        )]);
        assert!(lo.is_empty(), "{lo:?}");
    }

    #[test]
    fn self_deadlock_fires() {
        let (_, lo) = run_both(&[(
            "crates/core/src/lib.rs",
            "impl S { fn go(&self) { let g = self.a.lock().x(); let h = self.a.lock().x(); } }",
        )]);
        assert_eq!(lo.len(), 1);
        assert!(lo[0].message.contains("self-deadlock"));
    }

    #[test]
    fn transitive_lock_through_callee_builds_an_edge() {
        let (_, lo) = run_both(&[(
            "crates/core/src/lib.rs",
            "impl S {\n fn inner(&self) { let g = self.b.lock().x(); }\n fn outer(&self) { let g = self.a.lock().x(); self.inner(); }\n fn rev(&self) { let g = self.b.lock().x(); let h = self.a.lock().x(); }\n}",
        )]);
        let cycles: Vec<_> = lo.iter().filter(|v| v.message.contains("lock-order cycle")).collect();
        assert_eq!(cycles.len(), 2, "{lo:?}");
    }
}
