//! `blocking_under_lock`: a blocking-call taxonomy — named I/O and wait
//! calls, segment fetches, backoff helpers — resolved interprocedurally and
//! checked against live guards.
//!
//! It reuses the guard model built for `lock_order` in [`crate::dataflow`]:
//! the acquisition sites and liveness ranges are the "what is held here"
//! oracle. A guard the model does not see (an acquisition not spelled
//! `.lock()`/`.try_lock()`) can only *miss* a finding, never invent one.

use crate::callgraph::CallGraph;
use crate::dataflow::Acquisition;
use crate::parse::ParsedFile;
use crate::report::Violation;
use std::collections::{BTreeMap, BTreeSet};

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

/// Atomic read-modify-writes: named `fetch_*`, but they never block.
const ATOMIC_FETCHES: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// Call names that block without being listed in [`BLOCKING_CALLS`]: a
/// segment fetch (`fetch*`, the atomic RMWs aside) and the retry/backoff
/// helpers (`*sleep*`, `*retry*`, `*backoff*`) — a guard held across either
/// stalls every peer for a storage round-trip or a backoff interval.
fn blocks_by_shape(name: &str) -> bool {
    (name.starts_with("fetch") && !ATOMIC_FETCHES.contains(&name))
        || ["sleep", "retry", "backoff"].iter().any(|m| name.contains(m))
}

/// The `blocking_under_lock` lint: flag calls in a guard's live range that
/// are in the blocking-call taxonomy ([`BLOCKING_CALLS`] by name,
/// [`blocks_by_shape`] by shape), directly or through any resolved callee
/// (computed as a reachability fixpoint over the call graph, carrying the
/// name of the witnessing blocking call).
pub(crate) fn blocking_under_lock(
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
    use crate::callgraph::CrateDeps;
    use crate::parse::parse_file;

    fn run(sources: &[(&str, &str)]) -> Vec<Violation> {
        let mut files: Vec<ParsedFile> = sources.iter().map(|(p, s)| parse_file(p, s)).collect();
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        let graph = CallGraph::build(&files, &CrateDeps::default());
        let acqs = crate::dataflow::acquisitions(&files, &graph);
        blocking_under_lock(&files, &graph, &acqs)
    }

    fn of<'a>(v: &'a [Violation], lint: &str) -> Vec<&'a Violation> {
        v.iter().filter(|x| x.lint == lint).collect()
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
