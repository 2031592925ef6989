//! Workspace-wide, module-aware call graph, and the `panic_reach` lint.
//!
//! Resolution is deliberately *asymmetric* in its approximation: a missed
//! edge only weakens a lint (a finding not reported), while an invented
//! edge produces false findings that erode trust in the gate. So names are
//! resolved conservatively — exact type-qualified matches first, then
//! module-suffix matches, then a uniqueness fallback — with one designed
//! exception: a method call whose receiver we cannot type (`store.fetch(…)`
//! through a `dyn SegmentStore`) fans out to every workspace impl of that
//! method the caller's crate can reach, because trait dispatch on the
//! storage path is exactly where panic-reachability matters most. A trait
//! method is reachable from anywhere; an inherent method only from its own
//! crate and the crates whose `Cargo.toml` depends on it, directly or not
//! ([`CrateDeps`]). Methods whose names collide with the standard library
//! (`get`, `len`, `write`, …) are excluded from that fan-out; they resolve
//! only against the caller's own type.

use crate::in_scope;
use crate::parse::{Call, Callee, ParsedFile};
use crate::report::Violation;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// `panic_reach`: library code that must route failures through `PmrError`
/// instead of panicking — every panic site in a non-test fn here is a
/// finding, reached or not. `crates/rng/src` is listed because it is the
/// one random stream, and through pmr-sim and the trained models it feeds
/// persisted artifacts.
pub const PANIC_PATHS: &[&str] = &[
    "crates/error/src",
    "crates/codec/src",
    "crates/mgard/src",
    "crates/storage/src",
    "crates/blockcodec/src",
    "crates/core/src",
    "crates/rng/src",
];

/// `panic_reach`: crates whose public entry points anchor the reachability
/// walk — a panic site transitively reachable from one is a violation even
/// outside [`PANIC_PATHS`].
pub const ENTRY_PATHS: &[&str] = &[
    "crates/core/src",
    "crates/mgard/src",
    "crates/storage/src",
    "crates/sim/src",
    "crates/pmrd/src",
    "crates/codec/src",
];

/// `panic_reach`: function-name prefixes that mark an entry point in
/// [`ENTRY_PATHS`] (e.g. `retrieve` matches `retrieve_tolerant`).
pub const ENTRY_PREFIXES: &[&str] =
    &["compress", "retrieve", "fetch", "extract_planes", "reassemble_digits", "transpose64"];

/// Method names too generic to fan out to unrelated impls: a call through
/// an untyped receiver to one of these is left unresolved rather than
/// over-approximated (exact same-type matches still resolve). The atomic
/// accessors (`load`, `store`, `swap`, `fetch_add`, ...) are here because
/// `AtomicUsize::load(Ordering)` must not alias a workspace fn that merely
/// shares the name (e.g. a model's `load` constructor).
const COMMON_METHODS: [&str; 64] = [
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "push",
    "pop",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "to_string",
    "to_vec",
    "to_owned",
    "as_ref",
    "as_mut",
    "as_slice",
    "as_bytes",
    "write",
    "write_all",
    "read",
    "read_to_end",
    "flush",
    "clear",
    "extend",
    "sort",
    "min",
    "max",
    "abs",
    "sqrt",
    "sum",
    "count",
    "collect",
    "filter",
    "fold",
    "zip",
    "rev",
    "take",
    "skip",
    "last",
    "first",
    "position",
    "find",
    "any",
    "all",
    "eq",
    "fmt",
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "compare_exchange",
];

/// How many distinct impl types an untyped method call may fan out to
/// before we declare it unresolvable (guards against flagging half the
/// workspace through one `.process()` name).
const MAX_DISPATCH_FANOUT: usize = 6;

/// One function node in the graph.
#[derive(Debug)]
pub struct Node {
    /// Index into the `files` slice the graph was built from.
    pub file: usize,
    /// Index into `files[file].fns`.
    pub fn_idx: usize,
    pub qual: String,
    pub name: String,
    pub self_type: Option<String>,
    pub inherent: bool,
    pub is_test: bool,
    pub rel_path: String,
}

/// The workspace call graph.
pub struct CallGraph {
    pub nodes: Vec<Node>,
    /// Sorted, deduped adjacency (caller → callees), non-test nodes only.
    pub edges: Vec<Vec<usize>>,
    /// Per-node, per-call resolved targets, parallel to
    /// `files[node.file].fns[node.fn_idx].calls`.
    pub call_targets: Vec<Vec<Vec<usize>>>,
}

/// The crate a workspace path belongs to: its `crates/<name>` directory,
/// or `""` for the root package.
fn crate_of(rel_path: &str) -> &str {
    match rel_path.strip_prefix("crates/").and_then(|rest| rest.find('/')) {
        Some(end) => &rel_path[..end + "crates/".len()],
        None => "",
    }
}

/// Which workspace crates each crate's code can call into: itself and
/// whatever its `Cargo.toml` `[dependencies]` reach, directly or through
/// other workspace crates. A crate without a manifest reaches only itself.
#[derive(Debug, Default)]
pub struct CrateDeps {
    reach: BTreeMap<String, BTreeSet<String>>,
}

impl CrateDeps {
    /// From the `(rel_path, contents)` of each crate's `Cargo.toml`.
    pub fn from_manifests(manifests: &[(&str, &str)]) -> CrateDeps {
        let mut dir_of: BTreeMap<String, String> = BTreeMap::new();
        let mut direct: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for &(path, src) in manifests {
            let dir = crate_of(path).to_string();
            let mut section = "";
            for line in src.lines().map(str::trim) {
                if line.starts_with('[') {
                    section = line;
                    continue;
                }
                let key = line.split(['=', '.', ' ']).next().unwrap_or_default();
                if key.is_empty() || key.starts_with('#') {
                    continue;
                }
                match section {
                    "[package]" if key == "name" => {
                        if let Some(name) = line.split('"').nth(1) {
                            dir_of.insert(name.to_string(), dir.clone());
                        }
                    }
                    "[dependencies]" => {
                        direct.entry(dir.clone()).or_default().push(key.to_string())
                    }
                    _ => {}
                }
            }
        }
        let mut reach = BTreeMap::new();
        for from in direct.keys() {
            let mut seen: BTreeSet<String> = BTreeSet::new();
            let mut todo = vec![from.clone()];
            while let Some(dir) = todo.pop() {
                for dep in direct.get(&dir).into_iter().flatten() {
                    if let Some(to) = dir_of.get(dep) {
                        if seen.insert(to.clone()) {
                            todo.push(to.clone());
                        }
                    }
                }
            }
            reach.insert(from.clone(), seen);
        }
        CrateDeps { reach }
    }

    /// May code at `from` call an inherent method defined at `to`?
    fn sees(&self, from: &str, to: &str) -> bool {
        let (from, to) = (crate_of(from), crate_of(to));
        from == to || self.reach.get(from).is_some_and(|r| r.contains(to))
    }
}

/// Multi-source BFS result: distance and parent pointers for shortest
/// entry→node chains.
pub struct Reach {
    pub dist: Vec<Option<u32>>,
    parent: Vec<Option<usize>>,
}

impl CallGraph {
    /// Build the graph over `files` (already sorted by `rel_path` — node
    /// and edge order inherit that determinism), linking untyped method
    /// calls to inherent methods only where `deps` allows.
    pub fn build(files: &[ParsedFile], deps: &CrateDeps) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for (k, func) in f.fns.iter().enumerate() {
                nodes.push(Node {
                    file: fi,
                    fn_idx: k,
                    qual: func.qual(&f.module),
                    name: func.name.clone(),
                    self_type: func.self_type.clone(),
                    inherent: func.inherent,
                    is_test: func.is_test,
                    rel_path: f.rel_path.clone(),
                });
            }
        }

        // Name indexes over non-test nodes.
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut method_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut type_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if n.is_test {
                continue;
            }
            by_qual.entry(n.qual.as_str()).or_default().push(i);
            match &n.self_type {
                None => free_by_name.entry(n.name.as_str()).or_default().push(i),
                Some(t) => {
                    method_by_name.entry(n.name.as_str()).or_default().push(i);
                    type_method.entry((t.as_str(), n.name.as_str())).or_default().push(i);
                }
            }
        }

        // Per-file use maps: alias → path segments.
        let use_maps: Vec<BTreeMap<&str, &[String]>> = files
            .iter()
            .map(|f| {
                f.uses
                    .iter()
                    .map(|u| (u.alias.as_str(), u.path.as_slice()))
                    .collect::<BTreeMap<_, _>>()
            })
            .collect();

        let ix = Indexes { free_by_name, method_by_name, type_method, by_qual, use_maps, deps };

        let mut edges = vec![Vec::new(); nodes.len()];
        let mut call_targets = vec![Vec::new(); nodes.len()];
        for i in 0..nodes.len() {
            if nodes[i].is_test {
                let ncalls = files[nodes[i].file].fns[nodes[i].fn_idx].calls.len();
                call_targets[i] = vec![Vec::new(); ncalls];
                continue;
            }
            let func = &files[nodes[i].file].fns[nodes[i].fn_idx];
            let mut per_call = Vec::with_capacity(func.calls.len());
            for call in &func.calls {
                let targets = resolve(&nodes, &ix, files, i, call);
                edges[i].extend(targets.iter().copied());
                per_call.push(targets);
            }
            edges[i].sort_unstable();
            edges[i].dedup();
            call_targets[i] = per_call;
        }
        CallGraph { nodes, edges, call_targets }
    }

    /// Entry-point node ids for the panic-reachability walk, sorted.
    pub fn entries(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| {
                let n = &self.nodes[i];
                !n.is_test
                    && in_scope(ENTRY_PATHS, &n.rel_path)
                    && ENTRY_PREFIXES.iter().any(|p| n.name.starts_with(p))
            })
            .collect()
    }

    /// Multi-source BFS from `entries` (must be sorted for determinism).
    pub fn reachable_from(&self, entries: &[usize]) -> Reach {
        let mut dist = vec![None; self.nodes.len()];
        let mut parent = vec![None; self.nodes.len()];
        let mut q = VecDeque::new();
        for &e in entries {
            if dist[e].is_none() {
                dist[e] = Some(0);
                q.push_back(e);
            }
        }
        while let Some(n) = q.pop_front() {
            let d = dist[n].unwrap_or(0);
            for &m in &self.edges[n] {
                if dist[m].is_none() {
                    dist[m] = Some(d + 1);
                    parent[m] = Some(n);
                    q.push_back(m);
                }
            }
        }
        Reach { dist, parent }
    }

    /// The shortest entry→…→`node` chain, rendered as ` → `-joined quals
    /// (middle elided past five hops).
    pub fn chain(&self, reach: &Reach, node: usize) -> String {
        let mut ids = vec![node];
        let mut cur = node;
        while let Some(p) = reach.parent[cur] {
            ids.push(p);
            cur = p;
        }
        ids.reverse();
        let quals: Vec<&str> = ids.iter().map(|&i| self.nodes[i].qual.as_str()).collect();
        if quals.len() <= 5 {
            quals.join(" → ")
        } else {
            format!(
                "{} → {} → … → {} → {}",
                quals[0],
                quals[1],
                quals[quals.len() - 2],
                quals[quals.len() - 1]
            )
        }
    }
}

struct Indexes<'a> {
    free_by_name: BTreeMap<&'a str, Vec<usize>>,
    method_by_name: BTreeMap<&'a str, Vec<usize>>,
    type_method: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    by_qual: BTreeMap<&'a str, Vec<usize>>,
    use_maps: Vec<BTreeMap<&'a str, &'a [String]>>,
    deps: &'a CrateDeps,
}

fn resolve(
    nodes: &[Node],
    ix: &Indexes<'_>,
    files: &[ParsedFile],
    caller: usize,
    call: &Call,
) -> Vec<usize> {
    match &call.callee {
        Callee::Method { name, recv } => resolve_method(nodes, ix, caller, name, recv.as_deref()),
        Callee::Free(name) => {
            // A `use`-imported function shadows same-file lookup.
            if let Some(path) = ix.use_maps[nodes[caller].file].get(name.as_str()) {
                let segs: Vec<String> = path.to_vec();
                let r = resolve_path(nodes, ix, files, caller, &segs);
                if !r.is_empty() {
                    return r;
                }
            }
            // Same-file free functions first (the overwhelmingly common
            // helper pattern), then a workspace-unique fallback.
            let candidates = ix.free_by_name.get(name.as_str()).map_or(&[][..], Vec::as_slice);
            let local: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| nodes[i].file == nodes[caller].file)
                .collect();
            if !local.is_empty() {
                return local;
            }
            if candidates.len() == 1 {
                return candidates.to_vec();
            }
            Vec::new()
        }
        Callee::Path(segs) => resolve_path(nodes, ix, files, caller, segs),
    }
}

fn resolve_method(
    nodes: &[Node],
    ix: &Indexes<'_>,
    caller: usize,
    name: &str,
    recv: Option<&str>,
) -> Vec<usize> {
    let Some(candidates) = ix.method_by_name.get(name) else { return Vec::new() };
    // `self.method()` resolves against the caller's own impl type first.
    if recv == Some("self") {
        if let Some(t) = &nodes[caller].self_type {
            if let Some(exact) = ix.type_method.get(&(t.as_str(), name)) {
                return exact.clone();
            }
        }
    }
    if COMMON_METHODS.contains(&name) {
        return Vec::new();
    }
    // Untyped receiver: fan out to every impl of this method name the
    // caller's crate can reach, unless the name is so widely implemented
    // the fan-out would be noise.
    let from = &nodes[caller].rel_path;
    let visible: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| !nodes[i].inherent || ix.deps.sees(from, &nodes[i].rel_path))
        .collect();
    let mut types: Vec<&str> =
        visible.iter().filter_map(|&i| nodes[i].self_type.as_deref()).collect();
    types.sort_unstable();
    types.dedup();
    if types.len() <= MAX_DISPATCH_FANOUT {
        visible
    } else {
        Vec::new()
    }
}

fn resolve_path(
    nodes: &[Node],
    ix: &Indexes<'_>,
    files: &[ParsedFile],
    caller: usize,
    segs: &[String],
) -> Vec<usize> {
    if segs.is_empty() {
        return Vec::new();
    }
    let file = &files[nodes[caller].file];
    // Expand the leading segment: `crate`/`self`/`super` or a use alias.
    let mut full: Vec<String> = Vec::new();
    match segs[0].as_str() {
        "crate" => {
            full.extend(file.module.first().cloned());
            full.extend(segs[1..].iter().cloned());
        }
        "self" => {
            full.extend(file.module.iter().cloned());
            full.extend(segs[1..].iter().cloned());
        }
        "super" => {
            let keep = file.module.len().saturating_sub(1);
            full.extend(file.module[..keep].iter().cloned());
            full.extend(segs[1..].iter().cloned());
        }
        first => {
            if let Some(mapped) = ix.use_maps[nodes[caller].file].get(first) {
                full.extend(mapped.iter().cloned());
                full.extend(segs[1..].iter().cloned());
            } else {
                full.extend(segs.iter().cloned());
            }
        }
    }
    if full.is_empty() {
        return Vec::new();
    }
    let name = full.last().cloned().unwrap_or_default();
    // `Type::method` / `Self::method`: second-to-last segment capitalized.
    if full.len() >= 2 {
        let qualifier = full[full.len() - 2].clone();
        if qualifier.chars().next().is_some_and(char::is_uppercase) {
            let ty = if qualifier == "Self" {
                match &nodes[caller].self_type {
                    Some(t) => t.clone(),
                    None => return Vec::new(),
                }
            } else {
                qualifier
            };
            return ix.type_method.get(&(ty.as_str(), name.as_str())).cloned().unwrap_or_default();
        }
    }
    // Free function: exact qual, then module-suffix, then unique-name.
    let joined = full.join("::");
    if let Some(exact) = ix.by_qual.get(joined.as_str()) {
        let frees: Vec<usize> =
            exact.iter().copied().filter(|&i| nodes[i].self_type.is_none()).collect();
        if !frees.is_empty() {
            return frees;
        }
    }
    if full.len() >= 2 {
        let suffix = format!("::{}::{}", full[full.len() - 2], name);
        let matches: Vec<usize> = ix
            .free_by_name
            .get(name.as_str())
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .copied()
            .filter(|&i| nodes[i].qual.ends_with(&suffix))
            .collect();
        if !matches.is_empty() {
            return matches;
        }
    }
    let candidates = ix.free_by_name.get(name.as_str()).map_or(&[][..], Vec::as_slice);
    if candidates.len() == 1 {
        return candidates.to_vec();
    }
    Vec::new()
}

/// The `panic_reach` lint: every panic-capable site in a function under
/// [`PANIC_PATHS`], or transitively reachable from a configured entry point
/// wherever it sits — reported at the site with the shortest entry chain
/// (just the function itself when only its path puts it in scope).
pub fn panic_reach(files: &[ParsedFile], graph: &CallGraph) -> Vec<Violation> {
    let entries = graph.entries();
    let reach = graph.reachable_from(&entries);
    let mut out = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if node.is_test || !(in_scope(PANIC_PATHS, &node.rel_path) || reach.dist[i].is_some()) {
            continue;
        }
        let f = &files[node.file];
        for site in &f.fns[node.fn_idx].panics {
            out.push(Violation::new(
                "panic_reach",
                f.rel_path.as_str(),
                site.line,
                format!(
                    "panic-capable `{}` on an error-contract path ({}); return `PmrError` \
                     instead",
                    site.form,
                    graph.chain(&reach, i)
                ),
                f.snippet(site.line),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn build(sources: &[(&str, &str)]) -> (Vec<ParsedFile>, CallGraph) {
        let mut files: Vec<ParsedFile> = sources.iter().map(|(p, s)| parse_file(p, s)).collect();
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        let graph = CallGraph::build(&files, &CrateDeps::default());
        (files, graph)
    }

    fn node(g: &CallGraph, qual: &str) -> usize {
        g.nodes.iter().position(|n| n.qual == qual).unwrap_or_else(|| panic!("no node {qual}"))
    }

    #[test]
    fn cross_crate_free_call_resolves_via_use() {
        let (_, g) = build(&[
            ("crates/a/src/lib.rs", "use pmr_b::helper;\nfn go() { helper(); }"),
            ("crates/b/src/lib.rs", "pub fn helper() {}"),
        ]);
        let go = node(&g, "pmr_a::go");
        let helper = node(&g, "pmr_b::helper");
        assert_eq!(g.edges[go], vec![helper]);
    }

    #[test]
    fn module_path_call_resolves_by_suffix() {
        let (_, g) = build(&[
            ("crates/a/src/lib.rs", "fn go() { io::save(1); }"),
            ("crates/b/src/io.rs", "pub fn save(x: u32) {}"),
        ]);
        assert_eq!(g.edges[node(&g, "pmr_a::go")], vec![node(&g, "pmr_b::io::save")]);
    }

    #[test]
    fn untyped_method_call_fans_out_to_all_impls() {
        let (_, g) = build(&[
            ("crates/a/src/lib.rs", "fn go(s: &dyn Store) { s.fetch(0); }"),
            (
                "crates/b/src/lib.rs",
                "impl Store for Mem { fn fetch(&self, k: u32) {} }\n\
                 impl Store for Disk { fn fetch(&self, k: u32) {} }",
            ),
        ]);
        let go = node(&g, "pmr_a::go");
        assert_eq!(g.edges[go].len(), 2);
    }

    #[test]
    fn an_inherent_method_is_reached_only_from_crates_that_depend_on_it() {
        // `pmr-error` and `pmr-json` share a method name and neither depends
        // on the other: the reader's `u8` must not reach json's panic.
        let pmrd = (
            "crates/pmrd/Cargo.toml",
            "[package]\nname = \"pmr-pmrd\"\n\n[dependencies]\npmr-error.workspace = true\n",
        );
        let error = ("crates/error/Cargo.toml", "[package]\nname = \"pmr-error\"\n");
        let json = ("crates/json/Cargo.toml", "[package]\nname = \"pmr-json\"\n");
        let sources = [
            (
                "crates/pmrd/src/lib.rs",
                "pub fn fetch_frame(r: &mut ByteReader) { r.u8(); }\n\
                 pub fn fetch_list(p: &mut Parser) { p.array(); }",
            ),
            (
                "crates/error/src/lib.rs",
                "impl ByteReader {\n    pub fn u8(&mut self) { self.buf.array(); }\n}",
            ),
            (
                "crates/json/src/lib.rs",
                "impl Parser {\n    fn array(&mut self) { panic!(\"bad\"); }\n}",
            ),
        ];
        let report = crate::analyze_sources([pmrd, error, json].into_iter().chain(sources));
        assert_eq!(report.count("panic_reach"), 0, "{}", report.summary());

        // Once `pmr-error` depends on `pmr-json`, the call may land there.
        let error = (
            "crates/error/Cargo.toml",
            "[package]\nname = \"pmr-error\"\n[dependencies]\npmr-json = { path = \"../json\" }\n",
        );
        let report = crate::analyze_sources([pmrd, error, json].into_iter().chain(sources));
        assert_eq!(report.count("panic_reach"), 1, "{}", report.summary());
        let v = &report.violations[0];
        assert_eq!(v.file, "crates/json/src/lib.rs");
        // Reach is transitive: pmrd calls into json through error's edge.
        assert!(v.message.contains("(pmr_pmrd::fetch_list → pmr_json::Parser::array)"), "{v:?}");
    }

    #[test]
    fn common_method_names_do_not_fan_out() {
        let (_, g) = build(&[
            ("crates/a/src/lib.rs", "fn go(v: &Thing) { v.get(0); }"),
            ("crates/b/src/lib.rs", "impl Other { fn get(&self, k: u32) {} }"),
        ]);
        assert!(g.edges[node(&g, "pmr_a::go")].is_empty());
    }

    #[test]
    fn self_method_resolves_to_own_impl_even_for_common_names() {
        let (_, g) = build(&[(
            "crates/a/src/lib.rs",
            "impl T { fn get(&self, k: u32) {} fn go(&self) { self.get(1); } }",
        )]);
        assert_eq!(g.edges[node(&g, "pmr_a::T::go")], vec![node(&g, "pmr_a::T::get")]);
    }

    #[test]
    fn panic_reach_reports_transitive_sites_with_chain() {
        let (files, g) = build(&[
            (
                "crates/sim/src/lib.rs",
                "pub fn retrieve() { step(); }\nfn step() { helper(); }\nfn helper(x: Option<u8>) { x.unwrap(); }",
            ),
            // Not reachable from any entry: no finding.
            ("crates/sim/src/other.rs", "fn lonely() { panic!(\"x\"); }"),
        ]);
        let v = panic_reach(&files, &g);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "panic_reach");
        assert!(v[0].message.contains("pmr_sim::retrieve → pmr_sim::step → pmr_sim::helper"));
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn panic_reach_reports_every_site_under_panic_paths() {
        let (files, g) = build(&[
            // core is a `PANIC_PATHS` crate: no entry needs to reach the fn.
            ("crates/core/src/lib.rs", "fn lonely() { panic!(\"x\"); }"),
            // Scope does not propagate: nn is judged by reachability alone.
            ("crates/nn/src/lib.rs", "pub fn fit(x: Option<u8>) { x.unwrap(); }"),
        ]);
        let v = panic_reach(&files, &g);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, "crates/core/src/lib.rs");
        assert!(v[0].message.contains("(pmr_core::lonely)"), "{}", v[0].message);
    }

    #[test]
    fn entries_respect_paths_and_prefixes() {
        let (_, g) = build(&[
            ("crates/core/src/lib.rs", "pub fn retrieve() {}\npub fn other() {}"),
            ("crates/nn/src/lib.rs", "pub fn retrieve_model() {}"),
        ]);
        let entries = g.entries();
        // core retrieve qualifies; core other (name) and nn (path) do not.
        assert_eq!(entries, vec![node(&g, "pmr_core::retrieve")]);
    }
}
