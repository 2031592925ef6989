//! A lightweight Rust item parser built on [`crate::lexer`].
//!
//! The interprocedural taint lints need more than a token stream: they
//! need to know *which function* a token belongs to and what that function
//! calls. This module produces exactly that — a per-file item tree of
//! functions with their call sites and enclosing module/impl context — without pulling in `syn` (the workspace
//! builds offline). It is deliberately a *recognizer*, not a full parser:
//! constructs it does not understand are skipped, never mis-attributed,
//! so the analysis stays conservative (it may miss an edge, it does not
//! invent one).

use crate::lexer::{lex, Tok, TokKind};

/// One parsed source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// Module path of the file itself, e.g. `["pmr_mgard", "compress"]`.
    /// Derived from the path: `crates/<dir>/src/foo.rs` → `pmr_<dir>::foo`.
    pub module: Vec<String>,
    /// The full token stream, comments included.
    pub toks: Vec<Tok>,
    /// Indices into `toks` of the code tokens (comments stripped).
    pub code: Vec<usize>,
    /// Every function (free fns, methods, trait default methods).
    pub fns: Vec<FnInfo>,
    /// `use` imports: alias → full path segments.
    pub uses: Vec<UseImport>,
    /// Trimmed source lines, for violation snippets (index = line - 1).
    pub lines: Vec<String>,
}

/// One `use` leaf: `use a::b::c as d` records alias `d` → `[a, b, c]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseImport {
    pub alias: String,
    pub path: Vec<String>,
}

/// One function item with everything the interprocedural lints consume.
#[derive(Debug)]
pub struct FnInfo {
    pub name: String,
    /// The `impl`/`trait` type the fn is defined on, if any.
    pub self_type: Option<String>,
    /// Defined in an inherent `impl Type` block: callable only as that
    /// type's method, never through a trait.
    pub inherent: bool,
    /// Inline `mod` path inside the file (excludes the file module path).
    pub mods: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Inside a `#[cfg(test)]` / `#[test]` region.
    pub is_test: bool,
    /// Parameter binding names in declaration order (`self` excluded).
    /// Only simple `name: Type` bindings are captured; idents bound inside
    /// tuple/struct patterns are skipped — conservative for the taint
    /// engine (a missed binding weakens a lint, never invents a finding).
    pub params: Vec<String>,
    /// Code-index range of the body, `[open_brace, close_brace]` inclusive.
    pub body: (usize, usize),
    /// Calls made inside the body, in source order.
    pub calls: Vec<Call>,
}

impl FnInfo {
    /// Fully qualified display name: `module::Type::name` or `module::name`.
    pub fn qual(&self, file_module: &[String]) -> String {
        let mut segs: Vec<&str> = file_module.iter().map(String::as_str).collect();
        segs.extend(self.mods.iter().map(String::as_str));
        if let Some(t) = &self.self_type {
            segs.push(t);
        }
        segs.push(&self.name);
        segs.join("::")
    }
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct Call {
    pub callee: Callee,
    /// Code-token index of the callee name token.
    pub ci: usize,
    pub line: usize,
}

/// How the callee is written at the call site.
#[derive(Debug)]
pub enum Callee {
    /// `foo(...)` — a bare name.
    Free(String),
    /// `a::b::foo(...)` — path segments, `foo` last.
    Path(Vec<String>),
    /// `recv.foo(...)` — `recv` is the receiver chain when it is a simple
    /// `self.a.b` / `name` chain, `None` for computed receivers.
    Method { name: String, recv: Option<String> },
}

impl Callee {
    pub fn name(&self) -> &str {
        match self {
            Callee::Free(n) => n,
            Callee::Path(p) => p.last().map_or("", String::as_str),
            Callee::Method { name, .. } => name,
        }
    }
}

/// Words that can precede `(` without being a call.
const NON_CALL_WORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "let", "in", "as", "move", "ref", "loop", "else",
    "where", "fn",
];

/// Derive the module path of a file from its workspace-relative path.
/// `crates/mgard/src/compress.rs` → `["pmr_mgard", "compress"]`;
/// `src/lib.rs` → `["pmr"]`; `mod.rs` and `lib.rs` add no segment.
pub fn module_path_of(rel_path: &str) -> Vec<String> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (krate, rest) = if parts.first() == Some(&"crates") && parts.get(2) == Some(&"src") {
        (format!("pmr_{}", parts.get(1).copied().unwrap_or("unknown")), &parts[3..])
    } else if parts.first() == Some(&"src") {
        ("pmr".to_string(), &parts[1..])
    } else {
        ("pmr_unknown".to_string(), &parts[..0])
    };
    let mut module = vec![krate];
    for (i, part) in rest.iter().enumerate() {
        let is_file = i + 1 == rest.len();
        if is_file {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if stem != "lib" && stem != "mod" && stem != "main" {
                module.push(stem.to_string());
            }
        } else {
            module.push((*part).to_string());
        }
    }
    module
}

/// Parse one file into its item tree.
pub fn parse_file(rel_path: &str, src: &str) -> ParsedFile {
    let toks = lex(src);
    let test_mask = test_region_mask(&toks);
    let code: Vec<usize> = (0..toks.len()).filter(|&i| toks[i].is_code()).collect();
    let lines: Vec<String> = src.lines().map(|l| l.trim().to_string()).collect();

    let mut p = Parser {
        toks: &toks,
        code: &code,
        test_mask: &test_mask,
        fns: Vec::new(),
        uses: Vec::new(),
    };
    p.run();

    ParsedFile {
        rel_path: rel_path.to_string(),
        module: module_path_of(rel_path),
        fns: p.fns,
        uses: p.uses,
        toks,
        code,
        lines,
    }
}

impl ParsedFile {
    /// The code token at code index `ci`.
    pub fn ct(&self, ci: usize) -> &Tok {
        &self.toks[self.code[ci]]
    }

    /// Trimmed source line `line` (1-based), empty if out of range.
    pub fn snippet(&self, line: usize) -> String {
        self.lines.get(line.saturating_sub(1)).cloned().unwrap_or_default()
    }
}

/// What an item header has announced, pending its `{`.
enum Pending {
    Mod(String),
    /// An `impl`/`trait` block's type, and whether the block is inherent.
    Type(String, bool),
    Fn(Box<FnHeader>),
    /// `impl` of a type we could not name (e.g. `impl Trait for &mut T`).
    AnonType,
}

struct FnHeader {
    name: String,
    line: usize,
    is_test: bool,
    params: Vec<String>,
}

/// One open brace on the scope stack.
enum Frame {
    Mod(String),
    Type(String, bool),
    /// Index into `fns`; body close is recorded on pop.
    Fn(usize),
    Plain,
}

struct Parser<'a> {
    toks: &'a [Tok],
    code: &'a [usize],
    test_mask: &'a [bool],
    fns: Vec<FnInfo>,
    uses: Vec<UseImport>,
}

impl Parser<'_> {
    fn ct(&self, ci: usize) -> Option<&Tok> {
        self.code.get(ci).map(|&ti| &self.toks[ti])
    }

    fn is_test_at(&self, ci: usize) -> bool {
        self.code.get(ci).is_some_and(|&ti| self.test_mask[ti])
    }

    fn run(&mut self) {
        let mut stack: Vec<Frame> = Vec::new();
        let mut pending: Option<Pending> = None;
        // Stack of indices into `fns` for currently-open fn bodies
        // (innermost last); nested fns attribute sites to the innermost.
        let mut open_fns: Vec<usize> = Vec::new();
        let mut ci = 0usize;
        while let Some(t) = self.ct(ci) {
            // Attributes never contain calls we care about; skip to `]`.
            if t.is_punct('#') && self.ct(ci + 1).is_some_and(|n| n.is_punct('[')) {
                let mut depth = 0usize;
                let mut j = ci + 1;
                while let Some(t) = self.ct(j) {
                    if t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                ci = j + 1;
                continue;
            }

            if t.kind == TokKind::Ident && open_fns.is_empty() {
                match t.text.as_str() {
                    "use" => {
                        ci = self.parse_use(ci);
                        continue;
                    }
                    "mod" => {
                        if let Some(name) = self.ct(ci + 1).filter(|n| n.kind == TokKind::Ident) {
                            pending = Some(Pending::Mod(name.text.clone()));
                            ci += 2;
                            continue;
                        }
                    }
                    "impl" | "trait" => {
                        let (p, next) = self.parse_type_header(ci);
                        pending = Some(p);
                        ci = next;
                        continue;
                    }
                    _ => {}
                }
            }
            if t.is_ident("fn") && self.ct(ci + 1).is_some_and(|n| n.kind == TokKind::Ident) {
                let (header, next) = self.parse_fn_header(ci);
                pending = Some(Pending::Fn(Box::new(header)));
                ci = next;
                continue;
            }

            if t.is_punct('{') {
                let frame = match pending.take() {
                    Some(Pending::Mod(m)) => Frame::Mod(m),
                    Some(Pending::Type(t, inherent)) => Frame::Type(t, inherent),
                    Some(Pending::AnonType) => Frame::Plain,
                    Some(Pending::Fn(h)) => {
                        let (self_type, inherent) = stack
                            .iter()
                            .rev()
                            .find_map(|f| match f {
                                Frame::Type(t, inherent) => Some((t.clone(), *inherent)),
                                _ => None,
                            })
                            .unzip();
                        let mods = stack
                            .iter()
                            .filter_map(|f| match f {
                                Frame::Mod(m) => Some(m.clone()),
                                _ => None,
                            })
                            .collect();
                        self.fns.push(FnInfo {
                            name: h.name,
                            self_type,
                            inherent: inherent.unwrap_or(false),
                            mods,
                            line: h.line,
                            is_test: h.is_test,
                            params: h.params,
                            body: (ci, ci),
                            calls: Vec::new(),
                        });
                        open_fns.push(self.fns.len() - 1);
                        Frame::Fn(self.fns.len() - 1)
                    }
                    None => Frame::Plain,
                };
                stack.push(frame);
                ci += 1;
                continue;
            }
            if t.is_punct('}') {
                if let Some(Frame::Fn(idx)) = stack.pop() {
                    self.fns[idx].body.1 = ci;
                    open_fns.pop();
                }
                ci += 1;
                continue;
            }
            if t.is_punct(';') {
                pending = None; // bodyless item: `mod x;`, trait fn decl
                ci += 1;
                continue;
            }

            // Inside a fn body: record calls.
            if let Some(&fi) = open_fns.last() {
                if t.kind == TokKind::Ident {
                    self.scan_site(ci, fi);
                }
            }
            ci += 1;
        }
    }

    /// Record a call at ident code-index `ci` for fn `fi`.
    fn scan_site(&mut self, ci: usize, fi: usize) {
        let t = self.ct(ci).expect("caller checked");
        let line = t.line;
        let name = t.text.clone();
        let next_is = |c: char| self.ct(ci + 1).is_some_and(|n| n.is_punct(c));
        let prev_is =
            |c: char| ci.checked_sub(1).and_then(|i| self.ct(i)).is_some_and(|p| p.is_punct(c));

        if !next_is('(') {
            return;
        }
        if NON_CALL_WORDS.contains(&name.as_str()) {
            return;
        }
        if prev_is('.') {
            let recv = self.receiver_chain(ci);
            self.fns[fi].calls.push(Call { callee: Callee::Method { name, recv }, ci, line });
            return;
        }
        if prev_is(':') && ci >= 2 && self.ct(ci - 2).is_some_and(|p| p.is_punct(':')) {
            let mut segs = vec![name];
            let mut j = ci;
            while j >= 2
                && self.ct(j - 1).is_some_and(|p| p.is_punct(':'))
                && self.ct(j - 2).is_some_and(|p| p.is_punct(':'))
            {
                // Generic turbofish (`Vec::<u8>::new`) or a non-ident head
                // ends the chain.
                match j.checked_sub(3).and_then(|i| self.ct(i)) {
                    Some(p) if p.kind == TokKind::Ident => {
                        segs.push(p.text.clone());
                        j -= 3;
                    }
                    _ => break,
                }
            }
            segs.reverse();
            self.fns[fi].calls.push(Call { callee: Callee::Path(segs), ci, line });
            return;
        }
        self.fns[fi].calls.push(Call { callee: Callee::Free(name), ci, line });
    }

    /// The receiver chain of a method call whose name token is at `ci`:
    /// `self.attempts.lock()` → `Some("self.attempts")`. `None` when the
    /// receiver is computed (`foo().bar()`, `(a + b).c()`, indexing, ...).
    fn receiver_chain(&self, ci: usize) -> Option<String> {
        let mut segs: Vec<String> = Vec::new();
        let mut j = ci.checked_sub(1)?; // the `.` before the name
        loop {
            if !self.ct(j).is_some_and(|p| p.is_punct('.')) {
                break;
            }
            let prev = j.checked_sub(1).and_then(|i| self.ct(i))?;
            if prev.kind != TokKind::Ident {
                return None; // `)`, `]`, literal — computed receiver
            }
            segs.push(prev.text.clone());
            match j.checked_sub(2) {
                Some(i) => j = i,
                None => break,
            }
        }
        // The chain must start at an identifier boundary, not continue a
        // path/field of something computed (`x().y.z()` is caught above).
        segs.reverse();
        if segs.is_empty() {
            None
        } else {
            Some(segs.join("."))
        }
    }

    /// Parse `use a::b::{c, d as e};` starting at the `use` keyword; returns
    /// the code index just past the terminating `;`.
    fn parse_use(&mut self, ci: usize) -> usize {
        // Collect the token span of the statement.
        let mut end = ci;
        while let Some(t) = self.ct(end) {
            if t.is_punct(';') {
                break;
            }
            end += 1;
        }
        let mut imports = Vec::new();
        self.use_tree(ci + 1, end, &mut Vec::new(), &mut imports);
        self.uses.extend(imports);
        end + 1
    }

    /// Recursive descent over a use tree in code-index range `[i, end)`,
    /// with `prefix` segments accumulated so far.
    fn use_tree(
        &self,
        mut i: usize,
        end: usize,
        prefix: &mut Vec<String>,
        out: &mut Vec<UseImport>,
    ) {
        let depth0 = prefix.len();
        let mut last: Option<String> = None;
        while i < end {
            let Some(t) = self.ct(i) else { break };
            if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "pub" | "crate" | "self" | "super" => {}
                    "as" => {
                        // `x as y`: alias is the next ident.
                        if let Some(alias) = self.ct(i + 1).filter(|n| n.kind == TokKind::Ident) {
                            if let Some(l) = last.take() {
                                prefix.push(l);
                                out.push(UseImport {
                                    alias: alias.text.clone(),
                                    path: prefix.clone(),
                                });
                                prefix.pop();
                            }
                            i += 2;
                            continue;
                        }
                    }
                    _ => last = Some(t.text.clone()),
                }
                i += 1;
                continue;
            }
            if t.is_punct(':') {
                // `::` — push the pending segment onto the prefix.
                if let Some(l) = last.take() {
                    prefix.push(l);
                }
                i += 1;
                continue;
            }
            if t.is_punct(',') {
                if let Some(l) = last.take() {
                    prefix.push(l);
                    out.push(UseImport {
                        alias: prefix.last().cloned().unwrap_or_default(),
                        path: prefix.clone(),
                    });
                    prefix.pop();
                }
                prefix.truncate(depth0);
                i += 1;
                continue;
            }
            if t.is_punct('{') {
                // Group: recurse over the braced range with current prefix.
                let mut depth = 0usize;
                let mut j = i;
                while j < end {
                    let Some(t) = self.ct(j) else { break };
                    if t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                self.group_items(i + 1, j, prefix, out);
                i = j + 1;
                last = None;
                continue;
            }
            i += 1; // `*` globs and anything else: skip (not resolvable)
        }
        if let Some(l) = last.take() {
            prefix.push(l);
            out.push(UseImport {
                alias: prefix.last().cloned().unwrap_or_default(),
                path: prefix.clone(),
            });
            prefix.pop();
        }
    }

    /// Comma-separated items of a `{...}` use group in `[i, end)`.
    fn group_items(
        &self,
        mut i: usize,
        end: usize,
        prefix: &mut Vec<String>,
        out: &mut Vec<UseImport>,
    ) {
        while i < end {
            // Find this item's extent: up to a comma at depth 0.
            let mut depth = 0usize;
            let mut j = i;
            while j < end {
                let Some(t) = self.ct(j) else { break };
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth = depth.saturating_sub(1);
                } else if t.is_punct(',') && depth == 0 {
                    break;
                }
                j += 1;
            }
            let plen = prefix.len();
            // `self` inside a group imports the prefix itself.
            if j == i + 1 && self.ct(i).is_some_and(|t| t.is_ident("self")) {
                if let Some(alias) = prefix.last().cloned() {
                    out.push(UseImport { alias, path: prefix.clone() });
                }
            } else {
                self.use_tree(i, j, prefix, out);
            }
            prefix.truncate(plen);
            i = j + 1;
        }
    }

    /// Parse an `impl`/`trait` header at `ci`; returns the pending frame and
    /// the code index of the body `{` (or of the `;`/end for bodyless forms).
    fn parse_type_header(&self, ci: usize) -> (Pending, usize) {
        let is_trait = self.ct(ci).is_some_and(|t| t.is_ident("trait"));
        let mut trait_impl = false;
        let mut j = ci + 1;
        let mut angle = 0usize;
        let mut current: Option<String> = None;
        while let Some(t) = self.ct(j) {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle = angle.saturating_sub(1);
            } else if angle == 0 {
                if t.is_punct('{') || t.is_punct(';') {
                    break;
                }
                if t.is_ident("for") {
                    // `impl Trait for Type` — the `for` target is the self
                    // type, so discard the trait name seen so far.
                    current = None;
                    trait_impl = true;
                } else if t.is_ident("where") {
                    // where-clause: scan to the body brace.
                } else if t.kind == TokKind::Ident
                    && !matches!(t.text.as_str(), "pub" | "unsafe" | "const" | "dyn")
                {
                    current = Some(t.text.clone());
                }
                if is_trait && current.is_some() && self.ct(j + 1).is_some_and(|n| n.is_punct(':'))
                {
                    // `trait Name: Bound` — the name is fixed; bounds follow.
                    let name = current.clone().unwrap_or_default();
                    // Scan on to the `{`.
                    let mut k = j + 1;
                    while let Some(t) = self.ct(k) {
                        if t.is_punct('{') || t.is_punct(';') {
                            break;
                        }
                        k += 1;
                    }
                    return (Pending::Type(name, false), k);
                }
            }
            j += 1;
        }
        match current {
            Some(name) => (Pending::Type(name, !is_trait && !trait_impl), j),
            None => (Pending::AnonType, j),
        }
    }

    /// Parse a fn header starting at the `fn` keyword; returns the header
    /// and the code index of the body `{` or terminating `;`.
    fn parse_fn_header(&self, ci: usize) -> (FnHeader, usize) {
        let name_tok = self.ct(ci + 1).expect("caller checked");
        let name = name_tok.text.clone();
        let line = name_tok.line;
        let is_test = self.is_test_at(ci);
        // Skip generics, then the argument list.
        let mut j = ci + 2;
        let mut angle = 0usize;
        while let Some(t) = self.ct(j) {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle = angle.saturating_sub(1);
            } else if t.is_punct('(') && angle == 0 {
                break;
            } else if t.is_punct('{') || t.is_punct(';') {
                // Malformed (no arg list); bail where we are.
                return (FnHeader { name, line, is_test, params: Vec::new() }, j);
            }
            j += 1;
        }
        // Scan the argument list, collecting parameter binding names: an
        // ident immediately followed by a single `:` (not `::`) is a
        // binding, whether at the top level or inside a tuple pattern.
        // Idents inside type position are never followed by a lone `:`, so
        // this cannot capture type names.
        let mut params: Vec<String> = Vec::new();
        let mut paren = 0usize;
        while let Some(t) = self.ct(j) {
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
                if paren == 0 {
                    break;
                }
            } else if t.kind == TokKind::Ident && paren >= 1 && t.text != "self" {
                let colon_next = self.ct(j + 1).is_some_and(|n| n.is_punct(':'))
                    && !self.ct(j + 2).is_some_and(|n| n.is_punct(':'));
                let colon_prev =
                    j.checked_sub(1).and_then(|i| self.ct(i)).is_some_and(|p| p.is_punct(':'));
                if colon_next && !colon_prev {
                    params.push(t.text.clone());
                }
            }
            j += 1;
        }
        // Skip the return type and any where clause to the body `{` or `;`.
        j += 1;
        while self.ct(j).is_some_and(|t| !t.is_punct('{') && !t.is_punct(';')) {
            j += 1;
        }
        (FnHeader { name, line, is_test, params }, j)
    }
}

/// Token mask marking test-only regions: the braced body (and attributes)
/// of any item annotated `#[cfg(test)]`, `#[cfg(any(test, …))]`, or
/// `#[test]`. `#[cfg(not(test))]` guards production code and is *not*
/// masked.
pub fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code: Vec<usize> = (0..toks.len()).filter(|&i| toks[i].is_code()).collect();
    let mut c = 0usize;
    while c < code.len() {
        if toks[code[c]].is_punct('#') && code.get(c + 1).is_some_and(|&i| toks[i].is_punct('[')) {
            // Scan the attribute to its matching `]`.
            let mut depth = 0usize;
            let mut idents: Vec<&str> = Vec::new();
            let mut end = c + 1;
            for (k, &ti) in code.iter().enumerate().skip(c + 1) {
                let t = &toks[ti];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        end = k;
                        break;
                    }
                } else if t.kind == TokKind::Ident {
                    idents.push(&t.text);
                }
            }
            let is_test_attr = idents.contains(&"test")
                && !idents.contains(&"not")
                && (idents[0] == "cfg" || idents == ["test"]);
            if is_test_attr {
                // Mark from the attribute through the end of the annotated
                // item: its braced body, or the trailing `;` for bodyless
                // items (`mod tests;`).
                let mut brace_depth = 0usize;
                let mut k = end + 1;
                while k < code.len() {
                    let t = &toks[code[k]];
                    if t.is_punct('{') {
                        brace_depth += 1;
                    } else if t.is_punct('}') {
                        brace_depth -= 1;
                        if brace_depth == 0 {
                            break;
                        }
                    } else if t.is_punct(';') && brace_depth == 0 {
                        break;
                    }
                    k += 1;
                }
                let from = code[c];
                let to = code.get(k).copied().unwrap_or(toks.len() - 1);
                for m in &mut mask[from..=to] {
                    *m = true;
                }
                c = k + 1;
                continue;
            }
            c = end + 1;
            continue;
        }
        c += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/x/src/lib.rs", src)
    }

    #[test]
    fn fn_items_with_impl_context() {
        let p = parse(
            "impl Store {\n pub fn fetch(&self, k: u32) -> Result<u8, E> { self.inner.get(k) }\n}\nfn helper() {}\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "fetch");
        assert_eq!(p.fns[0].self_type.as_deref(), Some("Store"));
        assert!(p.fns[0].inherent);
        assert_eq!(p.fns[0].qual(&p.module), "pmr_x::Store::fetch");
        assert_eq!(p.fns[1].name, "helper");
        assert!(p.fns[1].self_type.is_none());
    }

    #[test]
    fn trait_impl_records_the_for_type() {
        let p = parse("impl SegmentStore for MemStore {\n fn fetch(&self) {}\n}\n");
        assert_eq!(p.fns[0].self_type.as_deref(), Some("MemStore"));
        assert!(!p.fns[0].inherent);
    }

    #[test]
    fn calls_are_classified() {
        let p = parse("fn f(s: &Store) { helper(); io::save(1); s.fetch(2); self.cache.lock(); }");
        let calls = &p.fns[0].calls;
        assert!(matches!(&calls[0].callee, Callee::Free(n) if n == "helper"));
        assert!(
            matches!(&calls[1].callee, Callee::Path(p) if p == &vec!["io".to_string(), "save".to_string()])
        );
        assert!(
            matches!(&calls[2].callee, Callee::Method { name, recv } if name == "fetch" && recv.as_deref() == Some("s"))
        );
        assert!(
            matches!(&calls[3].callee, Callee::Method { name, recv } if name == "lock" && recv.as_deref() == Some("self.cache"))
        );
    }

    #[test]
    fn test_fns_are_marked() {
        let p = parse("fn f() {}\n#[cfg(test)]\nmod t { fn g() {} }\n#[test]\nfn h() {}\n");
        let tests: Vec<bool> = p.fns.iter().map(|f| f.is_test).collect();
        assert_eq!(tests, vec![false, true, true]);
    }

    #[test]
    fn use_imports_with_groups_and_aliases() {
        let p = parse("use pmr_field::{io, Field as F};\nuse std::sync::Mutex;\n");
        assert!(p
            .uses
            .iter()
            .any(|u| u.alias == "io" && u.path == vec!["pmr_field".to_string(), "io".to_string()]));
        assert!(p.uses.iter().any(|u| u.alias == "F" && u.path.last().unwrap() == "Field"));
        assert!(p.uses.iter().any(|u| u.alias == "Mutex"));
    }

    #[test]
    fn module_paths_derive_from_file_paths() {
        assert_eq!(module_path_of("crates/mgard/src/compress.rs"), vec!["pmr_mgard", "compress"]);
        assert_eq!(module_path_of("crates/field/src/lib.rs"), vec!["pmr_field"]);
        assert_eq!(module_path_of("src/lib.rs"), vec!["pmr"]);
        assert_eq!(module_path_of("crates/core/src/sub/mod.rs"), vec!["pmr_core", "sub"]);
    }

    #[test]
    fn nested_fn_sites_attach_to_the_inner_fn() {
        let p = parse("fn outer() { fn inner(x: Option<u8>) { x.take(); } inner(None); }");
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        let names =
            |f: &FnInfo| f.calls.iter().map(|c| c.callee.name().to_string()).collect::<Vec<_>>();
        assert_eq!(names(outer), vec!["inner".to_string()]);
        assert_eq!(names(inner), vec!["take".to_string()]);
    }

    #[test]
    fn parameter_names_are_captured() {
        let p = parse(
            "fn f(buf: &[u8], n: usize) {}\n\
             impl S { fn g(&mut self, count: u32) -> Result<(), E> { Ok(()) } }\n\
             fn h<T: Clone>((a, b): (u32, u32), cb: impl Fn(usize) -> u8) {}\n",
        );
        assert_eq!(p.fns[0].params, vec!["buf".to_string(), "n".to_string()]);
        assert_eq!(p.fns[1].params, vec!["count".to_string()]);
        // Tuple-pattern binders are skipped (conservative); idents in type
        // position (Clone, Fn's `usize`) are never captured.
        assert_eq!(p.fns[2].params, vec!["cb".to_string()]);
    }

    #[test]
    fn method_chain_receiver_of_computed_expr_is_none() {
        let p = parse("fn f() { g().h(); (a + b).k(); }");
        for c in &p.fns[0].calls {
            if let Callee::Method { name, recv } = &c.callee {
                if name == "h" || name == "k" {
                    assert!(recv.is_none(), "{name} receiver should be computed");
                }
            }
        }
    }
}
