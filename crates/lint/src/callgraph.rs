//! Pass 1 of the workspace analyzer, part two: the name-resolved
//! intra-workspace call graph.
//!
//! Every function body (from [`crate::items`]) is scanned for call sites:
//! plain calls, `Head::name` path calls, `.name(…)` method calls, macro
//! invocations, and `[…]` indexing. Calls are resolved to workspace
//! functions by name — method calls by suffix match against every method
//! of that name (ambiguity recorded, which is also how dynamic trait
//! dispatch is modeled: a `.detect(…)` site links every `Detector` impl).
//! Unresolved calls are classified against the std effect table
//! ([`crate::effects`]). The interprocedural rules then run reachability
//! and effect closures over this graph.

use crate::effects::{self, Effects};
use crate::items::{collect_fns, FnItem, KEYWORDS};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Idents accepted as evidence that telemetry/wall-clock use is behind a
/// recorder gate: `Recorder::detail` (decision-level telemetry) and
/// `Recorder::enabled` (the obs layer's span timing).
const GATE_IDENTS: &[&str] = &["detail", "enabled"];

/// How a call site was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)` — a plain call.
    Plain,
    /// `Head::name(…)` — a path call.
    Path,
    /// `.name(…)` — a method call (`on_self` when the receiver is
    /// literally `self`).
    Method {
        /// Receiver is the bare `self` token.
        on_self: bool,
    },
    /// `name!(…)` — a macro invocation.
    Macro,
    /// `expr[…]` — an indexing site (modeled as a call to `[]`).
    Index,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the calling function in [`WorkspaceModel::fns`].
    pub caller: usize,
    /// Index of the containing file.
    pub file: usize,
    /// Token index of the callee name (or the `[` for indexing).
    pub tok: usize,
    /// 1-based line of the site.
    pub line: u32,
    /// 1-based column of the site.
    pub col: u32,
    /// The callee name as written (`[]` for indexing).
    pub name: String,
    /// How the call was written.
    pub kind: CallKind,
    /// Resolved workspace callees (empty for externs).
    pub callees: Vec<usize>,
    /// More than one callee matched (suffix-match ambiguity or dynamic
    /// trait dispatch).
    pub ambiguous: bool,
    /// Effects from the std table when the call is (or may be) extern.
    pub externs: Effects,
    /// The call's value flows onward: `let`/`=`/`return` position or the
    /// body's tail expression.
    pub consumed: bool,
    /// A recorder gate ident (`detail`, `enabled`) precedes the site in
    /// the enclosing body.
    pub gated: bool,
    /// The site's line is inside a `// gv-lint: hot` region.
    pub hot: bool,
    /// The site is in test-only code.
    pub test: bool,
}

/// The two-pass workspace model: analyzed files, the item model, and the
/// resolved call graph.
pub struct WorkspaceModel<'a> {
    /// Every analyzed source file, in engine (path-sorted) order.
    pub files: &'a [SourceFile],
    /// Every `fn` item, in file order then source order.
    pub fns: Vec<FnItem>,
    /// Every call site, in file order then source order.
    pub sites: Vec<CallSite>,
    /// Per-function site indices (into [`WorkspaceModel::sites`]).
    pub fn_sites: Vec<Vec<usize>>,
    /// Per-function reverse edges: `(caller, site)` pairs, sorted.
    pub callers: Vec<Vec<(usize, usize)>>,
}

impl<'a> WorkspaceModel<'a> {
    /// Builds the item model and call graph over `files`.
    pub fn build(files: &'a [SourceFile]) -> WorkspaceModel<'a> {
        let mut fns: Vec<FnItem> = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            fns.extend(collect_fns(fi, file));
        }

        // Name → fn indices, and per-file ident mention sets (used to
        // filter method suffix matches down to plausible receivers).
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(idx);
        }
        let file_idents: Vec<BTreeSet<&str>> = files
            .iter()
            .map(|f| {
                f.tokens()
                    .iter()
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text(&f.text))
                    .collect()
            })
            .collect();

        let mut model = WorkspaceModel {
            files,
            fns,
            sites: Vec::new(),
            fn_sites: Vec::new(),
            callers: Vec::new(),
        };
        model.extract_sites();
        model.resolve(&by_name, &file_idents);
        model.fn_sites = vec![Vec::new(); model.fns.len()];
        model.callers = vec![Vec::new(); model.fns.len()];
        for (sidx, s) in model.sites.iter().enumerate() {
            model.fn_sites[s.caller].push(sidx);
            for &callee in &s.callees {
                model.callers[callee].push((s.caller, sidx));
            }
        }
        model
    }

    /// Root entry points for reachability: every `Detector::detect` impl,
    /// `StreamingDetector::push`, and the CLI entry functions.
    pub fn roots(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (idx, f) in self.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let detect_impl = f.name == "detect" && f.trait_name.as_deref() == Some("Detector");
            let streaming_push =
                f.name == "push" && f.owner.as_deref() == Some("StreamingDetector");
            let cli_entry = self.crate_of(f) == "cli" && (f.name == "main" || f.name == "run");
            if detect_impl || streaming_push || cli_entry {
                out.push(idx);
            }
        }
        out
    }

    /// The crate a function lives in.
    pub fn crate_of(&self, f: &FnItem) -> &str {
        &self.files[f.file].crate_name
    }

    /// Forward reachability from `roots` over call edges whose site
    /// passes `site_ok`; returns a per-fn flag vector.
    pub fn reachable(&self, roots: &[usize], site_ok: &dyn Fn(&CallSite) -> bool) -> Vec<bool> {
        let mut seen = vec![false; self.fns.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if !seen[r] {
                seen[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &sidx in &self.fn_sites[f] {
                let s = &self.sites[sidx];
                if !site_ok(s) {
                    continue;
                }
                for &callee in &s.callees {
                    if !seen[callee] {
                        seen[callee] = true;
                        queue.push_back(callee);
                    }
                }
            }
        }
        seen
    }

    /// Backward effect closure: a fn is marked when `direct` marks it, or
    /// when any of its sites passing `site_ok` resolves to a marked fn.
    pub fn closure(&self, direct: &[bool], site_ok: &dyn Fn(&CallSite) -> bool) -> Vec<bool> {
        let mut marked = direct.to_vec();
        let mut queue: VecDeque<usize> = (0..self.fns.len()).filter(|&f| marked[f]).collect();
        while let Some(f) = queue.pop_front() {
            for &(caller, sidx) in &self.callers[f] {
                if marked[caller] || !site_ok(&self.sites[sidx]) {
                    continue;
                }
                marked[caller] = true;
                queue.push_back(caller);
            }
        }
        marked
    }

    /// Shortest call chain (as site indices) from any fn in `entries` to
    /// the function containing `source_site`, ending with `source_site`
    /// itself. Deterministic: BFS visits functions in index order.
    pub fn chain_to(
        &self,
        entries: &[usize],
        source_site: usize,
        site_ok: &dyn Fn(&CallSite) -> bool,
    ) -> Option<Vec<usize>> {
        let target = self.sites[source_site].caller;
        if entries.contains(&target) {
            return Some(vec![source_site]);
        }
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut seen = vec![false; self.fns.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut sorted_entries: Vec<usize> = entries.to_vec();
        sorted_entries.sort_unstable();
        for &e in &sorted_entries {
            if !seen[e] {
                seen[e] = true;
                queue.push_back(e);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &sidx in &self.fn_sites[f] {
                let s = &self.sites[sidx];
                if !site_ok(s) {
                    continue;
                }
                for &callee in &s.callees {
                    if seen[callee] {
                        continue;
                    }
                    seen[callee] = true;
                    parent[callee] = Some(sidx);
                    if callee == target {
                        let mut path = Vec::new();
                        let mut cur = callee;
                        while let Some(via) = parent[cur] {
                            path.push(via);
                            cur = self.sites[via].caller;
                        }
                        path.reverse();
                        path.push(source_site);
                        return Some(path);
                    }
                    queue.push_back(callee);
                }
            }
        }
        None
    }

    /// Scans every function body for call sites (resolution happens in a
    /// second phase once all sites exist).
    fn extract_sites(&mut self) {
        for file_idx in 0..self.files.len() {
            let file = &self.files[file_idx];
            let toks = file.tokens();
            // Innermost-fn attribution: later (nested) fns overwrite.
            let mut owner: Vec<Option<usize>> = vec![None; toks.len()];
            for (fidx, f) in self.fns.iter().enumerate() {
                if f.file != file_idx {
                    continue;
                }
                if let Some((open, close)) = f.body {
                    for slot in owner.iter_mut().take(close + 1).skip(open) {
                        *slot = Some(fidx);
                    }
                }
            }
            let mut gate_seen = vec![false; self.fns.len()];
            let mut t = 0;
            while t < toks.len() {
                // Skip attribute groups (`#[…]` / `#![…]`) entirely.
                if file.tok_text(t) == "#" {
                    let mut j = t + 1;
                    if j < toks.len() && file.tok_text(j) == "!" {
                        j += 1;
                    }
                    if j < toks.len() && file.tok_text(j) == "[" {
                        t = match_square(file, j) + 1;
                        continue;
                    }
                }
                let Some(caller) = owner[t] else {
                    t += 1;
                    continue;
                };
                let text = file.tok_text(t);
                if toks[t].kind == TokenKind::Ident && GATE_IDENTS.contains(&text) {
                    gate_seen[caller] = true;
                }
                if let Some((kind, name)) = self.site_at(file, t) {
                    let line = toks[t].line;
                    self.sites.push(CallSite {
                        caller,
                        file: file_idx,
                        tok: t,
                        line,
                        col: toks[t].col,
                        name,
                        kind,
                        callees: Vec::new(),
                        ambiguous: false,
                        externs: Effects::NONE,
                        consumed: is_consumed(file, t),
                        gated: gate_seen[caller],
                        hot: file.is_hot_line(line),
                        test: self.fns[caller].is_test || file.is_test_line(line),
                    });
                }
                t += 1;
            }
        }
    }

    /// Classifies the token at `t` as a call site, if it is one.
    fn site_at(&self, file: &SourceFile, t: usize) -> Option<(CallKind, String)> {
        let toks = file.tokens();
        let text = file.tok_text(t);
        if text == "[" {
            // Indexing: `expr[…]` — the `[` directly follows a value.
            let prev_ok = t > 0
                && (matches!(file.tok_text(t - 1), ")" | "]")
                    || (toks[t - 1].kind == TokenKind::Ident
                        && !KEYWORDS.contains(&file.tok_text(t - 1))));
            return prev_ok.then(|| (CallKind::Index, "[]".to_string()));
        }
        if toks[t].kind != TokenKind::Ident || KEYWORDS.contains(&text) {
            return None;
        }
        let next = file.tok_text_at(t + 1);
        let prev = if t > 0 { file.tok_text(t - 1) } else { "" };
        if prev == "." && (next == "(" || next == "::") {
            let on_self = t >= 2 && file.tok_text(t - 2) == "self";
            return Some((CallKind::Method { on_self }, text.to_string()));
        }
        if next == "!" && matches!(file.tok_text_at(t + 2), "(" | "[" | "{") {
            return Some((CallKind::Macro, text.to_string()));
        }
        if prev == "fn" {
            return None; // a declaration, not a call
        }
        if next == "(" || (next == "::" && file.tok_text_at(t + 2) == "<") {
            if prev == "::" {
                return Some((CallKind::Path, text.to_string()));
            }
            return Some((CallKind::Plain, text.to_string()));
        }
        None
    }

    /// Resolves every extracted site against the item model and the std
    /// effect table.
    fn resolve(&mut self, by_name: &BTreeMap<String, Vec<usize>>, file_idents: &[BTreeSet<&str>]) {
        let empty: Vec<usize> = Vec::new();
        let mut resolved: Vec<(Vec<usize>, bool, Effects)> = Vec::with_capacity(self.sites.len());
        for s in &self.sites {
            let caller = &self.fns[s.caller];
            let named = by_name.get(s.name.as_str()).unwrap_or(&empty);
            let (callees, externs) = match s.kind {
                CallKind::Index => (Vec::new(), effects::index_effects()),
                CallKind::Macro => (Vec::new(), effects::macro_effects(&s.name)),
                CallKind::Plain => {
                    let c = self.resolve_plain(named, caller);
                    let e = if c.is_empty() {
                        effects::plain_effects(&s.name)
                    } else {
                        Effects::NONE
                    };
                    (c, e)
                }
                CallKind::Path => {
                    let head = self.path_head(s);
                    let c = self.resolve_path(named, caller, head.as_deref());
                    let e = effects::path_effects(head.as_deref().unwrap_or(""), &s.name);
                    (c, e)
                }
                CallKind::Method { on_self } => {
                    let c = self.resolve_method(named, caller, on_self, file_idents, s.file);
                    // A suffix match is uncertain (the receiver may still
                    // be a std collection), so the extern classification
                    // stays in force unless the receiver is `self`.
                    let e = if on_self && !c.is_empty() {
                        Effects::NONE
                    } else {
                        effects::method_effects(&s.name, caller.hash_context)
                    };
                    (c, e)
                }
            };
            let ambiguous = callees.len() > 1;
            resolved.push((callees, ambiguous, externs));
        }
        for (s, (callees, ambiguous, externs)) in self.sites.iter_mut().zip(resolved) {
            s.callees = callees;
            s.ambiguous = ambiguous;
            s.externs = externs;
        }
    }

    /// The path segment before `::name` at a path call site.
    fn path_head(&self, s: &CallSite) -> Option<String> {
        let file = &self.files[s.file];
        if s.tok < 2 {
            return None;
        }
        let t = file.tokens().get(s.tok - 2)?;
        (t.kind == TokenKind::Ident).then(|| t.text(&file.text).to_string())
    }

    /// Plain-call resolution: same file, then same crate, then any free
    /// fn of that name (recorded as ambiguous when several survive).
    fn resolve_plain(&self, named: &[usize], caller: &FnItem) -> Vec<usize> {
        let free: Vec<usize> = named
            .iter()
            .copied()
            .filter(|&i| self.fns[i].owner.is_none())
            .collect();
        let same_file: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&i| self.fns[i].file == caller.file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let caller_crate = &self.files[caller.file].crate_name;
        let same_crate: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&i| &self.files[self.fns[i].file].crate_name == caller_crate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        free
    }

    /// Path-call resolution: `Self::`/`Type::` match impl owners,
    /// `gv_*::`/`grammarviz::` match crates, bare module heads match the
    /// defining file's name.
    fn resolve_path(&self, named: &[usize], caller: &FnItem, head: Option<&str>) -> Vec<usize> {
        let Some(head) = head else {
            return Vec::new();
        };
        if head == "Self" {
            return named
                .iter()
                .copied()
                .filter(|&i| self.fns[i].owner.is_some() && self.fns[i].owner == caller.owner)
                .collect();
        }
        if matches!(head, "self" | "crate" | "super") {
            let caller_crate = &self.files[caller.file].crate_name;
            return named
                .iter()
                .copied()
                .filter(|&i| {
                    self.fns[i].owner.is_none()
                        && &self.files[self.fns[i].file].crate_name == caller_crate
                })
                .collect();
        }
        // `Type::assoc(…)`.
        let by_owner: Vec<usize> = named
            .iter()
            .copied()
            .filter(|&i| self.fns[i].owner.as_deref() == Some(head))
            .collect();
        if !by_owner.is_empty() {
            return by_owner;
        }
        // `gv_core::…` / `grammarviz::…` crate paths.
        let crate_name = head.strip_prefix("gv_").unwrap_or(head);
        let by_crate: Vec<usize> = named
            .iter()
            .copied()
            .filter(|&i| {
                self.fns[i].owner.is_none() && self.files[self.fns[i].file].crate_name == crate_name
            })
            .collect();
        if !by_crate.is_empty() {
            return by_crate;
        }
        // `module::helper(…)` — the module is the defining file.
        named
            .iter()
            .copied()
            .filter(|&i| {
                let rel = &self.files[self.fns[i].file].rel_path;
                self.fns[i].owner.is_none()
                    && (rel.ends_with(&format!("/{head}.rs")) || rel.contains(&format!("/{head}/")))
            })
            .collect()
    }

    /// Method-call resolution: `self.name(…)` prefers the caller's own
    /// impl; otherwise a suffix match over every method of that name,
    /// kept only when the candidate's owner type is mentioned in the
    /// calling file (a receiver the file never names cannot be one of
    /// ours).
    fn resolve_method(
        &self,
        named: &[usize],
        caller: &FnItem,
        on_self: bool,
        file_idents: &[BTreeSet<&str>],
        site_file: usize,
    ) -> Vec<usize> {
        let methods: Vec<usize> = named
            .iter()
            .copied()
            .filter(|&i| self.fns[i].owner.is_some())
            .collect();
        if on_self {
            if let Some(owner) = &caller.owner {
                let own: Vec<usize> = methods
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].owner.as_deref() == Some(owner.as_str()))
                    .collect();
                if !own.is_empty() {
                    return own;
                }
            }
        }
        methods
            .into_iter()
            .filter(|&i| {
                self.fns[i].file == site_file
                    || self.fns[i]
                        .owner
                        .as_deref()
                        .is_some_and(|o| file_idents[site_file].contains(o))
            })
            .collect()
    }
}

/// Index of the `]` matching the `[` at `open`; saturates on unbalanced
/// input.
fn match_square(file: &SourceFile, open: usize) -> usize {
    let toks = file.tokens();
    let mut depth: i32 = 0;
    let mut j = open;
    while j < toks.len() {
        match file.tok_text(j) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// Does the call value at token `t` flow onward — `let`/`=`/`return`
/// before it in the statement, or the body's tail expression after it?
fn is_consumed(file: &SourceFile, t: usize) -> bool {
    // Backward to the statement boundary.
    let mut k = t;
    while k > 0 {
        k -= 1;
        match file.tok_text(k) {
            ";" | "{" | "}" => break,
            "let" | "=" | "return" | "=>" => return true,
            _ => {}
        }
    }
    // Forward: a call whose close paren is directly followed by `}` is a
    // tail expression.
    let toks = file.tokens();
    let mut j = t + 1;
    // Find the opening delimiter of the call's argument list (if any).
    while j < toks.len() && matches!(file.tok_text(j), "::" | "<" | ">" | "_" | ",") {
        j += 1;
    }
    if j >= toks.len() || !matches!(file.tok_text(j), "(" | "[" | "!") {
        return false;
    }
    if file.tok_text(j) == "!" {
        j += 1;
        if j >= toks.len() {
            return false;
        }
    }
    let close = match file.tok_text(j) {
        "(" => match_round(file, j),
        "[" => match_square(file, j),
        _ => return false,
    };
    matches!(file.tok_text_at(close + 1), "}" | "?")
}

/// Index of the `)` matching the `(` at `open`; saturates on unbalanced
/// input.
fn match_round(file: &SourceFile, open: usize) -> usize {
    let toks = file.tokens();
    let mut depth: i32 = 0;
    let mut j = open;
    while j < toks.len() {
        match file.tok_text(j) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn model_of(files: &[SourceFile]) -> WorkspaceModel<'_> {
        WorkspaceModel::build(files)
    }

    fn lib(rel: &str, krate: &str, src: &str) -> SourceFile {
        SourceFile::analyze(rel, krate, FileKind::LibSrc, src.to_string())
    }

    fn fn_idx(m: &WorkspaceModel<'_>, q: &str) -> usize {
        m.fns
            .iter()
            .position(|f| f.qualified_name() == q)
            .unwrap_or_else(|| panic!("no fn {q}"))
    }

    fn edges_of(m: &WorkspaceModel<'_>, q: &str) -> Vec<String> {
        let f = fn_idx(m, q);
        let mut out: Vec<String> = m.fn_sites[f]
            .iter()
            .flat_map(|&s| m.sites[s].callees.iter())
            .map(|&c| m.fns[c].qualified_name())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn plain_and_path_calls_resolve() {
        let files = vec![lib(
            "crates/core/src/a.rs",
            "core",
            "fn helper() {}\npub fn entry() { helper(); a::helper(); }\n",
        )];
        let m = model_of(&files);
        assert_eq!(edges_of(&m, "entry"), vec!["helper"]);
    }

    #[test]
    fn self_method_calls_prefer_own_impl() {
        let src = "struct A;\nstruct B;\nimpl A { fn go(&self) {} fn run(&self) { self.go() } }\n\
                   impl B { fn go(&self) {} }\n";
        let files = vec![lib("crates/core/src/a.rs", "core", src)];
        let m = model_of(&files);
        assert_eq!(edges_of(&m, "A::run"), vec!["A::go"]);
    }

    #[test]
    fn method_suffix_match_records_ambiguity() {
        let src = "struct A;\nstruct B;\nimpl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\n\
                   fn call(x: &A) { x.go() }\n";
        let files = vec![lib("crates/core/src/a.rs", "core", src)];
        let m = model_of(&files);
        assert_eq!(edges_of(&m, "call"), vec!["A::go", "B::go"]);
        let site = m.fn_sites[fn_idx(&m, "call")]
            .iter()
            .map(|&s| &m.sites[s])
            .find(|s| s.name == "go")
            .expect("site");
        assert!(site.ambiguous);
    }

    #[test]
    fn extern_calls_classify_against_the_effect_table() {
        let src = "pub fn f(v: &mut Vec<u32>, o: Option<u32>) -> u32 { v.push(1); o.unwrap() }\n";
        let files = vec![lib("crates/core/src/a.rs", "core", src)];
        let m = model_of(&files);
        let f = fn_idx(&m, "f");
        let effects: Vec<(&str, Effects)> = m.fn_sites[f]
            .iter()
            .map(|&s| (m.sites[s].name.as_str(), m.sites[s].externs))
            .collect();
        assert!(effects.iter().any(|(n, e)| *n == "push" && e.alloc));
        assert!(effects.iter().any(|(n, e)| *n == "unwrap" && e.panic));
    }

    #[test]
    fn indexing_is_a_panic_site() {
        let src = "pub fn f(v: &[u32]) -> u32 { v[0] }\n";
        let files = vec![lib("crates/core/src/a.rs", "core", src)];
        let m = model_of(&files);
        let f = fn_idx(&m, "f");
        assert!(m.fn_sites[f]
            .iter()
            .any(|&s| m.sites[s].kind == CallKind::Index && m.sites[s].externs.index_panic));
    }

    #[test]
    fn consumed_and_gated_flags() {
        let src = "pub fn f() -> u64 { let t = now(); t }\n\
                   pub fn g(r: &R) { if let Some(d) = r.detail() { drop(now()); } }\n\
                   pub fn h() { now(); }\n";
        let files = vec![lib("crates/core/src/a.rs", "core", src)];
        let m = model_of(&files);
        let site = |q: &str, n: &str| {
            m.fn_sites[fn_idx(&m, q)]
                .iter()
                .map(|&s| &m.sites[s])
                .find(|s| s.name == n)
                .unwrap_or_else(|| panic!("no site {n} in {q}"))
                .clone()
        };
        assert!(site("f", "now").consumed);
        assert!(!site("f", "now").gated);
        assert!(site("g", "now").gated);
        assert!(!site("h", "now").consumed);
    }

    #[test]
    fn reachability_and_closure() {
        let src = "pub fn leaf(o: Option<u32>) -> u32 { o.unwrap() }\n\
                   pub fn mid(o: Option<u32>) -> u32 { leaf(o) }\n\
                   pub fn top(o: Option<u32>) -> u32 { mid(o) }\n\
                   pub fn lonely() {}\n";
        let files = vec![lib("crates/core/src/a.rs", "core", src)];
        let m = model_of(&files);
        let top = fn_idx(&m, "top");
        let reach = m.reachable(&[top], &|_| true);
        assert!(reach[fn_idx(&m, "leaf")] && reach[fn_idx(&m, "mid")]);
        assert!(!reach[fn_idx(&m, "lonely")]);

        let mut direct = vec![false; m.fns.len()];
        for s in &m.sites {
            if s.externs.panic {
                direct[s.caller] = true;
            }
        }
        let closed = m.closure(&direct, &|_| true);
        assert!(closed[fn_idx(&m, "leaf")] && closed[top]);
        assert!(!closed[fn_idx(&m, "lonely")]);
    }

    #[test]
    fn chain_is_shortest_and_deterministic() {
        let src = "pub fn leaf(o: Option<u32>) -> u32 { o.unwrap() }\n\
                   pub fn mid(o: Option<u32>) -> u32 { leaf(o) }\n\
                   pub fn top(o: Option<u32>) -> u32 { mid(o) }\n";
        let files = vec![lib("crates/core/src/a.rs", "core", src)];
        let m = model_of(&files);
        let source = m
            .sites
            .iter()
            .position(|s| s.externs.panic)
            .expect("unwrap site");
        let chain = m
            .chain_to(&[fn_idx(&m, "top")], source, &|_| true)
            .expect("chain");
        let names: Vec<&str> = chain.iter().map(|&s| m.sites[s].name.as_str()).collect();
        assert_eq!(names, vec!["mid", "leaf", "unwrap"]);
    }
}
