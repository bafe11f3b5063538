//! L1 — lock-order discipline via a workspace lock-acquisition graph.
//!
//! v1 of this rule hand-listed the NameNode's coarse→fine order
//! (`policy → rng → stripes → shard → wal`) and flagged any nesting that
//! contradicted the list. v2 derives the order instead of declaring it:
//!
//! 1. **Facts** ([`facts`]): each file contributes the lock classes it
//!    *declares* (fields/bindings typed `Mutex<…>`/`RwLock<…>`, possibly
//!    under `Arc`/`Vec`/`Box`/`Option` wrappers, and accessor fns
//!    returning `&Mutex<…>`/`&RwLock<…>`) and the *nestings* it exhibits
//!    (class B acquired while a guard of class A is held, using the same
//!    held-guard tracking as v1: `let`-bound guards live to end of block
//!    or `drop()`, transient/projection guards die at statement end).
//! 2. **Graph** ([`analyze`]): nestings whose endpoints are both declared
//!    classes become edges `A → B`. Classes are name-keyed workspace-wide
//!    (a trailing-`s` plural merges with its singular, so `shards[i]` and
//!    the `shard()` accessor are one class). Cycles are found via Tarjan
//!    SCC: any edge inside a non-trivial SCC is a deadlock hazard and is
//!    reported at its first observed site. The consistent order — the
//!    thing v1 hand-listed — falls out as the topological order of the
//!    acyclic graph (ties broken by name) and is what `ear-lint graph`
//!    prints as DOT.
//!
//! Same-class nesting (`shard` under `shard`) is still flagged per site
//! as `recursive-lock`: std locks are not reentrant.
//!
//! Because edges come from *observed* nesting, a brand-new lock class in
//! `namenode.rs`/`healer.rs`/`cache.rs` joins the graph automatically the
//! first time it participates in a nesting — no table to update. The
//! trade-off vs v1: a single nesting direction defines (not violates) the
//! order, so a contradiction needs both directions to exist somewhere in
//! the workspace — which is exactly the two-thread deadlock condition.

use super::{receiver_ident, stmt_end, stmt_start};
use crate::diag::{Diagnostic, Rule};
use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Where a nesting was observed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One observed nesting: `inner` acquired while a guard for `outer` was
/// held.
#[derive(Debug, Clone)]
pub struct Nesting {
    /// The class already held.
    pub outer: String,
    /// The class being acquired.
    pub inner: String,
    /// Acquisition site of `inner`.
    pub site: Site,
}

/// Per-file lock facts, joined workspace-wide by [`analyze`].
#[derive(Debug, Default)]
pub struct FileLockFacts {
    /// Lock classes this file declares (field/binding/accessor names).
    pub declared: BTreeSet<String>,
    /// Nestings observed in this file (receiver names, pre-canonical).
    pub nestings: Vec<Nesting>,
}

/// Wrapper types looked through when resolving a lock declaration's name.
const WRAPPERS: &[&str] = &["Arc", "Vec", "Box", "Option", "VecDeque"];

/// Extracts lock facts from one file's non-test tokens.
pub fn facts(path: &str, toks: &[Tok]) -> FileLockFacts {
    let mut f = FileLockFacts::default();
    collect_declarations(toks, &mut f.declared);
    collect_nestings(path, toks, &mut f.nestings);
    f
}

fn collect_declarations(toks: &[Tok], out: &mut BTreeSet<String>) {
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("Mutex") || t.is_ident("RwLock")) {
            continue;
        }
        // `Mutex::new(..)` bound by `let name = …`.
        if toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("new"))
        {
            let start = stmt_start(toks, i);
            if toks.get(start).is_some_and(|t| t.is_ident("let")) {
                let mut j = start + 1;
                while toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                    out.insert(name.text.clone());
                }
            }
            continue;
        }
        // A type position: walk back over path segments (`std::sync::`),
        // wrapper generics (`Arc<`, `Vec<`), and `&`/`mut` to the binder.
        let mut j = i;
        while let Some(p) = j.checked_sub(1).map(|k| &toks[k]) {
            let seg = p.is_punct("::") && j >= 2 && toks[j - 2].kind == TokKind::Ident;
            let wrap =
                p.is_punct("<") && j >= 2 && WRAPPERS.iter().any(|w| toks[j - 2].is_ident(w));
            if seg || wrap {
                j -= 2;
            } else if p.is_punct("&") || p.is_ident("mut") || p.kind == TokKind::Lifetime {
                j -= 1;
            } else {
                break;
            }
        }
        // `name: [&]Mutex<…>` — a field, param, or ascribed binding.
        if j >= 2 && toks[j - 1].is_punct(":") && toks[j - 2].kind == TokKind::Ident {
            out.insert(toks[j - 2].text.clone());
            continue;
        }
        // `fn name(..) -> &Mutex<…>` — an accessor that exposes the lock.
        if j >= 2 && toks[j - 1].is_punct("->") && toks[j - 2].is_punct(")") {
            let mut depth = 1usize;
            let mut k = j - 2;
            while depth > 0 && k > 0 {
                k -= 1;
                if toks[k].is_punct(")") {
                    depth += 1;
                } else if toks[k].is_punct("(") {
                    depth -= 1;
                }
            }
            if k >= 2
                && toks[k - 1].kind == TokKind::Ident
                && toks[k - 2].is_ident("fn")
            {
                out.insert(toks[k - 1].text.clone());
            }
        }
    }
}

#[derive(Debug)]
struct HeldGuard {
    class: String,
    /// Brace depth at acquisition; released when depth drops below this.
    depth: usize,
    /// Binding name for `drop(name)` tracking (let-bound only).
    name: Option<String>,
    /// Transient guards die at the end of their statement.
    transient: bool,
}

fn collect_nestings(path: &str, toks: &[Tok], out: &mut Vec<Nesting>) {
    let mut held: Vec<HeldGuard> = Vec::new();
    let mut depth = 0usize;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            held.retain(|h| h.depth <= depth);
            i += 1;
            continue;
        }
        if t.is_punct(";") {
            held.retain(|h| !(h.transient && h.depth == depth));
            i += 1;
            continue;
        }
        // Explicit `drop(name)` releases a tracked guard.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(")"))
        {
            if let Some(name) = toks.get(i + 2).filter(|t| t.kind == TokKind::Ident) {
                held.retain(|h| h.name.as_deref() != Some(name.text.as_str()));
            }
        }
        // Acquisition forms: `<recv>.lock()/.read()/.write()` with no
        // arguments, or the std-mutex helper `locked(&self.<recv>, ..)`.
        let acq = acquisition_at(toks, i);
        if let Some((recv, call_end)) = acq {
            for h in &held {
                out.push(Nesting {
                    outer: h.class.clone(),
                    inner: recv.clone(),
                    site: Site {
                        path: path.to_string(),
                        line: t.line,
                        col: t.col,
                    },
                });
            }
            let (transient, name) = binding_of(toks, i, call_end);
            held.push(HeldGuard {
                class: recv,
                depth,
                name,
                transient,
            });
        }
        i += 1;
    }
}

/// If the token at `i` begins a lock acquisition, returns the receiver
/// name and the index of the call's closing `)`.
fn acquisition_at(toks: &[Tok], i: usize) -> Option<(String, usize)> {
    let t = &toks[i];
    if (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
        && i >= 2
        && toks[i - 1].is_punct(".")
        && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(")"))
    {
        return receiver_ident(toks, i - 2).map(|r| (r, i + 2));
    }
    // `locked(&self.health, "context")?` — the poison-tolerant std-mutex
    // helper in sync.rs. The class is the last ident of the first arg.
    if t.is_ident("locked")
        && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
        && !toks.get(i.wrapping_sub(1)).is_some_and(|t| t.is_ident("fn"))
    {
        let mut depth = 1usize;
        let mut j = i + 2;
        let mut last_ident: Option<String> = None;
        let mut first_arg_end = None;
        while j < toks.len() && depth > 0 {
            let u = &toks[j];
            if u.is_punct("(") || u.is_punct("[") {
                depth += 1;
            } else if u.is_punct(")") || u.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if u.is_punct(",") && depth == 1 && first_arg_end.is_none() {
                first_arg_end = Some(j);
            } else if u.kind == TokKind::Ident && depth == 1 && first_arg_end.is_none() {
                last_ident = Some(u.text.clone());
            }
            j += 1;
        }
        return last_ident.map(|r| (r, j));
    }
    None
}

/// Is the acquisition at `i` `let`-bound (guard outlives the statement)?
/// `call_end` is the index of the acquiring call's closing paren.
/// Returns `(transient, binding_name)`.
fn binding_of(toks: &[Tok], i: usize, call_end: usize) -> (bool, Option<String>) {
    let start = stmt_start(toks, i);
    let lets = toks[start..i].iter().position(|t| t.is_ident("let"));
    match lets {
        None => (true, None),
        Some(off) => {
            let mut j = start + off + 1;
            while toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let name = toks
                .get(j)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone());
            // `let g = x.lock().field;` binds a *projection*, not the guard —
            // the guard is a temporary and dies at the statement end.
            let end = stmt_end(toks, i);
            let guard_is_temporary = toks[call_end + 1..end.max(call_end + 1)]
                .iter()
                .any(|t| t.is_punct("."));
            (guard_is_temporary, name.filter(|_| !guard_is_temporary))
        }
    }
}

/// The workspace lock-acquisition graph, joined from per-file facts.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Canonical class names (singular-merged) declared anywhere.
    pub classes: BTreeSet<String>,
    /// Observed edges `outer → inner` with every site that exhibits them.
    pub edges: BTreeMap<(String, String), Vec<Site>>,
    /// Edges that lie inside a non-trivial SCC (deadlock hazards).
    pub cyclic: BTreeSet<(String, String)>,
    /// Derived coarse→fine order of classes that participate in edges
    /// (topological over the acyclic part, ties broken by name).
    pub order: Vec<String>,
    /// Same-class nestings: `(class, site)` — non-reentrant self-deadlock.
    pub recursive: Vec<(String, Site)>,
}

/// Canonicalizes a receiver name against the declared set: a trailing-`s`
/// plural collapses onto its declared singular (`shards` → `shard`).
fn canon(name: &str, declared: &BTreeSet<String>) -> String {
    if let Some(stem) = name.strip_suffix('s') {
        if !declared.contains(name) && declared.contains(stem) {
            return stem.to_string();
        }
        if declared.contains(name) && declared.contains(stem) {
            return stem.to_string();
        }
    }
    name.to_string()
}

/// Joins per-file facts into the workspace lock graph: filters nestings
/// to declared classes, finds SCC cycles, and derives the topo order.
pub fn analyze(all: &[FileLockFacts]) -> LockGraph {
    let mut declared: BTreeSet<String> = BTreeSet::new();
    for f in all {
        declared.extend(f.declared.iter().cloned());
    }

    let mut g = LockGraph {
        classes: declared.iter().map(|n| canon(n, &declared)).collect(),
        ..LockGraph::default()
    };

    for f in all {
        for n in &f.nestings {
            let outer = canon(&n.outer, &declared);
            let inner = canon(&n.inner, &declared);
            if !g.classes.contains(&outer) || !g.classes.contains(&inner) {
                continue; // not a lock we know about (I/O read/write, channels)
            }
            if outer == inner {
                g.recursive.push((inner, n.site.clone()));
            } else {
                g.edges
                    .entry((outer, inner))
                    .or_default()
                    .push(n.site.clone());
            }
        }
    }
    for sites in g.edges.values_mut() {
        sites.sort();
        sites.dedup();
    }
    g.recursive.sort_by(|a, b| (&a.1, &a.0).cmp(&(&b.1, &b.0)));

    let sccs = tarjan_sccs(&g.classes, &g.edges);
    let mut component: BTreeMap<&str, usize> = BTreeMap::new();
    for (idx, scc) in sccs.iter().enumerate() {
        for n in scc {
            component.insert(n, idx);
        }
    }
    for (a, b) in g.edges.keys() {
        let same = component.get(a.as_str()) == component.get(b.as_str());
        let nontrivial = component
            .get(a.as_str())
            .is_some_and(|i| sccs[*i].len() > 1);
        if same && nontrivial {
            g.cyclic.insert((a.clone(), b.clone()));
        }
    }

    g.order = derive_order(&g);
    g
}

/// Tarjan's strongly-connected components, deterministic (BTree order).
fn tarjan_sccs(
    nodes: &BTreeSet<String>,
    edges: &BTreeMap<(String, String), Vec<Site>>,
) -> Vec<Vec<String>> {
    let idx_of: BTreeMap<&str, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();
    let names: Vec<&str> = nodes.iter().map(String::as_str).collect();
    let n = names.len();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in edges.keys() {
        succ[idx_of[a.as_str()]].push(idx_of[b.as_str()]);
    }

    struct State {
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        out: Vec<Vec<usize>>,
    }
    fn strongconnect(v: usize, succ: &[Vec<usize>], s: &mut State) {
        s.index[v] = Some(s.next);
        s.low[v] = s.next;
        s.next += 1;
        s.stack.push(v);
        s.on_stack[v] = true;
        for &w in &succ[v] {
            if s.index[w].is_none() {
                strongconnect(w, succ, s);
                s.low[v] = s.low[v].min(s.low[w]);
            } else if s.on_stack[w] {
                s.low[v] = s.low[v].min(s.index[w].unwrap_or(usize::MAX));
            }
        }
        if Some(s.low[v]) == s.index[v] {
            let mut scc = Vec::new();
            while let Some(w) = s.stack.pop() {
                s.on_stack[w] = false;
                scc.push(w);
                if w == v {
                    break;
                }
            }
            s.out.push(scc);
        }
    }
    let mut st = State {
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if st.index[v].is_none() {
            strongconnect(v, &succ, &mut st);
        }
    }
    st.out
        .into_iter()
        .map(|scc| scc.into_iter().map(|i| names[i].to_string()).collect())
        .collect()
}

/// Kahn's algorithm over the acyclic part of the graph (cyclic edges
/// removed), ties broken lexicographically. Only classes that appear in
/// at least one edge are ordered — isolated classes carry no constraint.
fn derive_order(g: &LockGraph) -> Vec<String> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (a, b) in g.edges.keys() {
        nodes.insert(a);
        nodes.insert(b);
    }
    let acyclic: Vec<(&str, &str)> = g
        .edges
        .keys()
        .filter(|e| !g.cyclic.contains(*e))
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    let mut indeg: BTreeMap<&str, usize> = nodes.iter().map(|n| (*n, 0)).collect();
    for (_, b) in &acyclic {
        *indeg.entry(b).or_default() += 1;
    }
    let mut order = Vec::new();
    let mut remaining = nodes;
    while !remaining.is_empty() {
        let ready = remaining
            .iter()
            .find(|n| indeg.get(*n).copied().unwrap_or(0) == 0)
            .copied();
        // In-cycle nodes never reach in-degree 0 among themselves; break
        // the tie by taking the lexicographically first remaining node so
        // the order is still total and deterministic.
        let pick = ready.unwrap_or_else(|| remaining.iter().next().copied().unwrap_or(""));
        remaining.remove(pick);
        for (a, b) in &acyclic {
            if *a == pick && remaining.contains(b) {
                if let Some(d) = indeg.get_mut(b) {
                    *d = d.saturating_sub(1);
                }
            }
        }
        order.push(pick.to_string());
    }
    order
}

impl LockGraph {
    /// Human rendering of the derived order, used in messages.
    pub fn order_text(&self) -> String {
        if self.order.is_empty() {
            return "(no nestings observed)".to_string();
        }
        self.order.join(" \u{2192} ")
    }

    /// The diagnostics this graph implies: one `lock-cycle` per edge
    /// inside a non-trivial SCC (at its first observed site) and one
    /// `recursive-lock` per same-class nesting site.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for ((a, b), sites) in &self.edges {
            if !self.cyclic.contains(&(a.clone(), b.clone())) {
                continue;
            }
            let Some(site) = sites.first() else { continue };
            let scc: Vec<&str> = self
                .cyclic
                .iter()
                .filter(|(x, y)| x == a || y == a || x == b || y == b)
                .flat_map(|(x, y)| [x.as_str(), y.as_str()])
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            out.push(Diagnostic {
                rule: Rule::L1,
                check: "lock-cycle",
                path: site.path.clone(),
                line: site.line,
                col: site.col,
                message: format!(
                    "`{b}` acquired while holding `{a}` completes a lock cycle among \
                     {{{}}} — some other site nests them in the opposite direction",
                    scc.join(", ")
                ),
            });
        }
        for (class, site) in &self.recursive {
            out.push(Diagnostic {
                rule: Rule::L1,
                check: "recursive-lock",
                path: site.path.clone(),
                line: site.line,
                col: site.col,
                message: format!(
                    "`{class}` acquired while a `{class}` lock is already held; \
                     std locks are not reentrant"
                ),
            });
        }
        out.sort_by(|a, b| (&a.path, a.line, a.col, a.check).cmp(&(&b.path, b.line, b.col, b.check)));
        out
    }

    /// Renders the graph as GraphViz DOT. Cyclic edges are red; edge
    /// labels count observation sites; the derived order is the label.
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph lock_order {\n");
        s.push_str("    rankdir=LR;\n");
        s.push_str(&format!(
            "    label=\"derived lock order: {}\";\n",
            self.order_text()
        ));
        s.push_str("    node [shape=box, fontname=\"monospace\"];\n");
        let mut in_edges: BTreeSet<&str> = BTreeSet::new();
        for (a, b) in self.edges.keys() {
            in_edges.insert(a);
            in_edges.insert(b);
        }
        for class in &self.classes {
            if in_edges.contains(class.as_str()) {
                s.push_str(&format!("    \"{class}\";\n"));
            } else {
                s.push_str(&format!("    \"{class}\" [style=dotted];\n"));
            }
        }
        for ((a, b), sites) in &self.edges {
            let attrs = if self.cyclic.contains(&(a.clone(), b.clone())) {
                format!("label=\"{} site(s)\", color=red, penwidth=2", sites.len())
            } else {
                format!("label=\"{} site(s)\"", sites.len())
            };
            s.push_str(&format!("    \"{a}\" -> \"{b}\" [{attrs}];\n"));
        }
        s.push_str("}\n");
        s
    }
}

/// Single-file convenience: extract facts and analyze them in isolation.
/// The workspace runner joins facts across files instead, so cross-file
/// contradictions surface there; fixtures use this entry point.
pub fn check(path: &str, toks: &[Tok]) -> Vec<Diagnostic> {
    analyze(&[facts(path, toks)]).diagnostics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_non_test;

    const DECLS: &str = "struct S { policy: Mutex<P>, rng: Mutex<R>, stripes: Mutex<T>, \
                         shards: Vec<RwLock<M>>, wal: Mutex<W> }\n\
                         impl S { fn shard(&self, b: BlockId) -> &RwLock<M> { &self.shards[0] } }\n";

    fn run(body: &str) -> Vec<Diagnostic> {
        let src = format!("{DECLS}{body}");
        check("crates/cluster/src/namenode.rs", &lex_non_test(&src))
    }

    #[test]
    fn declaration_scan_finds_fields_accessors_wrappers_and_lets() {
        let toks = lex_non_test(
            "struct A { wal: Mutex<W>, shards: Vec<RwLock<M>>, cache: Arc<std::sync::Mutex<C>> }\n\
             fn stripe_for(&self, b: BlockId) -> &Mutex<Shard> { x }\n\
             fn main() { let queue = Arc::new(Mutex::new(Vec::new())); }\n\
             use crate::sync::Mutex;\n",
        );
        let f = facts("crates/cluster/src/x.rs", &toks);
        let got: Vec<&str> = f.declared.iter().map(String::as_str).collect();
        assert_eq!(got, vec!["cache", "queue", "shards", "stripe_for", "wal"]);
    }

    #[test]
    fn consistent_nesting_defines_an_order_without_diagnostics() {
        let d = run(
            "fn alloc(&self) {\n\
             let mut policy = self.policy.lock();\n\
             let mut rng = self.rng.lock();\n\
             let mut stripes = self.stripes.lock();\n\
             self.shard(id).write().insert(id, meta);\n\
             }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn derived_order_matches_observed_nesting() {
        let src = format!(
            "{DECLS}fn alloc(&self) {{\n\
             let mut policy = self.policy.lock();\n\
             let mut rng = self.rng.lock();\n\
             let mut stripes = self.stripes.lock();\n\
             let mut shard = self.shard(id).write();\n\
             self.wal.lock().append(rec);\n\
             }}"
        );
        let g = analyze(&[facts("a.rs", &lex_non_test(&src))]);
        assert_eq!(g.order, vec!["policy", "rng", "stripes", "shard", "wal"]);
        assert!(g.cyclic.is_empty());
    }

    #[test]
    fn opposite_directions_form_a_cycle() {
        let d = run(
            "fn one(&self) {\n\
             let p = self.policy.lock();\n\
             let s = self.stripes.lock();\n\
             }\n\
             fn two(&self) {\n\
             let s = self.stripes.lock();\n\
             let p = self.policy.lock();\n\
             }",
        );
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.check == "lock-cycle"));
        assert!(d[0].message.contains("policy") && d[0].message.contains("stripes"));
    }

    #[test]
    fn cross_file_join_finds_cycles_one_file_cannot() {
        let a = facts(
            "a.rs",
            &lex_non_test(
                "struct S { policy: Mutex<P>, stripes: Mutex<T> }\n\
                 fn one(&self) { let p = self.policy.lock(); let s = self.stripes.lock(); }",
            ),
        );
        let b = facts(
            "b.rs",
            &lex_non_test(
                "fn two(&self) { let s = self.stripes.lock(); let p = self.policy.lock(); }",
            ),
        );
        assert!(analyze(&[a]).diagnostics().is_empty());
        let a = facts(
            "a.rs",
            &lex_non_test(
                "struct S { policy: Mutex<P>, stripes: Mutex<T> }\n\
                 fn one(&self) { let p = self.policy.lock(); let s = self.stripes.lock(); }",
            ),
        );
        let joined = analyze(&[a, b]);
        let d = joined.diagnostics();
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.path == "b.rs"));
    }

    #[test]
    fn recursive_acquisition_is_flagged() {
        let d = run(
            "fn bad(&self) {\n\
             let a = self.shard(x).read();\n\
             let b = self.shard(y).read();\n\
             }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].check, "recursive-lock");
    }

    #[test]
    fn plural_and_singular_receivers_share_a_class() {
        let d = run(
            "fn bad(&self) {\n\
             let a = self.shards[i].read();\n\
             let b = self.shard(y).read();\n\
             }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].check, "recursive-lock");
    }

    #[test]
    fn guard_scope_ends_at_block_and_drop() {
        let ok_scoped = run(
            "fn f(&self) {\n\
             { let s = self.stripes.lock(); use_it(&s); }\n\
             let s2 = self.stripes.lock();\n\
             }",
        );
        assert!(ok_scoped.is_empty(), "{ok_scoped:?}");
        let ok_dropped = run(
            "fn f(&self) {\n\
             let s = self.stripes.lock();\n\
             drop(s);\n\
             let s2 = self.stripes.lock();\n\
             }",
        );
        assert!(ok_dropped.is_empty(), "{ok_dropped:?}");
    }

    #[test]
    fn transient_and_projection_guards_die_at_statement_end() {
        let d = run(
            "fn f(&self) {\n\
             self.stripes.lock().pending.push(x);\n\
             let n = self.stripes.lock().pending.len();\n\
             let s = self.stripes.lock();\n\
             }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn locked_helper_is_an_acquisition() {
        let src = "struct C { health: Mutex<F>, wal: Mutex<W> }\n\
                   fn a(&self) { let h = locked(&self.health, \"fd\")?; self.wal.lock().log(); }\n\
                   fn b(&self) { let w = self.wal.lock(); let h = locked(&self.health, \"fd\")?; }";
        let d = check("crates/cluster/src/cluster.rs", &lex_non_test(src));
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.check == "lock-cycle"));
    }

    #[test]
    fn unrelated_read_write_calls_are_ignored() {
        let d = run("fn f(&self) { file.write(); sock.read(); self.undeclared.lock(); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn dot_output_marks_cycles_and_order() {
        let src = format!(
            "{DECLS}fn one(&self) {{ let p = self.policy.lock(); self.rng.lock().next(); }}\n\
             fn two(&self) {{ let r = self.rng.lock(); self.policy.lock().choose(); }}"
        );
        let g = analyze(&[facts("a.rs", &lex_non_test(&src))]);
        let dot = g.to_dot();
        assert!(dot.contains("digraph lock_order"));
        assert!(dot.contains("color=red"), "{dot}");
        assert!(dot.contains("\"policy\" -> \"rng\""));
    }
}
