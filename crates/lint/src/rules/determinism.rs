//! L2 — determinism hygiene.
//!
//! The chaos and heal soaks assert *bit-identical* reports across runs and
//! thread counts, and every placement / repair decision is driven by a seeded
//! `ear_types::rng::ChaCha8`. That only holds if deterministic modules never
//! consult ambient state. This rule forbids, in the deterministic crates:
//!
//! - **wall-clock**: `SystemTime` and `Instant::now` (stat fields that are
//!   documented as wall-clock-only are allowlisted per file);
//! - **ambient-rng**: `thread_rng` and `rand::random`, which seed from the
//!   OS (the workspace no longer depends on `rand`; this keeps it out);
//! - **map-iteration**: iterating a `HashMap`/`HashSet` (`.iter()`,
//!   `.keys()`, `.values()`, `.drain()`, `for .. in map`), whose order
//!   varies run-to-run. Iteration is exempt when the same statement
//!   re-sorts the result or reduces it order-insensitively (`count`,
//!   `sum`, `min`, `max`, `all`, `any`) or collects it straight into
//!   another map/set.
//!
//! Map-typed names are discovered per file from type ascriptions
//! (`x: HashMap<..>`, fields, params) and constructor bindings
//! (`let x = HashMap::new()`); the analysis is intra-file and intentionally
//! simple — the sweep converts anything it flags to `BTreeMap`/`BTreeSet`
//! or a sorted `Vec`.

use super::{receiver_ident, stmt_end};
use crate::diag::{Diagnostic, Rule};
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

const ORDER_INSENSITIVE: &[&str] = &["count", "sum", "min", "max", "all", "any", "contains"];

const SORTERS: &[&str] = &["sort", "sort_by", "sort_by_key", "sort_unstable", "sort_unstable_by", "sort_unstable_by_key"];

const MAP_SINKS: &[&str] = &["HashMap", "HashSet", "BTreeMap", "BTreeSet"];

/// Runs the rule over one file's non-test tokens.
pub fn check(path: &str, toks: &[Tok]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let map_names = hash_typed_names(toks);

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // Wall-clock sources.
        if t.is_ident("SystemTime") {
            out.push(diag(path, t, "wall-clock", "SystemTime consulted in a deterministic module"));
        }
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("now"))
        {
            out.push(diag(path, t, "wall-clock", "Instant::now() consulted in a deterministic module"));
        }
        // Ambient RNGs.
        if t.is_ident("thread_rng") {
            out.push(diag(path, t, "ambient-rng", "thread_rng() is OS-seeded; use an ear_types::rng::ChaCha8 derived from the run seed"));
        }
        if t.is_ident("rand")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("random"))
        {
            out.push(diag(path, t, "ambient-rng", "rand::random() is OS-seeded; use an ear_types::rng::ChaCha8 derived from the run seed"));
        }
        // `.iter()`-style calls on map-typed receivers.
        if t.kind == TokKind::Ident
            && ITER_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            if let Some(recv) = receiver_ident(toks, i - 2) {
                if map_names.contains(recv.as_str()) && !statement_is_exempt(toks, i) {
                    out.push(diag(
                        path,
                        t,
                        "map-iteration",
                        &format!(
                            "iteration over hash-ordered `{recv}` leaks nondeterministic order; \
                             use BTreeMap/BTreeSet, sort the result, or reduce order-insensitively"
                        ),
                    ));
                }
            }
        }
        // `for pat in [&mut] map { .. }`.
        if t.is_ident("for") {
            if let Some((name_tok, recv)) = for_loop_over(toks, i) {
                if map_names.contains(recv.as_str()) {
                    out.push(diag(
                        path,
                        name_tok,
                        "map-iteration",
                        &format!(
                            "`for` over hash-ordered `{recv}` leaks nondeterministic order; \
                             use BTreeMap/BTreeSet or iterate a sorted copy"
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
    out
}

/// Collects identifiers declared with a `HashMap`/`HashSet` type in this
/// file: type ascriptions (fields, params, lets) and constructor bindings.
fn hash_typed_names(toks: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over `std :: collections ::` path prefixes, `&`, `mut`
        // and lifetimes to find `name :` or `name =`.
        let mut j = i;
        while j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        while j >= 1
            && (toks[j - 1].is_punct("&")
                || toks[j - 1].is_ident("mut")
                || toks[j - 1].kind == TokKind::Lifetime)
        {
            j -= 1;
        }
        if j >= 2 && (toks[j - 1].is_punct(":") || toks[j - 1].is_punct("=")) && toks[j - 2].kind == TokKind::Ident {
            let name = &toks[j - 2];
            // `=` bindings only count for constructor calls (`= HashMap::new()`).
            if (toks[j - 1].is_punct(":") || constructor_follows(toks, i))
                && !name.is_ident("mut")
            {
                names.insert(name.text.clone());
            }
        }
    }
    names
}

fn constructor_follows(toks: &[Tok], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
        && toks
            .get(i + 2)
            .is_some_and(|t| t.is_ident("new") || t.is_ident("with_capacity") || t.is_ident("default") || t.is_ident("from"))
}

/// Is the statement containing the iteration at `i` exempt? True when the
/// chain is re-sorted, reduced order-insensitively, or collected straight
/// back into a map/set, all within the same statement.
fn statement_is_exempt(toks: &[Tok], i: usize) -> bool {
    let end = stmt_end(toks, i);
    let mut j = i;
    while j < end {
        let t = &toks[j];
        if t.kind == TokKind::Ident && toks.get(j.wrapping_sub(1)).is_some_and(|p| p.is_punct(".")) {
            let m = t.text.as_str();
            if ORDER_INSENSITIVE.contains(&m) || SORTERS.contains(&m) {
                return true;
            }
            if m == "collect" && collect_target_is_map(toks, j, end) {
                return true;
            }
        }
        j += 1;
    }
    // `let x: HashMap<..> = y.iter()...collect();` — the ascription names the sink.
    let start = super::stmt_start(toks, i);
    toks[start..i].iter().any(|t| MAP_SINKS.contains(&t.text.as_str()))
}

fn collect_target_is_map(toks: &[Tok], j: usize, end: usize) -> bool {
    // `.collect::<HashMap<_, _>>()` — look for a map name in the turbofish.
    if toks.get(j + 1).is_some_and(|t| t.is_punct("::")) {
        let stop = end.min(j + 12);
        return toks[j + 2..stop].iter().any(|t| MAP_SINKS.contains(&t.text.as_str()));
    }
    false
}

/// If `toks[i]` is a `for` loop whose iterated expression is a plain
/// (possibly `&`/`&mut`-prefixed) identifier path, returns the token to
/// anchor the diagnostic on and the final identifier.
fn for_loop_over(toks: &[Tok], i: usize) -> Option<(&Tok, String)> {
    // Find the `in` at pattern depth 0, then the body `{` at expr depth 0.
    let mut j = i + 1;
    let mut depth = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if t.is_ident("in") && depth == 0 {
            break;
        } else if t.is_punct("{") || t.is_punct(";") {
            return None; // not a for-loop header after all
        }
        j += 1;
    }
    let expr_start = j + 1;
    let mut k = expr_start;
    let mut depth = 0i32;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if t.is_punct("{") && depth == 0 {
            break;
        }
        k += 1;
    }
    if k == expr_start || k >= toks.len() {
        return None;
    }
    // Expression must be `[&[mut]] ident[.ident]*` — anything else (calls,
    // ranges, indexing) is either covered by the method check or not a map.
    let expr = &toks[expr_start..k];
    let mut seen_ident = false;
    for (n, t) in expr.iter().enumerate() {
        let ok = (!seen_ident && (t.is_punct("&") || t.is_ident("mut")))
            || t.kind == TokKind::Ident
            || t.is_punct(".");
        if t.kind == TokKind::Ident {
            seen_ident = true;
        }
        if !ok || (t.is_punct(".") && n + 1 == expr.len()) {
            return None;
        }
    }
    let last = expr.iter().rev().find(|t| t.kind == TokKind::Ident)?;
    Some((&toks[i], last.text.clone()))
}

fn diag(path: &str, t: &Tok, check: &'static str, message: &str) -> Diagnostic {
    Diagnostic {
        rule: Rule::L2,
        check,
        path: path.to_string(),
        line: t.line,
        col: t.col,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_non_test;

    fn run(src: &str) -> Vec<Diagnostic> {
        check("crates/cluster/src/x.rs", &lex_non_test(src))
    }

    #[test]
    fn flags_wall_clock_and_ambient_rng() {
        let d = run("fn f() { let t = Instant::now(); let s = SystemTime::now(); let r = thread_rng(); let v: u8 = rand::random(); }");
        let checks: Vec<&str> = d.iter().map(|d| d.check).collect();
        assert_eq!(checks, vec!["wall-clock", "wall-clock", "ambient-rng", "ambient-rng"]);
    }

    #[test]
    fn flags_map_iteration_but_not_ordered_reductions() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n\
                   let bad: Vec<u32> = m.keys().copied().collect();\n\
                   let ok: usize = m.values().map(|v| *v as usize).sum();\n\
                   let ok2 = m.iter().count();\n\
                   for (k, v) in m { use_it(k, v); }\n\
                   }";
        let d = run(src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.check == "map-iteration"));
        assert_eq!(d[0].line, 2);
        assert_eq!(d[1].line, 5);
    }

    #[test]
    fn sorting_in_same_statement_is_exempt() {
        let d = run(
            "fn f() { let mut m = HashMap::new(); m.insert(1, 2);\n\
             let mut v: Vec<_> = m.keys().copied().collect::<Vec<_>>(); v.sort();\n }",
        );
        // `.collect::<Vec<_>>()` alone is still flagged — the sort happens in
        // the *next* statement, which the analysis does not see.
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn collecting_into_a_map_is_exempt() {
        let d = run(
            "fn f(m: HashSet<u32>) { let n: HashSet<u32> = m.iter().map(|x| x + 1).collect(); \
             let o = m.iter().map(|x| (*x, 0)).collect::<BTreeMap<u32, u32>>(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn btree_maps_are_fine() {
        let d = run("fn f(m: &BTreeMap<u32, u32>) { for (k, v) in m { g(k, v); } let _: Vec<_> = m.keys().collect(); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_code_is_ignored() {
        let d = run("#[cfg(test)] mod tests { fn f() { let t = Instant::now(); } }");
        assert!(d.is_empty());
    }
}
