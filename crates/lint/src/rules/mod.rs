//! The rule families and their shared token-walking helpers.

pub mod durability;
pub mod lock_order;

use crate::lexer::{Tok, TokKind};

/// Walks backward from `i` (the index of the token *before* a `.method`
/// dot) to the identifier that anchors the receiver expression, skipping
/// one trailing `?` and balancing one `(...)` or `[...]` group.
///
/// `self.policy.lock()` → `policy` · `self.shard(b).read()` → `shard` ·
/// `self.shards[i].lock()` → `shards` · `guard.lock().keys()` → `lock`.
///
/// This is deliberately shallow: it identifies the *last named thing* the
/// call hangs off, which is what the lock-class graph keys on.
pub fn receiver_ident(toks: &[Tok], mut i: usize) -> Option<String> {
    loop {
        let t = toks.get(i)?;
        if t.is_punct("?") {
            i = i.checked_sub(1)?;
            continue;
        }
        if t.is_punct(")") || t.is_punct("]") {
            let open = if t.is_punct(")") { "(" } else { "[" };
            let close = &t.text;
            let mut depth = 1usize;
            loop {
                i = i.checked_sub(1)?;
                let u = toks.get(i)?;
                if u.is_punct(close) {
                    depth += 1;
                } else if u.is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            i = i.checked_sub(1)?;
            continue;
        }
        if t.kind == TokKind::Ident {
            return Some(t.text.clone());
        }
        return None;
    }
}

/// One `fn` item with a body: its name, visibility, whether a trait impl
/// encloses it, and the token range of its body.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Token index of the name identifier.
    pub name_idx: usize,
    /// `pub` / `pub(crate)` / `pub(super)`.
    pub is_pub: bool,
    /// Inside an `impl Trait for Type` block (methods there are public
    /// through the trait regardless of `pub`).
    pub in_trait_impl: bool,
    /// Token range of the body: opening `{` to matching `}` (inclusive).
    pub body: (usize, usize),
}

/// Finds every `fn` item that has a body. Bodiless trait declarations are
/// skipped. Function-pointer types (`fn(` with no name) are ignored.
pub fn functions(toks: &[Tok]) -> Vec<FnSpan> {
    let impls = impl_spans(toks);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        // Scan for the body `{` (or a `;` meaning no body) at bracket
        // depth 0, so parenthesized params and `Fn(..)` bounds don't fool
        // the scan.
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut body_open = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if depth == 0 && t.is_punct("{") {
                body_open = Some(j);
                break;
            } else if depth == 0 && t.is_punct(";") {
                break;
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i += 1;
            continue;
        };
        let close = matching_brace(toks, open);
        let enclosing = impls.iter().rfind(|s| s.body.0 < i && i < s.body.1);
        out.push(FnSpan {
            name: name_tok.text.clone(),
            name_idx: i + 1,
            is_pub: is_pub(toks, i),
            in_trait_impl: enclosing.is_some_and(|s| s.is_trait),
            body: (open, close),
        });
        i += 2;
    }
    out
}

/// Is the `fn` at `fn_idx` `pub`, `pub(crate)` or `pub(super)`?
fn is_pub(toks: &[Tok], fn_idx: usize) -> bool {
    let mut k = fn_idx;
    while k > 0
        && (toks[k - 1].is_ident("unsafe")
            || toks[k - 1].is_ident("const")
            || toks[k - 1].is_ident("async"))
    {
        k -= 1;
    }
    if k == 0 {
        return false;
    }
    if toks[k - 1].is_punct(")") {
        // Possibly `pub(crate)` / `pub(super)`.
        let mut depth = 1usize;
        let mut m = k - 1;
        while depth > 0 && m > 0 {
            m -= 1;
            if toks[m].is_punct(")") {
                depth += 1;
            } else if toks[m].is_punct("(") {
                depth -= 1;
            }
        }
        return m > 0 && toks[m - 1].is_ident("pub");
    }
    toks[k - 1].is_ident("pub")
}

/// Index of the `}` matching the `{` at `open` (or the last token).
pub fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct("{") {
            depth += 1;
        } else if toks[j].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

struct ImplSpan {
    is_trait: bool,
    body: (usize, usize),
}

fn impl_spans(toks: &[Tok]) -> Vec<ImplSpan> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("impl") {
            continue;
        }
        // `-> impl Iterator` and friends are type positions, not blocks.
        if i > 0 {
            let p = &toks[i - 1];
            if p.is_punct("->")
                || p.is_punct("(")
                || p.is_punct(",")
                || p.is_punct("<")
                || p.is_punct("&")
                || p.is_punct("+")
                || p.is_punct("=")
            {
                continue;
            }
        }
        let mut j = i + 1;
        let mut is_trait = false;
        while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
            is_trait |= toks[j].is_ident("for");
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct("{") {
            continue;
        }
        let close = matching_brace(toks, j);
        out.push(ImplSpan {
            is_trait,
            body: (j, close),
        });
    }
    out
}

/// Index of the token starting the statement containing `i`: one past the
/// previous `;`, `{` or `}` (or 0).
pub fn stmt_start(toks: &[Tok], i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        let t = &toks[j - 1];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return j;
        }
        j -= 1;
    }
    0
}

/// Scans forward from `i` to the end of the current statement (`;`, or a
/// `}` closing the enclosing block) and returns the token range scanned.
pub fn stmt_end(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        } else if t.is_punct(";") && depth == 0 {
            return j;
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn recv(src: &str, method: &str) -> Option<String> {
        let toks = lex(src);
        let at = toks.iter().position(|t| t.is_ident(method))?;
        receiver_ident(&toks, at.checked_sub(2)?)
    }

    #[test]
    fn receiver_walks_fields_calls_and_indexing() {
        assert_eq!(recv("self.policy.lock()", "lock").as_deref(), Some("policy"));
        assert_eq!(recv("self.shard(b).read()", "read").as_deref(), Some("shard"));
        assert_eq!(recv("self.shards[i * 2].lock()", "lock").as_deref(), Some("shards"));
        assert_eq!(recv("acked.iter()", "iter").as_deref(), Some("acked"));
        assert_eq!(recv("f(x)?.keys()", "keys").as_deref(), Some("f"));
        assert_eq!(recv("(a + b).keys()", "keys"), None);
    }

    #[test]
    fn function_spans_see_visibility_impls_and_bodies() {
        let toks = lex(
            "trait T { fn decl(&self); }\n\
             impl T for S { fn decl(&self) { body(); } }\n\
             impl S { pub fn get(&self, b: BlockId) -> Result<u8> { 1 } fn private(&self) {} }\n\
             pub(crate) fn helper<F: Fn(u32) -> u32>(f: F) { f(1); }",
        );
        let fns = functions(&toks);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["decl", "get", "private", "helper"]);
        assert!(fns[0].in_trait_impl);
        assert!(fns[1].is_pub && !fns[1].in_trait_impl);
        assert!(!fns[2].is_pub);
        assert!(fns[3].is_pub && !fns[3].in_trait_impl);
        // The helper's body excludes its Fn-bound parens.
        let (open, close) = fns[3].body;
        assert!(toks[open].is_punct("{") && toks[close].is_punct("}"));
    }

    #[test]
    fn stmt_bounds() {
        let toks = lex("let a = 1; let b = foo(x; y).bar; c");
        let b_pos = toks.iter().position(|t| t.is_ident("b")).unwrap();
        assert!(toks[stmt_start(&toks, b_pos) - 1].is_punct(";"));
        let end = stmt_end(&toks, b_pos);
        assert!(toks[end].is_punct(";"));
        assert!(toks[end - 1].is_ident("bar"));
    }
}
