//! A small self-contained Rust lexer.
//!
//! `ear-lint` runs in registry-less containers, so it cannot depend on
//! `syn`/`proc-macro2`. The rules it enforces (lock order, durability
//! order) only need a faithful token stream with source
//! positions — not a full AST — so this module lexes Rust source into a
//! flat `Vec<Tok>`: identifiers, literals, lifetimes, and punctuation,
//! with comments and whitespace dropped and strings kept opaque.
//!
//! The lexer is intentionally forgiving: on malformed input it produces
//! *some* token stream rather than erroring, because the linter must never
//! block a build on code that `rustc` itself accepts.

/// Kinds of lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`self`, `lock`, `fn`, ...).
    Ident,
    /// Lifetime (`'a`) — text excludes the quote.
    Lifetime,
    /// Numeric literal (`0`, `0x1F`, `1.5`).
    Num,
    /// String / raw-string / byte-string literal (text is the raw slice).
    Str,
    /// Character or byte-character literal.
    Char,
    /// Punctuation. Multi-character operators `::`, `..=`, `..`, `->`,
    /// `=>` are joined into single tokens; everything else is one char.
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text (identifier name, punct characters, literal slice).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in bytes).
    pub col: u32,
    /// Byte offset of the token start.
    pub off: usize,
}

impl Tok {
    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Lexes `src` into a token stream, dropping comments and whitespace.
pub fn lex(src: &str) -> Vec<Tok> {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(c) = cur.peek() {
        let (line, col, off) = (cur.line, cur.col, cur.pos);
        if c.is_ascii_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == b'/' && cur.peek_at(1) == Some(b'/') {
            while let Some(c) = cur.peek() {
                if c == b'\n' {
                    break;
                }
                cur.bump();
            }
            continue;
        }
        if c == b'/' && cur.peek_at(1) == Some(b'*') {
            cur.bump();
            cur.bump();
            let mut depth = 1usize;
            while depth > 0 {
                match cur.bump() {
                    None => break,
                    Some(b'/') if cur.peek() == Some(b'*') => {
                        cur.bump();
                        depth += 1;
                    }
                    Some(b'*') if cur.peek() == Some(b'/') => {
                        cur.bump();
                        depth -= 1;
                    }
                    Some(_) => {}
                }
            }
            continue;
        }
        // Raw strings and raw/byte prefixes: r"..", r#".."#, br".." , b"..".
        if (c == b'r' || c == b'b') && raw_string_ahead(&cur) {
            lex_raw_or_prefixed_string(&mut cur);
            push(&mut out, TokKind::Str, src, off, cur.pos, line, col);
            continue;
        }
        if c == b'b' && cur.peek_at(1) == Some(b'\'') {
            cur.bump(); // b
            cur.bump(); // '
            lex_char_body(&mut cur);
            push(&mut out, TokKind::Char, src, off, cur.pos, line, col);
            continue;
        }
        if c == b'"' {
            cur.bump();
            lex_string_body(&mut cur);
            push(&mut out, TokKind::Str, src, off, cur.pos, line, col);
            continue;
        }
        if c == b'\'' {
            // Lifetime vs char literal.
            cur.bump();
            if lifetime_ahead(&cur) {
                while cur.peek().is_some_and(is_ident_continue) {
                    cur.bump();
                }
                push(&mut out, TokKind::Lifetime, src, off + 1, cur.pos, line, col);
            } else {
                lex_char_body(&mut cur);
                push(&mut out, TokKind::Char, src, off, cur.pos, line, col);
            }
            continue;
        }
        if is_ident_start(c) {
            // Raw identifiers: r#ident.
            if c == b'r' && cur.peek_at(1) == Some(b'#') && cur.peek_at(2).is_some_and(is_ident_start)
            {
                cur.bump();
                cur.bump();
            }
            let start = cur.pos;
            while cur.peek().is_some_and(is_ident_continue) {
                cur.bump();
            }
            push(&mut out, TokKind::Ident, src, start, cur.pos, line, col);
            continue;
        }
        if c.is_ascii_digit() {
            while cur.peek().is_some_and(is_ident_continue) {
                cur.bump();
            }
            // A fractional part, but never the start of a `..` range.
            if cur.peek() == Some(b'.') && cur.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
                cur.bump();
                while cur.peek().is_some_and(is_ident_continue) {
                    cur.bump();
                }
            }
            push(&mut out, TokKind::Num, src, off, cur.pos, line, col);
            continue;
        }
        // Punctuation, joining the few multi-char operators the rules use.
        let joined: &[&str] = &["::", "..=", "..", "->", "=>"];
        let rest = &src[cur.pos..];
        let mut emitted = false;
        for j in joined {
            if rest.starts_with(j) {
                for _ in 0..j.len() {
                    cur.bump();
                }
                out.push(Tok {
                    kind: TokKind::Punct,
                    text: (*j).to_string(),
                    line,
                    col,
                    off,
                });
                emitted = true;
                break;
            }
        }
        if !emitted {
            cur.bump();
            out.push(Tok {
                kind: TokKind::Punct,
                text: (c as char).to_string(),
                line,
                col,
                off,
            });
        }
    }
    out
}

fn push(out: &mut Vec<Tok>, kind: TokKind, src: &str, start: usize, end: usize, line: u32, col: u32) {
    out.push(Tok {
        kind,
        text: src[start..end].to_string(),
        line,
        col,
        off: start,
    });
}

/// After consuming a `'`, decide lifetime vs char literal: `'a` followed by
/// anything other than a closing `'` is a lifetime; `'a'`, `'\n'`, `'\''`
/// are char literals.
fn lifetime_ahead(cur: &Cursor<'_>) -> bool {
    match cur.peek() {
        Some(b'\\') => false,
        Some(c) if is_ident_start(c) => {
            let mut i = 1;
            while cur.peek_at(i).is_some_and(is_ident_continue) {
                i += 1;
            }
            cur.peek_at(i) != Some(b'\'')
        }
        _ => false,
    }
}

/// Consumes a char-literal body after the opening quote.
fn lex_char_body(cur: &mut Cursor<'_>) {
    if cur.bump() == Some(b'\\') {
        cur.bump();
        // \x41 and \u{..} escapes: consume until the closing quote.
        while cur.peek().is_some() && cur.peek() != Some(b'\'') {
            cur.bump();
        }
    }
    while cur.peek().is_some() && cur.peek() != Some(b'\'') {
        cur.bump();
    }
    cur.bump(); // closing '
}

/// Consumes a string-literal body after the opening quote.
fn lex_string_body(cur: &mut Cursor<'_>) {
    while let Some(c) = cur.bump() {
        match c {
            b'\\' => {
                cur.bump();
            }
            b'"' => break,
            _ => {}
        }
    }
}

/// Does a raw or prefixed string start here? (`r"`, `r#`, `br"`, `br#`, `b"`)
fn raw_string_ahead(cur: &Cursor<'_>) -> bool {
    let (a, b, c) = (cur.peek(), cur.peek_at(1), cur.peek_at(2));
    match (a, b) {
        (Some(b'r'), Some(b'"')) | (Some(b'r'), Some(b'#')) => {
            // `r#ident` is a raw identifier, not a raw string.
            !(b == Some(b'#') && c.is_some_and(is_ident_start))
        }
        (Some(b'b'), Some(b'"')) => true,
        (Some(b'b'), Some(b'r')) => matches!(c, Some(b'"') | Some(b'#')),
        _ => false,
    }
}

/// Consumes `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#` forms.
fn lex_raw_or_prefixed_string(cur: &mut Cursor<'_>) {
    // Skip prefix letters.
    while matches!(cur.peek(), Some(b'r') | Some(b'b')) {
        cur.bump();
    }
    let mut hashes = 0usize;
    while cur.peek() == Some(b'#') {
        hashes += 1;
        cur.bump();
    }
    if cur.peek() != Some(b'"') {
        return;
    }
    cur.bump(); // opening quote
    if hashes == 0 {
        if cur.src.get(cur.pos.wrapping_sub(2)) == Some(&b'b') {
            // b"..." supports escapes.
            lex_string_body(cur);
            return;
        }
        // r"..." — no escapes, ends at first quote.
        while let Some(c) = cur.bump() {
            if c == b'"' {
                return;
            }
        }
        return;
    }
    // Ends at `"` followed by `hashes` #s.
    loop {
        match cur.bump() {
            None => return,
            Some(b'"') => {
                let mut n = 0usize;
                while n < hashes && cur.peek() == Some(b'#') {
                    cur.bump();
                    n += 1;
                }
                if n == hashes {
                    return;
                }
            }
            Some(_) => {}
        }
    }
}

/// Byte ranges of test-only code: any item annotated `#[test]`, `#[cfg(test)]`
/// or similar (an attribute whose tokens mention `test`), extending to the end
/// of the item's `{ ... }` block (or trailing `;` for block-less items).
///
/// The linter drops tokens inside these ranges before running rules — tests
/// are allowed to take locks and write files freely.
pub fn test_code_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let start_off = toks[i].off;
            // Find the matching `]` of the attribute.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut mentions_test = false;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct("[") {
                    depth += 1;
                } else if toks[j].is_punct("]") {
                    depth -= 1;
                } else if toks[j].is_ident("test") {
                    mentions_test = true;
                }
                j += 1;
            }
            if mentions_test {
                // Skip any further attributes, then run to the end of the item.
                let mut k = j;
                while k < toks.len() && toks[k].is_punct("#") && toks.get(k + 1).is_some_and(|t| t.is_punct("["))
                {
                    let mut d = 1usize;
                    k += 2;
                    while k < toks.len() && d > 0 {
                        if toks[k].is_punct("[") {
                            d += 1;
                        } else if toks[k].is_punct("]") {
                            d -= 1;
                        }
                        k += 1;
                    }
                }
                // The item ends at its first top-level `;`, or at the brace
                // block that starts at the first `{`.
                while k < toks.len() && !toks[k].is_punct("{") && !toks[k].is_punct(";") {
                    k += 1;
                }
                if k < toks.len() && toks[k].is_punct("{") {
                    let mut d = 1usize;
                    k += 1;
                    while k < toks.len() && d > 0 {
                        if toks[k].is_punct("{") {
                            d += 1;
                        } else if toks[k].is_punct("}") {
                            d -= 1;
                        }
                        k += 1;
                    }
                }
                let end_off = toks
                    .get(k.saturating_sub(1))
                    .map(|t| t.off + t.text.len())
                    .unwrap_or(usize::MAX);
                spans.push((start_off, end_off));
                i = k;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

/// Returns the tokens of `src` with test-only items removed.
pub fn lex_non_test(src: &str) -> Vec<Tok> {
    let toks = lex(src);
    let spans = test_code_spans(&toks);
    if spans.is_empty() {
        return toks;
    }
    toks.into_iter()
        .filter(|t| !spans.iter().any(|&(a, b)| t.off >= a && t.off < b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_idents_puncts_and_joined_ops() {
        let toks = lex("self.policy.lock()?; a..=b; x -> y");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["self", ".", "policy", ".", "lock", "(", ")", "?", ";", "a", "..=", "b", ";", "x", "->", "y"]
        );
    }

    #[test]
    fn distinguishes_lifetimes_from_chars() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let toks = lex("// unwrap() in comment\nlet s = \"x.unwrap()\"; /* .lock() */ s");
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(!toks.iter().any(|t| t.is_ident("lock")));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn raw_strings_terminate_correctly() {
        let toks = lex(r####"let s = r#"has "quotes" inside"#; done"####);
        assert!(toks.iter().any(|t| t.is_ident("done")));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn raw_strings_with_adjacent_hashes_do_not_close_early() {
        // `"#` inside an `r##"..."##` string must not terminate it — only
        // a quote followed by the full hash count does. A premature close
        // would surface `unwrap` as a phantom token for the rules.
        let toks = lex(r#####"let s = r##"mid "# x.unwrap() "# end"##; done"#####);
        assert!(toks.iter().any(|t| t.is_ident("done")));
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn byte_and_byte_raw_strings_are_opaque() {
        // b"..." honours escapes (the \" must not close it); br#"..."# is
        // raw, so a lone backslash before the closing quote is literal.
        let toks = lex("let a = b\"esc \\\" .lock()\"; let b = br#\"raw \\ .unwrap()\"#; done");
        assert!(toks.iter().any(|t| t.is_ident("done")));
        assert!(!toks.iter().any(|t| t.is_ident("lock")));
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
    }

    #[test]
    fn empty_raw_string_and_raw_identifiers() {
        // r#"..."# with empty body, and r#match — a raw *identifier*, not
        // a raw string — must both lex cleanly; the raw identifier yields
        // its bare name so keyword-collision code still matches by ident.
        let toks = lex(r####"let r#match = r#""#; done"####);
        assert!(toks.iter().any(|t| t.is_ident("match")));
        assert!(toks.iter().any(|t| t.is_ident("done")));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn nested_block_comments_are_fully_skipped() {
        // Rust block comments nest: the inner `*/` closes only the inner
        // comment. Stopping at the first `*/` would leak `.lock()` tokens.
        let toks = lex("/* outer /* inner */ still .lock() comment */ done");
        assert!(toks.iter().any(|t| t.is_ident("done")));
        assert!(!toks.iter().any(|t| t.is_ident("lock")));
        let toks = lex("/**/ tight /*/ unbalanced-open-is-opaque");
        assert!(toks.iter().any(|t| t.is_ident("tight")));
        assert_eq!(toks.len(), 1, "unterminated comment swallows the rest");
    }

    #[test]
    fn strings_inside_comments_and_comments_inside_strings() {
        // A quote inside a comment must not open a string, and `/*` inside
        // a string must not open a comment.
        let toks = lex("/* \" */ a = \"/* not a comment */\"; done");
        assert!(toks.iter().any(|t| t.is_ident("done")));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert!(!toks.iter().any(|t| t.is_ident("not")));
    }

    #[test]
    fn line_numbers_are_tracked() {
        let toks = lex("a\nb\n  c");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
        assert_eq!(toks[2].col, 3);
    }

    #[test]
    fn cfg_test_items_are_excluded() {
        let src = "fn real() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\nfn after() {}";
        let toks = lex_non_test(src);
        assert_eq!(toks.iter().filter(|t| t.is_ident("unwrap")).count(), 1);
        assert!(toks.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn test_attr_fn_is_excluded() {
        let src = "#[test]\nfn t() { y.unwrap(); }\nfn real() { x.unwrap(); }";
        let toks = lex_non_test(src);
        assert_eq!(toks.iter().filter(|t| t.is_ident("unwrap")).count(), 1);
        assert!(toks.iter().any(|t| t.is_ident("real")));
    }
}
