//! L4 — durability ordering in the persistence layer.
//!
//! The durable stores (wal.rs, extent.rs, and the MANIFEST writer in
//! cluster.rs) rely on three protocols that rustc cannot check
//! (DESIGN.md §13):
//!
//! - **fsync-before-ack**: a function that is an acknowledgement point
//!   (public, or a trait-impl method — callers treat its `Ok` as "the
//!   bytes are durable") and that *transitively* performs a raw file
//!   write (`write_all`, `write_all_at`, `set_len`, `fs::write`) must
//!   also transitively reach a `sync_all`/`sync_data` call. Reachability
//!   is computed over the file-local call graph, so a private
//!   `write_seg` helper is fine as long as the public `put` that calls
//!   it also calls `barrier()` (which syncs).
//! - **rename-then-dir-fsync**: a `rename` is only durable once the
//!   parent directory is fsynced, so every `rename(..)` must be followed
//!   (later in the same function) by a `sync_all` / `sync_data` /
//!   `fsync_dir` call.
//! - **header-last commit**: within one function, a write whose
//!   arguments mention a `header` must come *after* every write whose
//!   arguments mention a `payload` — writing payload bytes after the
//!   header has been committed breaks the "header commits the record"
//!   crash guarantee.
//!
//! The checks are presence-based: stores that run with fsync off
//! (`sync: false` test configs) still *contain* the sync calls, which is
//! what the rule verifies.

use super::{functions, FnSpan};
use crate::diag::{Diagnostic, Rule};
use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Raw file-write calls that make a function a durability concern.
const WRITE_FNS: &[&str] = &["write_all", "write_all_at", "set_len"];

/// Calls that make writes durable.
const SYNC_FNS: &[&str] = &["sync_all", "sync_data"];

/// Runs the rule over one file's non-test tokens.
pub fn check(path: &str, toks: &[Tok]) -> Vec<Diagnostic> {
    let fns = functions(toks);
    let mut out = Vec::new();
    out.extend(ack_without_sync(path, toks, &fns));
    out.extend(rename_without_dir_fsync(path, toks, &fns));
    out.extend(payload_after_header(path, toks, &fns));
    out
}

/// Does the token at `i` start a call (`ident (`)?
fn is_call(toks: &[Tok], i: usize) -> bool {
    toks[i].kind == TokKind::Ident && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
}

/// Is the token at `i` a raw file-write call? (`fs::write` counts;
/// a bare `write` does not — it is also the lock-acquisition method.)
fn is_write_call(toks: &[Tok], i: usize) -> bool {
    if !is_call(toks, i) {
        return false;
    }
    if WRITE_FNS.iter().any(|w| toks[i].is_ident(w)) {
        return true;
    }
    toks[i].is_ident("write")
        && i >= 2
        && toks[i - 1].is_punct("::")
        && toks[i - 2].is_ident("fs")
}

fn ack_without_sync(path: &str, toks: &[Tok], fns: &[FnSpan]) -> Vec<Diagnostic> {
    // Per-function facts: does it write / sync directly, whom does it call?
    let mut writes: Vec<bool> = Vec::with_capacity(fns.len());
    let mut syncs: Vec<bool> = Vec::with_capacity(fns.len());
    let mut calls: Vec<BTreeSet<String>> = Vec::with_capacity(fns.len());
    for f in fns {
        let (open, close) = f.body;
        let mut w = false;
        let mut s = false;
        let mut c = BTreeSet::new();
        for i in open..=close.min(toks.len() - 1) {
            if is_write_call(toks, i) {
                w = true;
            }
            if is_call(toks, i) {
                if SYNC_FNS.iter().any(|x| toks[i].is_ident(x)) {
                    s = true;
                }
                c.insert(toks[i].text.clone());
            }
        }
        writes.push(w);
        syncs.push(s);
        calls.push(c);
    }

    // Transitive closure over the file-local call graph (by name; same-
    // named methods on different impls are merged conservatively).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..fns.len() {
            for callee in calls[i].clone() {
                for &j in by_name.get(callee.as_str()).into_iter().flatten() {
                    if writes[j] && !writes[i] {
                        writes[i] = true;
                        changed = true;
                    }
                    if syncs[j] && !syncs[i] {
                        syncs[i] = true;
                        changed = true;
                    }
                }
            }
        }
    }

    fns.iter()
        .enumerate()
        .filter(|(i, f)| (f.is_pub || f.in_trait_impl) && writes[*i] && !syncs[*i])
        .map(|(_, f)| {
            let t = &toks[f.name_idx];
            diag(
                path,
                t,
                "ack-without-sync",
                &format!(
                    "`{}` is an acknowledgement point that reaches a raw file write but no \
                     `sync_all`/`sync_data` — callers will treat unsynced bytes as durable",
                    f.name
                ),
            )
        })
        .collect()
}

fn rename_without_dir_fsync(path: &str, toks: &[Tok], fns: &[FnSpan]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("rename") && is_call(toks, i)) {
            continue;
        }
        let Some(f) = fns.iter().find(|f| f.body.0 < i && i < f.body.1) else {
            continue;
        };
        let rest = &toks[i..=f.body.1.min(toks.len() - 1)];
        let followed = rest.iter().any(|u| {
            SYNC_FNS.iter().any(|x| u.is_ident(x)) || u.is_ident("fsync_dir")
        });
        if !followed {
            out.push(diag(
                path,
                t,
                "rename-without-dir-fsync",
                "`rename` is not followed by a directory fsync in this function — the rename \
                 itself is not durable until the parent directory is synced",
            ));
        }
    }
    out
}

fn payload_after_header(path: &str, toks: &[Tok], fns: &[FnSpan]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in fns {
        let (open, close) = f.body;
        let mut header_seen = false;
        let mut i = open;
        while i < close.min(toks.len()) {
            let writeish = toks[i].kind == TokKind::Ident
                && toks[i].text.starts_with("write")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("("));
            if writeish {
                // Classify by the idents inside the call's argument list.
                let mut depth = 0usize;
                let mut j = i + 1;
                let mut mentions_header = false;
                let mut mentions_payload = false;
                while j < toks.len() {
                    let u = &toks[j];
                    if u.is_punct("(") {
                        depth += 1;
                    } else if u.is_punct(")") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if u.kind == TokKind::Ident {
                        if u.text.contains("header") || u.text.contains("hdr") {
                            mentions_header = true;
                        }
                        if u.text.contains("payload") {
                            mentions_payload = true;
                        }
                    }
                    j += 1;
                }
                if mentions_payload && header_seen {
                    out.push(diag(
                        path,
                        &toks[i],
                        "payload-after-header",
                        &format!(
                            "`{}` writes payload bytes after the header has already been \
                             written — the header must be the last write of a commit",
                            f.name
                        ),
                    ));
                }
                if mentions_header && !mentions_payload {
                    header_seen = true;
                }
                i = j;
                continue;
            }
            i += 1;
        }
    }
    out
}

fn diag(path: &str, t: &Tok, check: &'static str, message: &str) -> Diagnostic {
    Diagnostic {
        rule: Rule::L4,
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
        check("crates/cluster/src/wal.rs", &lex_non_test(src))
    }

    #[test]
    fn pub_write_without_sync_is_flagged() {
        let d = run("pub fn append(&self, rec: &[u8]) { self.file.write_all(rec); }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].check, "ack-without-sync");
    }

    #[test]
    fn sync_through_a_helper_is_reachable() {
        let d = run(
            "pub fn append(&self) { self.write_seg(b); self.barrier(); }\n\
             fn write_seg(&self, b: &[u8]) { self.file.write_all_at(b, 0); }\n\
             fn barrier(&self) { if self.sync { self.file.sync_data(); } }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn private_helpers_are_not_ack_points() {
        let d = run("fn write_seg(&self, b: &[u8]) { self.file.write_all_at(b, 0); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn trait_impl_methods_are_ack_points() {
        let d = run(
            "impl BlockStore for ExtentStore { fn put(&self, b: &[u8]) { f.write_all(b); } }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].check, "ack-without-sync");
    }

    #[test]
    fn fs_write_counts_but_bare_write_does_not() {
        let d = run("pub fn save(&self) { fs::write(&tmp, &bytes); }");
        assert_eq!(d.len(), 1, "{d:?}");
        // `.write()` is the RwLock method; it must not look like file I/O.
        let d = run("pub fn update(&self) { self.shard(b).write().insert(k, v); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn rename_needs_a_following_dir_fsync() {
        let bad = run("pub fn commit(&self) { fs::rename(&tmp, &dst); }");
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].check, "rename-without-dir-fsync");
        let ok = run("pub fn commit(&self) { fs::rename(&tmp, &dst); fsync_dir(&self.dir); }");
        assert!(ok.is_empty(), "{ok:?}");
        let ok2 = run(
            "pub fn commit(&self) { fs::rename(&tmp, &dst); \
             File::open(&self.root).and_then(|d| d.sync_all()); }",
        );
        assert!(ok2.is_empty(), "{ok2:?}");
    }

    #[test]
    fn header_must_be_the_last_write() {
        let ok = run(
            "fn commit_record(&self) { self.write_seg(s, off + LEN, payload); \
             self.write_seg(s, off, &encode_header(header)); self.barrier(); }\n\
             fn barrier(&self) { self.file.sync_data(); }",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let bad = run(
            "fn commit_record(&self) { self.write_seg(s, off, &encode_header(header)); \
             self.write_seg(s, off + LEN, payload); self.barrier(); }\n\
             fn barrier(&self) { self.file.sync_data(); }",
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].check, "payload-after-header");
    }
}
