//! `ear-lint` — the workspace invariant linter.
//!
//! Six rule families, each encoding an invariant the EAR implementation
//! relies on but `rustc` cannot see (DESIGN.md §11, §16):
//!
//! - **L1 lock-order** ([`rules::lock_order`]): nested lock acquisitions
//!   in `ear-cluster` must stay acyclic. v2 derives the coarse→fine
//!   order from a workspace-wide lock-acquisition graph (per-file facts
//!   joined, SCC cycle detection) instead of a hand-listed table.
//! - **L2 determinism hygiene** ([`rules::determinism`]): deterministic
//!   crates must not consult wall clocks, ambient RNGs, or hash-ordered
//!   iteration — the chaos/heal soaks assert bit-identical reports.
//! - **L3 panic-freedom** ([`rules::panic_free`]): the data-plane
//!   hot-path files must propagate typed errors, never panic.
//! - **L4 durability ordering** ([`rules::durability`]): the durable
//!   stores must fsync before acknowledging, fsync directories after
//!   renames, and keep headers the last write of a commit.
//! - **L5 context/retry hygiene** ([`rules::context`]): data-plane
//!   methods thread `&OpContext`; sleeps, retries, and error drops must
//!   go through the reliability substrate.
//! - **L6 zero-copy hygiene** ([`rules::zero_copy`]): hot-path code must
//!   not materialize `Block` payloads with `to_vec()`/`to_owned()`.
//!
//! Suppressions live in `lint-allowlist.txt` at the workspace root; every
//! entry carries a reason and goes stale (becomes an error) once the code
//! it excused is cleaned up.
//!
//! The crate is dependency-free by design: it lexes Rust itself
//! ([`lexer`]) instead of using `syn`, so it builds in the registry-less
//! verification containers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
pub mod diag;
pub mod lexer;
pub mod rules;

pub use allowlist::Allowlist;
pub use diag::{Diagnostic, Rule};
pub use rules::lock_order::LockGraph;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose code must stay deterministic (L2 scope).
pub const DETERMINISTIC_CRATES: &[&str] = &["cluster", "faults", "sim", "des", "erasure"];

/// Data-plane hot-path files (L3 + L5 scope), relative to
/// `crates/cluster/src/`.
pub const DATA_PLANE_FILES: &[&str] = &[
    "io.rs",
    "datanode.rs",
    "blockstore.rs",
    "cache.rs",
    "recovery.rs",
    "raidnode.rs",
    "fold.rs",
    "healer.rs",
    "reliability.rs",
    "wal.rs",
    "extent.rs",
    "crashsim.rs",
    "exec.rs",
];

/// Files with durable-write protocols (L4 scope), relative to
/// `crates/cluster/src/`. crashsim.rs is deliberately absent: it writes
/// torn states on purpose.
pub const DURABILITY_FILES: &[&str] = &["wal.rs", "extent.rs", "cluster.rs"];

/// Hot read-path files (L6 scope), relative to `crates/cluster/src/`.
/// The repair/encode paths (recovery.rs, raidnode.rs) legitimately
/// assemble fresh buffers and are out of scope.
pub const HOT_READ_PATH_FILES: &[&str] =
    &["io.rs", "datanode.rs", "blockstore.rs", "cache.rs", "fold.rs"];

fn in_cluster_set(path: &str, set: &[&str]) -> bool {
    set.iter().any(|f| path == format!("crates/cluster/src/{f}"))
}

/// The per-file rules (everything except the workspace lock graph).
fn file_diagnostics(path: &str, toks: &[lexer::Tok]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if DETERMINISTIC_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
    {
        out.extend(rules::determinism::check(path, toks));
    }
    if in_cluster_set(path, DATA_PLANE_FILES) {
        out.extend(rules::panic_free::check(path, toks));
        out.extend(rules::context::check(path, toks));
    }
    if in_cluster_set(path, DURABILITY_FILES) {
        out.extend(rules::durability::check(path, toks));
    }
    if in_cluster_set(path, HOT_READ_PATH_FILES) {
        out.extend(rules::zero_copy::check(path, toks));
    }
    out
}

/// Runs every applicable rule on one source file. `path` is the
/// workspace-relative path with `/` separators; it selects which rules
/// apply (so fixtures can opt into a scope by naming themselves into it).
///
/// The lock graph is built from this file alone here; the workspace
/// runner ([`check_workspace`]) joins facts across files instead, which
/// is where cross-file cycles surface.
pub fn check_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let toks = lexer::lex_non_test(src);
    let mut out = file_diagnostics(path, &toks);
    if path.starts_with("crates/cluster/src/") {
        out.extend(rules::lock_order::check(path, &toks));
    }
    sort_diags(&mut out);
    out
}

fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
}

/// Result of a workspace check, before allowlisting.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Every diagnostic found, sorted by (path, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// The workspace lock-acquisition graph (L1's evidence; also dumped
    /// by `ear-lint graph`).
    pub lock_graph: LockGraph,
}

/// Lints every `crates/*/src/**/*.rs` file under `root`: pass 1 runs the
/// per-file rules and collects lock facts, pass 2 joins the facts into
/// the workspace lock graph and appends its cycle diagnostics.
///
/// # Errors
///
/// Propagates I/O errors from directory walking and file reads.
pub fn check_workspace(root: &Path) -> io::Result<CheckReport> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    // Sorted walk: diagnostics come out in a stable order.
    files.sort();

    let mut report = CheckReport::default();
    let mut facts = Vec::new();
    for file in files {
        let rel = relativize(root, &file);
        let src = fs::read_to_string(&file)?;
        let toks = lexer::lex_non_test(&src);
        report.diagnostics.extend(file_diagnostics(&rel, &toks));
        if rel.starts_with("crates/cluster/src/") {
            facts.push(rules::lock_order::facts(&rel, &toks));
        }
        report.files_scanned += 1;
    }
    report.lock_graph = rules::lock_order::analyze(&facts);
    report.diagnostics.extend(report.lock_graph.diagnostics());
    sort_diags(&mut report.diagnostics);
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relativize(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_selects_rules_by_path() {
        let src = "fn f(m: &HashMap<u32, u32>) { for k in m.keys() { v.unwrap(); } }";
        // In the cluster crate: L2 applies everywhere, L3 only to hot-path files.
        let d = check_source("crates/cluster/src/chaos.rs", src);
        assert!(d.iter().any(|d| d.rule == Rule::L2));
        assert!(!d.iter().any(|d| d.rule == Rule::L3));
        let d = check_source("crates/cluster/src/io.rs", src);
        assert!(d.iter().any(|d| d.rule == Rule::L3));
        // Outside the deterministic crates nothing applies.
        let d = check_source("crates/cli/src/main.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn new_rule_scoping() {
        let durable = "pub fn save(&self) { fs::write(&tmp, &b); }";
        assert!(check_source("crates/cluster/src/wal.rs", durable)
            .iter()
            .any(|d| d.rule == Rule::L4));
        // crashsim writes torn states on purpose — L4 does not apply.
        assert!(!check_source("crates/cluster/src/crashsim.rs", durable)
            .iter()
            .any(|d| d.rule == Rule::L4));

        let ctx = "fn f() { let _ = send(); }";
        assert!(check_source("crates/cluster/src/io.rs", ctx)
            .iter()
            .any(|d| d.rule == Rule::L5));
        assert!(!check_source("crates/cluster/src/chaos.rs", ctx)
            .iter()
            .any(|d| d.rule == Rule::L5));

        let hot = "fn f(block: &Block) { block.to_vec(); }";
        assert!(check_source("crates/cluster/src/cache.rs", hot)
            .iter()
            .any(|d| d.rule == Rule::L6));
        assert!(!check_source("crates/cluster/src/recovery.rs", hot)
            .iter()
            .any(|d| d.rule == Rule::L6));
    }
}
