//! `ear-lint` — the workspace invariant linter.
//!
//! Two rule families over `ear-cluster`, each an invariant that neither
//! `rustc` nor clippy can see (DESIGN.md §11):
//!
//! - **L1 lock-order** ([`rules::lock_order`]): nested lock acquisitions
//!   must stay acyclic. The coarse→fine order is derived from a
//!   crate-wide lock-acquisition graph (per-file facts joined, SCC cycle
//!   detection), not a hand-listed table.
//! - **L4 durability ordering** ([`rules::durability`]): the durable
//!   stores must fsync before acknowledging, fsync directories after
//!   renames, and keep headers the last write of a commit.
//!
//! Determinism, panic-freedom and discard hygiene are clippy lints
//! (`clippy.toml`, `crates/cluster/src/lib.rs`). Neither family here has
//! an escape hatch: a diagnostic is fixed, not excused.
//!
//! The crate is dependency-free by design: it lexes Rust itself
//! ([`lexer`]) instead of using `syn`, so it builds in the registry-less
//! verification containers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod lexer;
pub mod rules;

pub use diag::{Diagnostic, Rule};
pub use rules::lock_order::LockGraph;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The linted source tree, relative to the workspace root.
const CLUSTER_SRC: &str = "crates/cluster/src/";

/// Files with durable-write protocols (L4 scope), relative to
/// `crates/cluster/src/`. crashsim.rs is deliberately absent: it writes
/// torn states on purpose.
pub const DURABILITY_FILES: &[&str] = &["wal.rs", "extent.rs", "cluster.rs"];

/// The per-file rule (everything except the crate-wide lock graph).
fn file_diagnostics(path: &str, toks: &[lexer::Tok]) -> Vec<Diagnostic> {
    let in_scope = path
        .strip_prefix(CLUSTER_SRC)
        .is_some_and(|f| DURABILITY_FILES.contains(&f));
    if in_scope {
        rules::durability::check(path, toks)
    } else {
        Vec::new()
    }
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
    if path.starts_with(CLUSTER_SRC) {
        out.extend(rules::lock_order::check(path, &toks));
    }
    sort_diags(&mut out);
    out
}

fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
}

/// Result of a workspace check.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Every diagnostic found, sorted by (path, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// The crate's lock-acquisition graph (L1's evidence; also dumped
    /// by `ear-lint graph`).
    pub lock_graph: LockGraph,
}

/// Lints every `crates/cluster/src/**/*.rs` file under `root`: pass 1 runs
/// the per-file rule and collects lock facts, pass 2 joins the facts into
/// the lock graph and appends its cycle diagnostics.
///
/// # Errors
///
/// Propagates I/O errors from directory walking and file reads.
pub fn check_workspace(root: &Path) -> io::Result<CheckReport> {
    let mut files = Vec::new();
    collect_rs_files(&root.join(CLUSTER_SRC), &mut files)?;
    // Sorted walk: diagnostics come out in a stable order.
    files.sort();

    let mut report = CheckReport::default();
    let mut facts = Vec::new();
    for file in files {
        let rel = relativize(root, &file);
        let toks = lexer::lex_non_test(&fs::read_to_string(&file)?);
        report.diagnostics.extend(file_diagnostics(&rel, &toks));
        facts.push(rules::lock_order::facts(&rel, &toks));
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
        let nested = "struct S { a: Mutex<A> }\n\
                      fn f(&self) { let x = self.a.lock(); let y = self.a.lock(); }";
        assert!(check_source("crates/cluster/src/namenode.rs", nested)
            .iter()
            .any(|d| d.rule == Rule::L1));
        // Outside the cluster crate nothing applies.
        assert!(check_source("crates/cli/src/main.rs", nested).is_empty());
    }

    #[test]
    fn new_rule_scoping() {
        let durable = "pub fn save(&self) { fs::write(&tmp, &b); }";
        assert!(check_source("crates/cluster/src/wal.rs", durable)
            .iter()
            .any(|d| d.rule == Rule::L4));
        // crashsim writes torn states on purpose — L4 does not apply.
        assert!(check_source("crates/cluster/src/crashsim.rs", durable).is_empty());
    }
}
