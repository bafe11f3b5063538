//! CLI for `ear-lint`.
//!
//! ```text
//! cargo run -p ear-lint -- check [--root DIR]
//! cargo run -p ear-lint -- graph [--root DIR]
//! ```
//!
//! `check` prints one `path:line:col: RULE/check: message` line per
//! violation. Exit codes: 0 = clean, 1 = violations, 2 = usage / I/O error.
//!
//! `graph` dumps the `ear-cluster` lock-acquisition graph as GraphViz DOT
//! on stdout (cyclic edges red); CI uploads it as an artifact.

use ear_lint::{check_workspace, find_workspace_root};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut subcmd: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a value"),
            },
            "check" | "graph" if subcmd.is_none() => subcmd = Some(a.clone()),
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(subcmd) = subcmd else {
        return usage("expected the `check` or `graph` subcommand");
    };

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("ear-lint: could not locate a workspace root (no Cargo.toml with [workspace])");
            return ExitCode::from(2);
        }
    };

    let report = match check_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ear-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if subcmd == "graph" {
        print!("{}", report.lock_graph.to_dot());
        return ExitCode::SUCCESS;
    }

    for d in &report.diagnostics {
        println!("{d}");
    }
    eprintln!(
        "ear-lint: {} files scanned, {} violation(s)",
        report.files_scanned,
        report.diagnostics.len()
    );
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ear-lint: {msg}");
    eprintln!("usage: ear-lint check [--root DIR]");
    eprintln!("       ear-lint graph [--root DIR]");
    ExitCode::from(2)
}
