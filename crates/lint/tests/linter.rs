//! Fixture-based self-tests for `ear-lint`: each rule family has a passing
//! and a failing fixture, the failing one pinned against a golden
//! diagnostics file, plus a workspace self-scan that keeps the repo
//! lint-clean.

use ear_lint::{check_source, check_workspace, find_workspace_root, Diagnostic};
use std::fs;
use std::path::{Path, PathBuf};

/// (fixture directory, virtual path the fixture is checked under). The
/// virtual path opts the fixture into the rule scope under test — l4 uses
/// cluster.rs (durability scope). Each fixture must be clean under *every*
/// rule its virtual path opts into, not just the family it demonstrates.
const CASES: &[(&str, &str)] = &[
    ("l1_lock_order", "crates/cluster/src/fixture_l1.rs"),
    ("l4_durability", "crates/cluster/src/cluster.rs"),
];

fn fixture_dir(case: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(case)
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rendered(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

#[test]
fn pass_fixtures_are_clean() {
    for (case, vpath) in CASES {
        let src = read(&fixture_dir(case).join("pass.rs"));
        let diags = check_source(vpath, &src);
        assert!(
            diags.is_empty(),
            "{case}/pass.rs should be clean, got:\n{}",
            rendered(&diags)
        );
    }
}

#[test]
fn fail_fixtures_match_golden_diagnostics() {
    // Set EAR_LINT_BLESS=1 to regenerate the golden files from the current
    // rule output instead of asserting against them.
    let bless = std::env::var_os("EAR_LINT_BLESS").is_some();
    for (case, vpath) in CASES {
        let dir = fixture_dir(case);
        let src = read(&dir.join("fail.rs"));
        let diags = check_source(vpath, &src);
        assert!(!diags.is_empty(), "{case}/fail.rs must produce diagnostics");
        if bless {
            fs::write(dir.join("fail.expected"), rendered(&diags)).unwrap();
            continue;
        }
        let expected = read(&dir.join("fail.expected"));
        assert_eq!(
            rendered(&diags),
            expected,
            "{case}/fail.rs diagnostics drifted from fail.expected"
        );
    }
}

#[test]
fn workspace_is_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the lint crate");
    let report = check_workspace(&root).unwrap();
    assert!(
        report.diagnostics.is_empty(),
        "the workspace must stay lint-clean:\n{}",
        rendered(&report.diagnostics)
    );
}
