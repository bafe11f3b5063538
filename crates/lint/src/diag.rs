//! Diagnostic model shared by all rules.

use std::fmt;

/// The rule family a diagnostic belongs to. The numbering is historical:
/// L2, L3, L5 and L6 became clippy lints (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Lock-order discipline in `ear-cluster`.
    L1,
    /// Durability ordering in the persistence layer (fsync-before-ack,
    /// rename-then-dir-fsync, header-last commits).
    L4,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One finding, printed as `path:line:col: RULE/check: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule family.
    pub rule: Rule,
    /// Short machine-matchable check name within the family
    /// (e.g. `lock-cycle`, `ack-without-sync`).
    pub check: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}/{}: {}",
            self.path, self.line, self.col, self.rule, self.check, self.message
        )
    }
}
