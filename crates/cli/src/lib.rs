//! The library behind the `ear` binary: experiment harnesses reproducing
//! every table and figure of the paper's evaluation (Section V).
//!
//! Each `exp::figNN` module exposes a `run(Scale) -> String` function that
//! executes the experiment and renders the same rows/series the paper
//! reports. `ear experiment <id> [--scale quick|full]` is the one way to
//! run them; `EXPERIMENTS.md` records paper-reported vs measured values.
//! Performance is measured by the repo-level `benchmark/` crate, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[expect(
    clippy::disallowed_methods,
    reason = "the testbed experiments time real paced runs, space their arrivals in wall time \
              and run clients beside the encoder on scoped threads"
)]
pub mod exp;
mod table;

pub use table::Table;

/// Experiment scale: `Full` mirrors the paper's parameters (scaled in
/// block size / bandwidth where the paper used hours of wall time);
/// `Quick` shrinks stripe counts and repetitions so the whole suite runs in
/// a couple of minutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced stripe counts and repetitions (CI-friendly).
    Quick,
    /// The paper's parameters.
    Full,
}

/// Renders a fault-plan seed for report headers: `none` when the run was
/// fault-free, the decimal seed otherwise (replayable via `ear chaos --seed`).
pub fn fault_seed_label(seed: Option<u64>) -> String {
    seed.map_or_else(|| "none".to_string(), |s| s.to_string())
}

impl Scale {
    /// Picks between quick and full values.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
