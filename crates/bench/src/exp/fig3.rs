//! Figure 3: probability that a stripe placed by the *preliminary* EAR
//! violates rack-level fault tolerance, versus the number of racks, for
//! k ∈ {6, 8, 10, 12} — from Equation (1), cross-checked by Monte Carlo.
//! Also prints Section II-B's expected RR cross-rack downloads (`k − 2k/R`).

use crate::{Scale, Table};
use ear_analysis::{
    expected_cross_rack_downloads_rr, violation_probability, violation_probability_monte_carlo,
};
use ear_types::rng::ChaCha8;

/// Runs the experiment and renders Fig. 3's series.
pub fn run(scale: Scale) -> String {
    let trials = scale.pick(5_000, 100_000);
    let ks = [6usize, 8, 10, 12];
    let racks: Vec<usize> = (14..=40).step_by(2).collect();
    let mut rng = ChaCha8::from_seed(3);

    let mut out = String::from(
        "Figure 3: probability a stripe violates rack-level fault tolerance\n\
         (preliminary EAR, 3-way replication; analytic Eq.(1) / Monte Carlo)\n\n",
    );
    let mut t = Table::new(&[
        "R", "k=6", "k=6 MC", "k=8", "k=8 MC", "k=10", "k=10 MC", "k=12", "k=12 MC",
    ]);
    for &r in &racks {
        let mut cells = vec![r.to_string()];
        for &k in &ks {
            let f = violation_probability(r, k);
            let mc = violation_probability_monte_carlo(r, k, trials, &mut rng);
            cells.push(format!("{f:.3}"));
            cells.push(format!("{mc:.3}"));
        }
        t.row_owned(cells);
    }
    out.push_str(&t.render());

    out.push_str("\nSection II-B: expected cross-rack downloads per RR stripe (k - 2k/R)\n\n");
    let mut t2 = Table::new(&["R", "k=6", "k=8", "k=10", "k=12"]);
    for &r in &[10usize, 20, 40, 80] {
        let mut cells = vec![r.to_string()];
        for &k in &ks {
            cells.push(format!("{:.2}", expected_cross_rack_downloads_rr(r, k)));
        }
        t2.row_owned(cells);
    }
    out.push_str(&t2.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_full_series() {
        let s = run(Scale::Quick);
        assert!(s.contains("Figure 3"));
        // All rack counts appear.
        for r in ["14", "26", "40"] {
            assert!(
                s.lines().any(|l| l.trim_start().starts_with(r)),
                "missing R={r}"
            );
        }
        // The paper's reference point: k = 12, R = 16 is ~0.97.
        let line = s
            .lines()
            .find(|l| l.trim_start().starts_with("16"))
            .expect("R=16 row");
        assert!(line.contains("0.97"), "expected ~0.97 in: {line}");
    }
}
