//! Theorem 1: EAR's expected layout-generation iterations per block,
//! measured with the paper's retry rule (regenerate only the refused block's
//! layout) against the analytical bound.

use crate::{Scale, Table};
use ear_analysis::{measure_iterations, theorem1_bound};
use ear_types::rng::ChaCha8;
use ear_types::{ClusterTopology, EarConfig, ErasureParams, ReplicationConfig};

/// Runs the measurement for `(R, c, k)` and renders measured vs bound rows.
pub fn run(scale: Scale) -> String {
    let trials = scale.pick(200, 2_000);
    let r = 20usize;
    let mut out = format!(
        "Theorem 1: expected layout-generation iterations E_i (R = {r} racks, {trials} stripes)\n\n"
    );
    for (k, c) in [(10usize, 1usize), (12, 1), (12, 2)] {
        let topo = ClusterTopology::uniform(r, 10);
        let cfg = EarConfig::new(
            ErasureParams::new(k + 4, k).expect("valid"),
            ReplicationConfig::hdfs_default(),
            c,
        )
        .expect("valid");
        let mut rng = ChaCha8::from_seed(1);
        let measured = measure_iterations(&cfg, &topo, trials, &mut rng).expect("measurement");
        out.push_str(&format!("k = {k}, c = {c}\n"));
        let mut t = Table::new(&["i", "measured E_i", "bound"]);
        for (i, &m) in measured.iter().enumerate() {
            t.row_owned(vec![
                (i + 1).to_string(),
                format!("{m:.3}"),
                format!("{:.3}", theorem1_bound(r, c, i + 1)),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "Paper remarks: E_k <= 1.9 for k = 10 and <= 2.375 for k = 12 at R = 20, c = 1.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_bounds_for_all_blocks() {
        let s = run(Scale::Quick);
        assert!(s.contains("Theorem 1"));
        assert!(s.contains("k = 12, c = 2"));
        // Last block of k = 10: bound 19/10 = 1.9.
        assert!(s.contains("1.900"));
    }
}
