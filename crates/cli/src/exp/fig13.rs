//! Figure 13 (Experiment B.2): normalized EAR/RR throughput under parameter
//! sweeps in the large-scale simulated CFS (20 racks × 20 nodes).
//!
//! Six sub-figures: (a) varying `k`, (b) varying `n−k`, (c) varying link
//! bandwidth, (d) varying write request rate, (e) varying EAR's rack-level
//! fault tolerance (via `c`), (f) varying the number of replicas. Each point
//! is a boxplot over repeated runs with different seeds.

use crate::{Scale, Table};
use ear_cluster::ClusterPolicy;
use ear_des::Samples;
use ear_sim::{run as sim_run, SimConfig};
use ear_types::{Bandwidth, ErasureParams, RackSpread, ReplicationConfig};

/// Normalized EAR/RR encode and write throughputs for one configuration.
#[derive(Debug, Clone)]
pub struct NormalizedPoint {
    /// Label of the swept value.
    pub label: String,
    /// Boxplot of EAR/RR encoding throughput over the runs.
    pub encode: ear_des::BoxStats,
    /// Boxplot of EAR/RR write throughput over the runs.
    pub write: ear_des::BoxStats,
}

/// Runs `runs` seed-pairs of a configuration and returns the normalized
/// ratios.
fn normalized(cfg: &SimConfig, runs: usize) -> NormalizedPoint {
    let mut encode = Samples::new();
    let mut write = Samples::new();
    for seed in 0..runs as u64 {
        let run = |policy| sim_run(&cfg.clone().with_policy(policy).with_seed(seed));
        let ear = run(ClusterPolicy::Ear).expect("ear sim");
        let rr = run(ClusterPolicy::Rr).expect("rr sim");
        encode.push(ear.encoding_throughput() / rr.encoding_throughput());
        let (we, wr) = (
            ear.write_throughput_during_encoding(),
            rr.write_throughput_during_encoding(),
        );
        if wr > 0.0 {
            write.push(we / wr);
        }
    }
    if write.is_empty() {
        write.push(1.0);
    }
    NormalizedPoint {
        label: String::new(),
        encode: encode.boxplot(),
        write: write.boxplot(),
    }
}

/// The baseline configuration of Experiment B.2, scaled by `Scale`.
///
/// The 20 concurrent encoding processes are kept at both scales: EAR's
/// advantage comes from relieving cross-rack contention, which only appears
/// under the paper's level of encoding parallelism. Quick mode shrinks the
/// per-process stripe count instead.
fn base(scale: Scale) -> SimConfig {
    SimConfig {
        encode_processes: 20,
        stripes_per_process: scale.pick(5, 50),
        ..SimConfig::default()
    }
}

fn render(rows: &[NormalizedPoint], what: &str, out: &mut String) {
    let mut t = Table::new(&[
        what, "enc med", "enc q1", "enc q3", "wr med", "wr q1", "wr q3",
    ]);
    for p in rows {
        t.row_owned(vec![
            p.label.clone(),
            format!("{:.2}", p.encode.median),
            format!("{:.2}", p.encode.q1),
            format!("{:.2}", p.encode.q3),
            format!("{:.2}", p.write.median),
            format!("{:.2}", p.write.q1),
            format!("{:.2}", p.write.q3),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
}

/// Runs all six sweeps and renders the figure's series (EAR normalized over
/// RR; 1.00 = parity).
pub fn run(scale: Scale) -> String {
    let runs = scale.pick(3, 30);
    let mut out = format!(
        "Figure 13 (Experiment B.2): normalized EAR/RR throughput, {runs} runs per point\n\
         20 racks x 20 nodes, defaults: (14,10), 3-way replication, 1 Gb/s, 1 req/s\n\n"
    );

    // (a) varying k, n - k = 4.
    out.push_str("(a) varying k (n - k = 4)\n");
    let ks = scale.pick(vec![6usize, 10], vec![6, 8, 10, 12]);
    let rows: Vec<NormalizedPoint> = ks
        .iter()
        .map(|&k| {
            let mut cfg = base(scale);
            cfg.erasure = ErasureParams::new(k + 4, k).expect("valid");
            let mut p = normalized(&cfg, runs);
            p.label = k.to_string();
            p
        })
        .collect();
    render(&rows, "k", &mut out);

    // (b) varying n - k, k = 10.
    out.push_str("(b) varying n - k (k = 10)\n");
    let parities = scale.pick(vec![2usize, 4], vec![2, 3, 4, 5]);
    let rows: Vec<NormalizedPoint> = parities
        .iter()
        .map(|&m| {
            let mut cfg = base(scale);
            cfg.erasure = ErasureParams::new(10 + m, 10).expect("valid");
            let mut p = normalized(&cfg, runs);
            p.label = m.to_string();
            p
        })
        .collect();
    render(&rows, "n-k", &mut out);

    // (c) varying link bandwidth.
    out.push_str("(c) varying link bandwidth\n");
    let bws = scale.pick(vec![0.2f64, 1.0], vec![0.2, 0.5, 1.0, 2.0]);
    let rows: Vec<NormalizedPoint> = bws
        .iter()
        .map(|&g| {
            let mut cfg = base(scale);
            cfg.node_bandwidth = Bandwidth::gbit(g);
            cfg.rack_bandwidth = Bandwidth::gbit(g);
            let mut p = normalized(&cfg, runs);
            p.label = format!("{g} Gb/s");
            p
        })
        .collect();
    render(&rows, "bandwidth", &mut out);

    // (d) varying write request rate.
    out.push_str("(d) varying write request rate\n");
    let rates = scale.pick(vec![1.0f64, 4.0], vec![1.0, 2.0, 3.0, 4.0]);
    let rows: Vec<NormalizedPoint> = rates
        .iter()
        .map(|&r| {
            let mut cfg = base(scale);
            cfg.write_rate = r;
            let mut p = normalized(&cfg, runs);
            p.label = format!("{r} req/s");
            p
        })
        .collect();
    render(&rows, "write rate", &mut out);

    // (e) varying EAR's tolerable rack failures: c = (n-k)/tolerance.
    out.push_str("(e) varying EAR rack-level fault tolerance (RR unchanged)\n");
    let tolerances = scale.pick(vec![1usize, 4], vec![1, 2, 4]);
    let rows: Vec<NormalizedPoint> = tolerances
        .iter()
        .map(|&f| {
            let mut cfg = base(scale);
            cfg.c = 4 / f; // (n - k) = 4: tolerate f rack failures
            let mut p = normalized(&cfg, runs);
            p.label = format!("{f} failures");
            p
        })
        .collect();
    render(&rows, "tolerance", &mut out);

    // (f) varying the number of replicas (each in a distinct rack).
    out.push_str("(f) varying number of replicas (one rack per replica)\n");
    let replica_counts = scale.pick(vec![2usize, 4], vec![2, 3, 4, 6, 8]);
    let rows: Vec<NormalizedPoint> = replica_counts
        .iter()
        .map(|&r| {
            let mut cfg = base(scale);
            cfg.replication = ReplicationConfig::new(r, RackSpread::DistinctRacks).expect("valid");
            let mut p = normalized(&cfg, runs);
            p.label = r.to_string();
            p
        })
        .collect();
    render(&rows, "replicas", &mut out);

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_show_ear_encoding_gain() {
        // EAR's advantage grows with encoding parallelism (rack-link
        // contention); 10 concurrent processes is enough to see it clearly.
        let mut cfg = base(Scale::Quick);
        cfg.encode_processes = 10;
        cfg.stripes_per_process = 10;
        let p = normalized(&cfg, 2);
        assert!(
            p.encode.median > 1.15,
            "EAR/RR encode median {} should exceed 1.15",
            p.encode.median
        );
        assert!(p.write.median >= 0.85);
    }
}
