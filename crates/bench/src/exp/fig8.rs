//! Figure 8: raw encoding throughput on the (emulated) testbed.
//!
//! * (a) throughput vs `(n, k)` for RR and EAR — 96 stripes, 12 single-node
//!   racks, 2-way replication;
//! * (b) throughput vs background ("UDP") injection rate for `(10, 8)`.
//!
//! Block size and bandwidth are scaled down together (4 MiB blocks on
//! 128 MB/s links instead of 64 MiB on 1 Gb/s ≈ 125 MB/s) so runs take
//! seconds; relative throughputs are preserved.

use crate::{Scale, Table};
use ear_cluster::{ClusterConfig, ClusterPolicy, MiniCfs, RaidNode};
use ear_netem::TrafficSnapshot;
use ear_types::{ByteSize, EarConfig, ErasureParams, NodeId, ReplicationConfig, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Builds the testbed cluster for a policy and erasure code.
fn testbed(policy: ClusterPolicy, n: usize, k: usize, scale: Scale) -> Result<MiniCfs> {
    let ear = EarConfig::new(ErasureParams::new(n, k)?, ReplicationConfig::two_way(), 1)?;
    let mut cfg = ClusterConfig::testbed(policy, ear);
    cfg.block_size = scale.pick(ByteSize::mib(1), ByteSize::mib(4));
    let bw = scale.pick(32e6, 128e6);
    cfg.node_bandwidth = ear_types::Bandwidth::bytes_per_sec(bw);
    cfg.rack_bandwidth = ear_types::Bandwidth::bytes_per_sec(bw);
    MiniCfs::new(cfg)
}

/// Writes enough blocks that at least `stripes` stripes seal, then returns
/// the number pending.
fn fill(cfs: &MiniCfs, stripes: usize, k: usize) -> Result<usize> {
    let nodes = cfs.topology().num_nodes() as u64;
    let mut i = 0u64;
    // EAR seals a stripe when a core rack accumulates k blocks, so keep
    // writing until enough stripes are sealed (RR seals every k writes).
    while cfs.namenode().pending_stripe_count() < stripes {
        let data = cfs.make_block(i);
        cfs.write_block(NodeId((i % nodes) as u32), data)?;
        i += 1;
        assert!(
            i < (stripes * k * 20) as u64,
            "failed to seal {stripes} stripes"
        );
    }
    Ok(cfs.namenode().pending_stripe_count())
}

/// One measurement: the full encode statistics (throughput, cross-rack
/// downloads, fault seed) for a policy and code, plus the encode-phase
/// traffic reading (bytes moved by the encode job alone —
/// snapshotted after the fill phase so write replication doesn't pollute
/// the column).
fn encode_throughput(
    policy: ClusterPolicy,
    n: usize,
    k: usize,
    stripes: usize,
    scale: Scale,
    background_mbps: f64,
) -> Result<(ear_cluster::EncodeStats, TrafficSnapshot)> {
    let cfs = testbed(policy, n, k, scale)?;
    fill(&cfs, stripes, k)?;
    let before = cfs.network().snapshot();

    // Background "UDP" senders: six node pairs stream continuously, like
    // the paper's Iperf setup (Experiment A.1, Fig. 8(b)).
    let stop = Arc::new(AtomicBool::new(false));
    let stats = std::thread::scope(|scope| -> Result<ear_cluster::EncodeStats> {
        let mut handles = Vec::new();
        if background_mbps > 0.0 {
            for pair in 0..6u32 {
                let cfs_net = cfs.network().clone();
                let stop = Arc::clone(&stop);
                handles.push(scope.spawn(move || {
                    let src = NodeId(pair * 2);
                    let dst = NodeId(pair * 2 + 1);
                    // 64 KiB datagrams paced by the token buckets.
                    let chunk = 64 * 1024u64;
                    while !stop.load(Ordering::Relaxed) {
                        cfs_net.transfer(src, dst, chunk);
                        // Pace to the requested rate.
                        let secs = chunk as f64 / (background_mbps * 1e6 / 8.0);
                        std::thread::sleep(std::time::Duration::from_secs_f64(secs * 0.5));
                    }
                }));
            }
        }
        let (stats, _relocations) = RaidNode::encode_all(&cfs, 12)?;
        stop.store(true, Ordering::Relaxed);
        Ok(stats)
    })?;
    let traffic = cfs.network().snapshot().delta(&before);
    Ok((stats, traffic))
}

/// Figure 8(a): throughput vs `(n, k)`, plus the cross-rack bytes the
/// encode phase moved, per policy.
pub fn run_a(scale: Scale) -> String {
    table_a(scale, scale.pick(12, 96))
}

fn table_a(scale: Scale, stripes: usize) -> String {
    let kernel = ear_erasure::Kernel::active().name();
    let mut t = Table::new(&[
        "(n,k)",
        "RR MiB/s",
        "EAR MiB/s",
        "gain",
        "RR xrack",
        "EAR xrack",
        "RR xrack KiB",
        "EAR xrack KiB",
    ]);
    let mut fault_seed = None;
    for (n, k) in [(6usize, 4usize), (8, 6), (10, 8), (12, 10)] {
        let (rr_stats, rr_traffic) =
            encode_throughput(ClusterPolicy::Rr, n, k, stripes, scale, 0.0).expect("rr run");
        let (ear_stats, ear_traffic) =
            encode_throughput(ClusterPolicy::Ear, n, k, stripes, scale, 0.0).expect("ear run");
        fault_seed = fault_seed.or(rr_stats.fault_seed).or(ear_stats.fault_seed);
        let (rr, ear) = (rr_stats.throughput_mibps(), ear_stats.throughput_mibps());
        t.row_owned(vec![
            format!("({n},{k})"),
            format!("{rr:.1}"),
            format!("{ear:.1}"),
            format!("{:+.1}%", (ear / rr - 1.0) * 100.0),
            rr_stats.cross_rack_downloads.to_string(),
            ear_stats.cross_rack_downloads.to_string(),
            (rr_traffic.cross_rack_bytes / 1024).to_string(),
            (ear_traffic.cross_rack_bytes / 1024).to_string(),
        ]);
    }
    let seed = crate::fault_seed_label(fault_seed);
    let mut out = format!(
        "Figure 8(a): raw encoding throughput vs (n,k) — {stripes} stripes, 12 racks, gf kernel {kernel}, fault seed {seed}\n\n"
    );
    out.push_str(&t.render());
    out.push_str(
        "\nxrack counts block-sized transfers towards the encoding node (raw sources\n\
         plus folded partial rows, DESIGN.md 15); xrack KiB is every cross-rack byte\n\
         of the encode phase. EAR reads every source inside the core rack, so its\n\
         bytes are parity uploads only.\n",
    );
    out
}

/// Figure 8(b): throughput vs background injection rate, `(10, 8)`.
pub fn run_b(scale: Scale) -> String {
    let stripes = scale.pick(8, 96);
    let rates = scale.pick(
        vec![0.0, 400.0, 800.0],
        vec![0.0, 200.0, 400.0, 600.0, 800.0],
    );
    let kernel = ear_erasure::Kernel::active().name();
    let mut t = Table::new(&["rate Mb/s", "RR MiB/s", "EAR MiB/s", "gain"]);
    let mut fault_seed = None;
    for rate in rates {
        let (rr_stats, _) =
            encode_throughput(ClusterPolicy::Rr, 10, 8, stripes, scale, rate).expect("rr run");
        let (ear_stats, _) =
            encode_throughput(ClusterPolicy::Ear, 10, 8, stripes, scale, rate).expect("ear run");
        fault_seed = fault_seed.or(rr_stats.fault_seed).or(ear_stats.fault_seed);
        let (rr, ear) = (rr_stats.throughput_mibps(), ear_stats.throughput_mibps());
        t.row_owned(vec![
            format!("{rate:.0}"),
            format!("{rr:.1}"),
            format!("{ear:.1}"),
            format!("{:+.1}%", (ear / rr - 1.0) * 100.0),
        ]);
    }
    let seed = crate::fault_seed_label(fault_seed);
    let mut out = format!(
        "Figure 8(b): encoding throughput vs UDP background rate — (10,8), {stripes} stripes, gf kernel {kernel}, fault seed {seed}\n\n"
    );
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8a_quick_shows_ear_gains() {
        // Two stripes per cell (RR's first (6,4) stripe happens to sit on
        // one node): the throughput columns are wall-clock and say nothing
        // at this size, the traffic columns are exact at any.
        let s = table_a(Scale::Quick, 2);
        assert!(s.contains("Figure 8(a)"));
        assert!(s.contains("EAR xrack KiB"), "{s}");
        for nk in ["(6,4)", "(8,6)", "(10,8)", "(12,10)"] {
            let line = s.lines().find(|l| l.starts_with(nk)).expect("row");
            let cells: Vec<&str> = line.split_whitespace().collect();
            let kib = |col: usize| cells[col].parse::<u64>().expect("KiB column");
            assert_eq!(cells[5], "0", "EAR downloaded across racks: {line}");
            assert!(kib(7) < kib(6), "EAR moved no fewer cross-rack KiB than RR: {line}");
        }
    }

    #[test]
    fn ear_encode_phase_moves_parity_uploads_only() {
        // Every EAR source has a core-rack replica: no block crosses a rack
        // towards the encoding node, so the phase's cross-rack bytes are at
        // most the m parity uploads per stripe.
        let block = ByteSize::mib(1).as_u64();
        for (n, k) in [(6usize, 4usize), (12, 10)] {
            let (stats, traffic) =
                encode_throughput(ClusterPolicy::Ear, n, k, 6, Scale::Quick, 0.0).unwrap();
            assert_eq!(stats.cross_rack_downloads, 0, "({n},{k})");
            assert!(
                traffic.cross_rack_bytes <= (stats.stripes * (n - k)) as u64 * block,
                "({n},{k}): {} cross-rack bytes over {} stripes",
                traffic.cross_rack_bytes,
                stats.stripes
            );
        }
    }
}
