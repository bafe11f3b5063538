//! The metric catalogue (the source `BENCHMARK.json` is generated from),
//! and the arithmetic that turns rounds and probes into those metrics.

use crate::probes::Probes;
use crate::round::{PhaseCounters, Round, PHASES};
use crate::stats::{median, shares, LayerSeconds, SHARE_LAYERS};
use crate::workload::{Workload, CLIENTS, WORKLOADS};
use std::fmt::Write;

pub const MIB: f64 = 1024.0 * 1024.0;

/// How long one driver run measures, seconds; `--seconds` overrides it.
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: what a user of the cluster sees. `bound` is the
/// share of the parent's median by which it may worsen before a change
/// counts as a regression: about three times the widest ten-seed spread
/// (interquartile ÷ median) any workload showed, on a 0.05 grid and capped
/// at the driver's 0.25. The README has the spreads.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 15] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lifecycle_s",
        unit: "s",
        better: Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "write_mibps",
        unit: "MiB/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p95_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "encode_mibps",
        unit: "MiB/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "encode_xrack_ratio",
        unit: "ratio",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "unrelocated_stripe_share",
        unit: "ratio",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "storage_overhead",
        unit: "ratio",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "read_mibps",
        unit: "MiB/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p95_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "repair_mibps",
        unit: "MiB/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "repair_xrack_ratio",
        unit: "ratio",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
    },
];

/// A reported value with its unit, in reporting order.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// The fixed per-layer metrics: `(name, unit, better)`. The generated
/// `netem.*_mib.<phase>` and `share.<phase>.<layer>` families follow them
/// in [`per_layer_catalogue`].
const PER_LAYER_FIXED: [(&str, &str, Better); 54] = [
    ("erasure.kernels.mul_acc_mibps", "MiB/s", Higher),
    ("erasure.rs.encode_mibps", "MiB/s", Higher),
    ("erasure.rs.reconstruct_mibps", "MiB/s", Higher),
    ("erasure.stream.fold_mibps", "MiB/s", Higher),
    ("faults.crc.crc32c_mibps", "MiB/s", Higher),
    ("cluster.blockstore.put_us", "us", Lower),
    ("cluster.blockstore.get_us", "us", Lower),
    ("cluster.blockstore.put_mibps", "MiB/s", Higher),
    ("cluster.blockstore.get_mibps", "MiB/s", Higher),
    ("cluster.blockstore.put_nosync_us", "us", Lower),
    ("cluster.blockstore.delete_us", "us", Lower),
    ("cluster.wal.append_us", "us", Lower),
    ("cluster.wal.append_nosync_us", "us", Lower),
    ("cluster.wal.checkpoint_ms", "ms", Lower),
    ("cluster.wal.reopen_ms", "ms", Lower),
    ("cluster.wal.bytes_per_record", "bytes", Lower),
    ("cluster.namenode.allocate_us", "us", Lower),
    ("cluster.namenode.locations_ns", "ns", Lower),
    ("cluster.namenode.plan_encoding_us", "us", Lower),
    ("cluster.cache.hit_rate", "ratio", Higher),
    ("cluster.cache.get_hit_ns", "ns", Lower),
    ("cluster.cache.admit_ns", "ns", Lower),
    ("cluster.cache.evictions", "count", Lower),
    ("cluster.io.crc_skipped_share", "ratio", Higher),
    ("cluster.io.fetch_local_us", "us", Lower),
    ("cluster.io.store_local_us", "us", Lower),
    ("cluster.io.reads_per_client_read", "ratio", Lower),
    ("cluster.io.writes_per_client_write", "ratio", Lower),
    ("cluster.io.read_retries", "count", Lower),
    ("cluster.io.failed_reads", "count", Lower),
    ("cluster.reliability.ctx_ns", "ns", Lower),
    ("cluster.reliability.shed_ops", "count", Lower),
    ("cluster.reliability.deadline_misses", "count", Lower),
    ("cluster.reliability.hedges_launched", "count", Lower),
    ("netem.transfer_overshoot", "ratio", Lower),
    ("netem.idle_transfer_overshoot", "ratio", Lower),
    ("cluster.raidnode.stripe_ms_p50", "ms", Lower),
    ("cluster.raidnode.stripes", "count", Higher),
    ("cluster.raidnode.cross_rack_downloads", "count", Lower),
    ("cluster.raidnode.stripes_with_relocation", "count", Lower),
    ("cluster.raidnode.relocate_s", "s", Lower),
    ("cluster.recovery.block_ms_p50", "ms", Lower),
    ("cluster.recovery.downloads_per_block", "ratio", Lower),
    ("cluster.recovery.cross_rack_downloads", "count", Lower),
    ("cluster.recovery.cross_rack_uploads", "count", Lower),
    ("client.relocated_blocks", "count", Lower),
    ("client.write_p99_us", "us", Lower),
    ("client.read_p99_us", "us", Lower),
    ("client.sync.write_slowdown", "ratio", Lower),
    ("client.sync.write_p50_slowdown", "ratio", Lower),
    ("client.sync.encode_slowdown", "ratio", Lower),
    ("client.sync.repair_slowdown", "ratio", Lower),
    ("client.sync.lifecycle_slowdown", "ratio", Lower),
    ("trace.overhead_ratio", "ratio", Lower),
];

/// Every per-layer metric, in reporting order.
pub fn per_layer_catalogue() -> Vec<(String, &'static str, Better)> {
    let mut out: Vec<_> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for scope in ["cross_rack_mib", "intra_rack_mib"] {
        for phase in PHASES {
            out.push((format!("netem.{scope}.{phase}"), "MiB", Lower));
        }
    }
    for phase in PHASES {
        for layer in SHARE_LAYERS {
            out.push((format!("share.{phase}.{layer}"), "ratio", Lower));
        }
    }
    out
}

/// The text of `BENCHMARK.json`. `./run.sh --emit-spec` prints it, and a
/// unit test holds the committed file to it.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer_catalogue();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let sep = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{sep}",
            better.name()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// What fsync before every ack costs one phase: the median of a timing of
/// the phase (its wall, say) over the `synced` rounds ÷ the same over the
/// `plain` ones, which do the same work without it. 1 on a volatile
/// workload, which has nothing to sync and runs no synced round.
fn slowdown(plain: &[Round], synced: &[Round], wall: impl Fn(&Round) -> f64) -> f64 {
    if synced.is_empty() {
        1.0
    } else {
        med(synced, &wall) / med(plain, &wall)
    }
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The 15 end-to-end metrics: each throughput and latency is the median
/// over `rounds`, the rounds of an untraced run, of the per-round value.
pub fn end_to_end(
    w: &Workload,
    rounds: &[Round],
    setup_samples: &[f64],
    peak_rss_mib: f64,
) -> Metrics {
    let block = w.block_bytes() as f64;
    let values = [
        median(setup_samples),
        med(rounds, Round::lifecycle_s),
        med(rounds, |r| r.acked_blocks as f64 * block / MIB / r.write_s),
        med(rounds, |r| us(r.write_lat.p50_ns)),
        med(rounds, |r| us(r.write_lat.p95_ns)),
        med(rounds, |r| r.encoded_bytes as f64 / MIB / r.encode_s),
        med(rounds, |r| {
            r.counters[1].cross_rack_bytes as f64 / r.encoded_bytes as f64
        }),
        med(rounds, |r| {
            1.0 - r.stripes_with_relocation as f64 / r.stripes as f64
        }),
        med(rounds, |r| {
            r.stored_bytes as f64 / (r.acked_blocks as f64 * block)
        }),
        med(rounds, |r| {
            r.read_lat.ops as f64 * block / MIB / r.read_s
        }),
        med(rounds, |r| us(r.read_lat.p50_ns)),
        med(rounds, |r| us(r.read_lat.p95_ns)),
        med(rounds, |r| {
            r.rebuilt_blocks as f64 * block / MIB / r.repair_s
        }),
        med(rounds, |r| {
            r.counters[3].cross_rack_bytes as f64 / (r.rebuilt_blocks as f64 * block)
        }),
        peak_rss_mib,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name.to_string(), v, m.unit))
        .collect()
}

/// Calls into each layer per operation of one phase, and the seconds per
/// operation the end-to-end clock saw. The model is stated in the README.
fn attribute(
    w: &Workload,
    phase: usize,
    rounds: &[Round],
    p: &Probes,
) -> [f64; SHARE_LAYERS.len()] {
    let ops = |r: &Round| match phase {
        0 => r.acked_blocks,
        1 => r.stripes,
        2 => r.read_lat.ops,
        _ => r.rebuilt_blocks,
    } as f64;
    // Median over rounds of a per-operation counter.
    let per_op =
        |f: &dyn Fn(&PhaseCounters) -> u64| med(rounds, |r| f(&r.counters[phase]) as f64 / ops(r));
    let reads = per_op(&|c| c.reads);
    let writes = per_op(&|c| c.writes);
    let hashed = per_op(&|c| c.reads - c.crc_skipped.min(c.reads) + c.writes);
    let hits = per_op(&|c| c.cache_hits);
    let misses = per_op(&|c| c.cache_misses);
    let wire_bytes = per_op(&|c| c.cross_rack_bytes + c.intra_rack_bytes);
    let (k, m, r) = (w.k as f64, (w.n - w.k) as f64, w.replicas as f64);
    let wal = if w.durable { p.wal_append_s } else { 0.0 };
    // Share of rebuilt blocks that were erasure-decoded (k downloads)
    // rather than copied from a surviving replica (1 download).
    let decoded = med(rounds, |r| {
        let per_block = r.repair_downloads as f64 / r.rebuilt_blocks.max(1) as f64;
        ((per_block - 1.0) / (k - 1.0)).clamp(0.0, 1.0)
    });

    // Two closed-loop clients leave the links idle between ops; the k
    // downloads of an encode or a repair converge on one node and do not.
    let overshoot = if phase.is_multiple_of(2) {
        p.idle_transfer_overshoot
    } else {
        p.transfer_overshoot
    };
    let (kernels_rs, deletes, wal_namenode, admissions, per_op_s) = match phase {
        0 => (
            0.0,
            0.0,
            p.allocate_s,
            1.0,
            med(rounds, |r| r.write_lat.p50_ns as f64 / 1e9),
        ),
        1 => (
            p.rs_encode_s,
            k * (r - 1.0),
            p.plan_encoding_s + k * p.locations_s + (2.0 * m + k + 1.0) * wal,
            reads + writes,
            med(rounds, |r| {
                (r.encode_s + r.relocate_s) * CLIENTS as f64 / r.stripes as f64
            }),
        ),
        2 => (
            0.0,
            0.0,
            p.locations_s,
            1.0,
            med(rounds, |r| r.read_lat.p50_ns as f64 / 1e9),
        ),
        _ => (
            decoded * p.rs_reconstruct_s,
            1.0,
            w.n as f64 * p.locations_s + 2.0 * wal,
            1.0,
            med(rounds, |r| r.repair_s / r.rebuilt_blocks as f64),
        ),
    };
    let attributed: LayerSeconds = [
        kernels_rs,
        hashed * p.crc_s,
        writes * p.put_s + (reads - hits).max(0.0) * p.get_s + deletes * p.delete_s,
        wal_namenode,
        (hits + misses) * p.cache_get_hit_s + misses * p.cache_admit_s,
        admissions * p.ctx_s,
        wire_bytes / w.link_rate * overshoot,
    ];
    shares(&attributed, per_op_s)
}

/// The per-layer metrics of a traced run. `rounds` are its unsynced
/// rounds, in pairs of an untraced and a traced round of one seed, either
/// first; `synced` its rounds with fsync before every ack.
pub fn per_layer(w: &Workload, rounds: &[Round], synced: &[Round], p: &Probes) -> Metrics {
    let block_mib = w.block_bytes() as f64 / MIB;
    let stripe_mib = w.k as f64 * block_mib;
    let overhead: Vec<f64> = rounds
        .chunks_exact(2)
        .map(|pair| {
            let (plain, traced) = if pair[0].traced {
                (&pair[1], &pair[0])
            } else {
                (&pair[0], &pair[1])
            };
            traced.lifecycle_s() / plain.lifecycle_s()
        })
        .collect();
    let read = |f: &dyn Fn(&PhaseCounters) -> f64| med(rounds, |r| f(&r.counters[2]));
    let all_phases = |f: &dyn Fn(&PhaseCounters) -> u64| {
        med(rounds, |r| r.counters.iter().map(f).sum::<u64>() as f64)
    };
    let fixed: [f64; PER_LAYER_FIXED.len()] = [
        block_mib / p.mul_acc_s,
        stripe_mib / p.rs_encode_s,
        stripe_mib / p.rs_reconstruct_s,
        stripe_mib / p.fold_s,
        block_mib / p.crc_s,
        p.put_sync_s * 1e6,
        p.get_s * 1e6,
        block_mib / p.put_sync_s,
        block_mib / p.get_s,
        p.put_s * 1e6,
        p.delete_s * 1e6,
        p.wal_append_sync_s * 1e6,
        p.wal_append_s * 1e6,
        p.wal_checkpoint_s * 1e3,
        p.wal_reopen_s * 1e3,
        p.wal_bytes_per_record,
        p.allocate_s * 1e6,
        p.locations_s * 1e9,
        p.plan_encoding_s * 1e6,
        read(&|c| c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64),
        p.cache_get_hit_s * 1e9,
        p.cache_admit_s * 1e9,
        all_phases(&|c| c.evictions),
        read(&|c| c.crc_skipped as f64 / c.reads.max(1) as f64),
        p.fetch_local_s * 1e6,
        p.store_local_s * 1e6,
        med(rounds, |r| {
            r.counters[2].reads as f64 / r.read_lat.ops as f64
        }),
        med(rounds, |r| {
            r.counters[0].writes as f64 / r.acked_blocks as f64
        }),
        all_phases(&|c| c.read_retries),
        all_phases(&|c| c.failed_reads),
        p.ctx_s * 1e9,
        all_phases(&|c| c.shed_ops),
        all_phases(&|c| c.deadline_misses),
        all_phases(&|c| c.hedges_launched),
        p.transfer_overshoot,
        p.idle_transfer_overshoot,
        med(rounds, |r| median(&r.stripe_gap_ms) * CLIENTS as f64),
        med(rounds, |r| r.stripes as f64),
        med(rounds, |r| r.encode_cross_rack_downloads as f64),
        med(rounds, |r| r.stripes_with_relocation as f64),
        med(rounds, |r| r.relocate_s),
        med(rounds, |r| median(&r.repair_block_ms)),
        med(rounds, |r| {
            r.repair_downloads as f64 / r.rebuilt_blocks as f64
        }),
        med(rounds, |r| r.repair_cross_rack_downloads as f64),
        med(rounds, |r| r.repair_cross_rack_uploads as f64),
        med(rounds, |r| r.relocated_blocks as f64),
        med(rounds, |r| us(r.write_lat.p99_ns)),
        med(rounds, |r| us(r.read_lat.p99_ns)),
        slowdown(rounds, synced, |r| r.write_s),
        slowdown(rounds, synced, |r| us(r.write_lat.p50_ns)),
        slowdown(rounds, synced, |r| r.encode_s),
        slowdown(rounds, synced, |r| r.repair_s),
        slowdown(rounds, synced, Round::lifecycle_s),
        median(&overhead),
    ];
    let mut values: Vec<f64> = fixed.to_vec();
    for cross in [true, false] {
        for phase in 0..PHASES.len() {
            values.push(med(rounds, |r| {
                let c = &r.counters[phase];
                (if cross {
                    c.cross_rack_bytes
                } else {
                    c.intra_rack_bytes
                }) as f64
                    / MIB
            }));
        }
    }
    for phase in 0..PHASES.len() {
        values.extend(attribute(w, phase, rounds, p));
    }
    let catalogue = per_layer_catalogue();
    assert_eq!(
        catalogue.len(),
        values.len(),
        "catalogue and values drifted"
    );
    catalogue
        .into_iter()
        .zip(values)
        .map(|((name, unit, _), v)| (name, v, unit))
        .collect()
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each value with all its digits. Every workload
/// is fault-free, so an operation that failed is a defect: like any other
/// gate it withholds the line, and a line that is printed says `correct`
/// because every gate passed.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> Result<String, String> {
    if failed > 0 {
        return Err(format!(
            "{failed} of {attempted} operations failed on a fault-free workload"
        ));
    }
    let mut s =
        format!("{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::round::Latencies;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract() {
        let layers = per_layer_catalogue();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(layers.iter().map(|(n, _, _)| n.clone()));
        names.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for (_, unit, _) in &layers {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    /// No drift between the committed file and the binary: the file is the
    /// binary's own `--emit-spec` output.
    #[test]
    fn benchmark_json_is_what_the_binary_emits() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --emit-spec > BENCHMARK.json`"
        );
        let doc = json::parse(committed).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
    }

    fn sample_round(w: &Workload) -> Round {
        let counters = PhaseCounters {
            reads: 5000,
            writes: 3000,
            crc_skipped: 1000,
            cache_hits: 1000,
            cache_misses: 4000,
            cross_rack_bytes: 1 << 28,
            intra_rack_bytes: 1 << 27,
            ..PhaseCounters::default()
        };
        Round {
            traced: false,
            setup_s: 0.5,
            write_s: 1.0,
            encode_s: 2.0,
            relocate_s: 0.1,
            read_s: 1.5,
            repair_s: 0.7,
            write_lat: Latencies::of((1..=w.blocks as u64).map(|i| i * 1000).collect()),
            read_lat: Latencies::of((1..=w.reads as u64).map(|i| i * 10).collect()),
            attempted: (w.blocks + w.reads) as u64,
            failed: 0,
            first_failure: None,
            acked_blocks: w.blocks,
            stripes: 90,
            encoded_bytes: 90 * (w.k * w.block_bytes()) as u64,
            stripes_with_relocation: 3,
            relocated_blocks: 3,
            encode_cross_rack_downloads: 40,
            stripe_gap_ms: vec![1.0, 2.0, 3.0],
            stored_bytes: (w.blocks * w.block_bytes() * 3 / 2) as u64,
            rebuilt_blocks: 200,
            repair_downloads: 1500,
            repair_cross_rack_downloads: 900,
            repair_cross_rack_uploads: 10,
            repair_block_ms: vec![0.5, 0.6],
            counters: [counters; 4],
            reopen_ms: None,
        }
    }

    fn sample_probes() -> Probes {
        Probes {
            mul_acc_s: 6e-5,
            rs_encode_s: 2e-3,
            rs_reconstruct_s: 1e-3,
            fold_s: 2e-3,
            crc_s: 4e-5,
            put_sync_s: 2e-4,
            put_s: 1e-6,
            get_s: 1e-6,
            delete_s: 1e-6,
            wal_append_sync_s: 1e-3,
            wal_append_s: 2e-6,
            wal_checkpoint_s: 5e-3,
            wal_reopen_s: 1e-3,
            wal_bytes_per_record: 50.0,
            allocate_s: 3e-6,
            locations_s: 5e-8,
            plan_encoding_s: 2e-5,
            cache_get_hit_s: 1e-7,
            cache_admit_s: 3e-7,
            fetch_local_s: 5e-5,
            store_local_s: 5e-5,
            ctx_s: 3e-8,
            transfer_overshoot: 1.02,
            idle_transfer_overshoot: 0.4,
        }
    }

    /// The result lines list exactly the names the catalogue (and so
    /// BENCHMARK.json) declares, in both modes, and every share group sums
    /// to 1 with its `unattributed` term.
    #[test]
    fn result_lines_list_exactly_the_declared_metrics() {
        for w in &WORKLOADS {
            // An untraced round and its traced twin, 2 % slower.
            let rounds = [
                sample_round(w),
                Round {
                    traced: true,
                    repair_s: 0.806,
                    ..sample_round(w)
                },
            ];
            // A durable workload's run has synced rounds, a volatile one's
            // has none.
            let synced: Vec<Round> = (0..usize::from(w.durable))
                .map(|_| Round {
                    write_s: 5.0,
                    ..sample_round(w)
                })
                .collect();
            let e2e = end_to_end(w, &rounds, &[0.5, 0.6, 0.4], 321.5);
            let line = result_line(10, 0, &e2e).unwrap();
            let doc = json::parse(&line).unwrap();
            let keys: Vec<&str> = doc
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let got: Vec<&str> = doc
                .get("metrics")
                .unwrap()
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(got, want);
            assert!(e2e.iter().all(|(n, v, _)| *v > 0.0 || panic!("{n} is {v}")));

            let layers = per_layer(w, &rounds, &synced, &sample_probes());
            let doc = json::parse(&result_line(10, 0, &layers).unwrap()).unwrap();
            let got: Vec<String> = doc
                .get("metrics")
                .unwrap()
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            let want: Vec<String> = per_layer_catalogue()
                .into_iter()
                .map(|(n, _, _)| n)
                .collect();
            assert_eq!(got, want);
            let value = |name: &str| layers.iter().find(|m| m.0 == name).unwrap().1;
            assert!((value("trace.overhead_ratio") - 1.02).abs() < 1e-9);
            let slowdown = if w.durable { 5.0 } else { 1.0 };
            assert_eq!(value("client.sync.write_slowdown"), slowdown);
            assert_eq!(value("client.sync.write_p50_slowdown"), 1.0);
            for phase in PHASES {
                let sum: f64 = layers
                    .iter()
                    .filter(|(n, _, _)| n.starts_with(&format!("share.{phase}.")))
                    .map(|(_, v, _)| v)
                    .sum();
                assert!((sum - 1.0).abs() < 1e-9, "share.{phase} sums to {sum}");
            }
        }
    }

    /// A round with a failed op yields no result line, so no metric.
    #[test]
    fn failed_operations_withhold_the_result_line() {
        let w = &WORKLOADS[0];
        let rounds = [Round {
            failed: 1,
            ..sample_round(w)
        }];
        let failed: u64 = rounds.iter().map(|r| r.failed).sum();
        let e2e = end_to_end(w, &rounds, &[0.5], 321.5);
        assert!(result_line(rounds[0].attempted, failed, &e2e).is_err());
        assert!(result_line(rounds[0].attempted, 0, &e2e).is_ok());
    }

    #[test]
    fn non_finite_metrics_are_refused() {
        assert!(result_line(1, 0, &vec![("x".into(), f64::NAN, "s")]).is_err());
        assert!(result_line(1, 0, &vec![("x".into(), f64::INFINITY, "s")]).is_err());
    }
}
