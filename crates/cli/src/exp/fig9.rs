//! Figure 9 (Experiment A.2): impact of encoding on write performance.
//!
//! Writes arrive as a Poisson stream; after a warm-up period the encoding
//! job starts. The paper reports the average write response time during
//! encoding and the total encoding time for RR vs EAR (64 MiB blocks over
//! 300 s on the real testbed; here time is compressed with the same
//! block/bandwidth scaling as Fig. 8).

use crate::{Scale, Table};
use ear_cluster::{ClusterConfig, ClusterPolicy, MiniCfs, RaidNode};
use ear_types::rng::ChaCha8;
use ear_types::{ByteSize, EarConfig, ErasureParams, NodeId, ReplicationConfig, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The measurements for one policy.
#[derive(Debug, Clone)]
pub struct WriteDuringEncode {
    /// Policy name.
    pub policy: &'static str,
    /// Mean write response before encoding starts, seconds.
    pub before: f64,
    /// Mean write response while encoding runs, seconds.
    pub during: f64,
    /// Total encoding time, seconds.
    pub encode_seconds: f64,
    /// Raw `(arrival_offset, response)` samples.
    pub samples: Vec<(f64, f64)>,
}

/// Runs one policy's A.2 experiment.
///
/// # Errors
///
/// Propagates cluster failures.
pub fn measure(policy: ClusterPolicy, scale: Scale, seed: u64) -> Result<WriteDuringEncode> {
    let (n, k) = (10usize, 8usize);
    let ear = EarConfig::new(ErasureParams::new(n, k)?, ReplicationConfig::two_way(), 1)?;
    let mut cfg = ClusterConfig::testbed(policy, ear);
    cfg.block_size = scale.pick(ByteSize::mib(1), ByteSize::mib(4));
    let bw = scale.pick(32e6, 128e6);
    cfg.node_bandwidth = ear_types::Bandwidth::bytes_per_sec(bw);
    cfg.rack_bandwidth = ear_types::Bandwidth::bytes_per_sec(bw);
    cfg.seed = seed;
    let cfs = MiniCfs::new(cfg)?;

    // Data to encode: as in the paper, written before the measurement.
    let stripes = scale.pick(8, 96);
    let nodes = cfs.topology().num_nodes() as u64;
    let mut i = 0u64;
    while cfs.namenode().pending_stripe_count() < stripes {
        let data = cfs.make_block(i);
        cfs.write_block(NodeId((i % nodes) as u32), data)?;
        i += 1;
    }

    // Poisson writes in a background thread; encoding starts after a
    // warm-up.
    let warmup = scale.pick(0.5, 3.0);
    let write_rate = scale.pick(8.0, 4.0); // requests/second
    let start = Instant::now();
    let stop = AtomicBool::new(false);

    let (encode_seconds, end, samples) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Result<Vec<(f64, f64)>> {
            let mut rng = ChaCha8::from_seed(seed ^ 0xBEEF);
            let mut tag = 1_000_000u64;
            let mut responses = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let gap = -(1.0 - rng.unit_f64()).ln() / write_rate;
                std::thread::sleep(std::time::Duration::from_secs_f64(gap));
                let arrival = start.elapsed().as_secs_f64();
                let client = NodeId((tag % nodes) as u32);
                let data = cfs.make_block(tag);
                tag += 1;
                cfs.write_block(client, data)?;
                let resp = start.elapsed().as_secs_f64() - arrival;
                responses.push((arrival, resp));
            }
            Ok(responses)
        });

        std::thread::sleep(std::time::Duration::from_secs_f64(warmup));
        let enc_start = Instant::now();
        let encoded = RaidNode::encode_all(&cfs, 12);
        let secs = enc_start.elapsed().as_secs_f64();
        let end = start.elapsed().as_secs_f64();
        // Stop the writer before looking at the encode result: an early
        // return here would leave the scope joining a writer that never ends.
        stop.store(true, Ordering::SeqCst);
        let samples = writer
            .join()
            .map_err(|_| ear_types::Error::Invariant("writer panicked".into()))??;
        encoded?;
        Ok::<_, ear_types::Error>((secs, end, samples))
    })?;

    let split = warmup;
    let mean = |xs: Vec<f64>| -> f64 {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let before = mean(
        samples
            .iter()
            .filter(|(a, _)| *a < split)
            .map(|(_, r)| *r)
            .collect(),
    );
    let during = mean(
        samples
            .iter()
            .filter(|(a, _)| *a >= split && *a <= end)
            .map(|(_, r)| *r)
            .collect(),
    );
    Ok(WriteDuringEncode {
        policy: policy.name(),
        before,
        during,
        encode_seconds,
        samples,
    })
}

/// Runs RR and EAR and renders the comparison.
pub fn run(scale: Scale) -> String {
    let rr = measure(ClusterPolicy::Rr, scale, 9).expect("rr run");
    let ear = measure(ClusterPolicy::Ear, scale, 9).expect("ear run");
    let mut out =
        String::from("Figure 9 (Experiment A.2): write response times while encoding, (10,8)\n\n");
    let mut t = Table::new(&[
        "policy",
        "write resp before (s)",
        "write resp during (s)",
        "encode time (s)",
    ]);
    for m in [&rr, &ear] {
        t.row_owned(vec![
            m.policy.to_string(),
            format!("{:.3}", m.before),
            format!("{:.3}", m.during),
            format!("{:.3}", m.encode_seconds),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nEAR reduces the during-encoding write response time by {:.1}% and the \
         encoding time by {:.1}% (paper: 12.4% and 31.6%).\n",
        (1.0 - ear.during / rr.during) * 100.0,
        (1.0 - ear.encode_seconds / rr.encode_seconds) * 100.0,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_slow_down_during_encoding_and_ear_encodes_faster() {
        let rr = measure(ClusterPolicy::Rr, Scale::Quick, 5).unwrap();
        let ear = measure(ClusterPolicy::Ear, Scale::Quick, 5).unwrap();
        assert!(!rr.samples.is_empty());
        assert!(
            ear.encode_seconds < rr.encode_seconds,
            "EAR {}s should encode faster than RR {}s",
            ear.encode_seconds,
            rr.encode_seconds
        );
    }
}
