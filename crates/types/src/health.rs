//! Shared vocabulary of the self-healing control plane: failure-detector
//! states and the statistics a healing run reports.
//!
//! The detector itself (heartbeat bookkeeping, phi computation) lives in
//! `ear-cluster::health`; these types sit here so reports, the CLI, and the
//! experiment harnesses can speak about node health without depending on the
//! cluster emulator.

use std::fmt;

/// Failure-detector state of one DataNode.
///
/// The state machine (DESIGN.md §8):
///
/// ```text
///           phi >= suspect            phi >= dead
///   Live ------------------> Suspect -------------> Dead
///    ^  <------------------    |                     |
///    |      heartbeat          |                     | heartbeat
///    |                         |                     v
///    +---- enough consecutive heartbeats ------- Rejoined
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeHealth {
    /// Heartbeats arriving on schedule.
    Live,
    /// Heartbeats overdue (phi past the suspicion threshold); the node is
    /// deprioritised as a repair source but not yet declared lost.
    Suspect,
    /// Heartbeats overdue past the dead threshold; the node's blocks are
    /// considered lost and queued for repair.
    Dead,
    /// A formerly-dead node resumed heartbeating; it must heartbeat
    /// consecutively for a configured count before being trusted as Live.
    Rejoined,
}

impl fmt::Display for NodeHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeHealth::Live => "live",
            NodeHealth::Suspect => "suspect",
            NodeHealth::Dead => "dead",
            NodeHealth::Rejoined => "rejoined",
        };
        write!(f, "{s}")
    }
}

/// Statistics of one background-healing run (one or more healer rounds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealStats {
    /// Healer rounds executed.
    pub rounds: usize,
    /// Nodes the failure detector declared dead during the run.
    pub nodes_declared_dead: usize,
    /// Pre-encoding (replicated) blocks brought back to their target
    /// replica count.
    pub blocks_re_replicated: usize,
    /// Encoded-stripe shards rebuilt by degraded reads.
    pub shards_reconstructed: usize,
    /// Replicas checked by the CRC32C scrubber.
    pub blocks_scrubbed: usize,
    /// Replicas the scrubber found silently corrupted (each is dropped and
    /// queued for repair like a lost copy).
    pub scrub_hits: usize,
    /// Total bytes moved by repair traffic (downloads + uploads).
    pub repair_bytes: u64,
    /// Repair bytes that crossed racks — the reliability/performance knob
    /// rack-aware repair scheduling optimises.
    pub cross_rack_repair_bytes: u64,
    /// Rounds from the first observed redundancy loss until the cluster was
    /// back at full redundancy (`None` if nothing ever degraded).
    pub mttr_rounds: Option<usize>,
    /// Whether the run ended with every tracked block at full redundancy.
    pub converged: bool,
    /// The fault-plan seed active during the run (`None` = fault-free).
    pub fault_seed: Option<u64>,
    /// Circuit-breaker trips (node declared Suspect/Dead while its breaker
    /// was closed) observed by the reliability substrate during the run.
    pub breaker_trips: u64,
}

impl HealStats {
    /// One-line rendering for reports: the counters the paper's reliability
    /// argument cares about.
    pub fn summary(&self) -> String {
        format!(
            "rounds={} dead={} re-replicated={} reconstructed={} scrubbed={} \
             scrub-hits={} repair-bytes={} cross-rack-repair-bytes={} breaker-trips={} \
             mttr-rounds={} {}",
            self.rounds,
            self.nodes_declared_dead,
            self.blocks_re_replicated,
            self.shards_reconstructed,
            self.blocks_scrubbed,
            self.scrub_hits,
            self.repair_bytes,
            self.cross_rack_repair_bytes,
            self.breaker_trips,
            self.mttr_rounds
                .map_or_else(|| "-".to_string(), |r| r.to_string()),
            if self.converged {
                "converged"
            } else {
                "STALLED"
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_displays_lowercase() {
        for (h, s) in [
            (NodeHealth::Live, "live"),
            (NodeHealth::Suspect, "suspect"),
            (NodeHealth::Dead, "dead"),
            (NodeHealth::Rejoined, "rejoined"),
        ] {
            assert_eq!(h.to_string(), s);
        }
    }

    #[test]
    fn summary_names_the_counters() {
        let mut st = HealStats {
            rounds: 3,
            blocks_re_replicated: 2,
            shards_reconstructed: 1,
            scrub_hits: 4,
            cross_rack_repair_bytes: 65536,
            breaker_trips: 5,
            mttr_rounds: Some(2),
            converged: true,
            ..HealStats::default()
        };
        let s = st.summary();
        assert!(s.contains("re-replicated=2"));
        assert!(s.contains("breaker-trips=5"));
        assert!(s.contains("reconstructed=1"));
        assert!(s.contains("scrub-hits=4"));
        assert!(s.contains("cross-rack-repair-bytes=65536"));
        assert!(s.contains("mttr-rounds=2"));
        assert!(s.contains("converged"));
        st.converged = false;
        st.mttr_rounds = None;
        let s = st.summary();
        assert!(s.contains("STALLED"));
        assert!(s.contains("mttr-rounds=-"));
    }
}
