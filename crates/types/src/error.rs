//! Error type shared by the EAR crates.

use crate::ids::{BlockId, NodeId};
use std::fmt;

/// Convenient alias for `Result<T, ear_types::Error>`.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while validating configurations or computing placements.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Erasure-coding parameters are invalid (e.g. `k >= n` or `k == 0`).
    InvalidErasureParams {
        /// Total number of blocks per stripe.
        n: usize,
        /// Number of data blocks per stripe.
        k: usize,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A replication configuration is invalid (e.g. zero replicas).
    InvalidReplication {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The topology cannot host the requested placement
    /// (e.g. `R < ceil(n / c)` so a stripe cannot fit, or not enough nodes).
    TopologyTooSmall {
        /// Human-readable reason.
        reason: String,
    },
    /// The placement algorithm exhausted its retry budget without finding a
    /// layout whose flow graph admits a maximum matching.
    PlacementExhausted {
        /// Index of the data block (0-based) whose layout could not be fixed.
        block_index: usize,
        /// Number of layouts tried.
        attempts: usize,
    },
    /// Erasure decode was asked to reconstruct from fewer than `k` shards.
    NotEnoughShards {
        /// Shards available.
        available: usize,
        /// Shards required (`k`).
        required: usize,
    },
    /// Shards passed to encode/decode have inconsistent lengths.
    ShardLengthMismatch,
    /// A generic invariant violation with context.
    Invariant(String),
    /// A datanode (or its whole rack) is down and cannot serve the request.
    NodeDown {
        /// The unavailable node.
        node: NodeId,
    },
    /// A block read failed checksum verification on a node.
    CorruptBlock {
        /// The block whose stored bytes no longer match their checksum.
        block: BlockId,
        /// The node that served the corrupt copy.
        node: NodeId,
    },
    /// An operation kept failing after its whole retry budget was spent.
    RetriesExhausted {
        /// What was being attempted (e.g. `"download"`).
        what: &'static str,
        /// Number of attempts made before giving up.
        attempts: usize,
    },
    /// No live, uncorrupted replica of a block could be found anywhere.
    BlockUnavailable {
        /// The block that could not be served.
        block: BlockId,
    },
    /// A single I/O attempt failed transiently; retrying may succeed.
    TransientIo {
        /// The node whose I/O attempt failed.
        node: NodeId,
    },
    /// Repair could not place a new copy of a block anywhere: every
    /// candidate destination is dead, already holds a copy, or would break
    /// the stripe's rack-level fault tolerance.
    NoRepairDestination {
        /// The block that could not be re-placed.
        block: BlockId,
    },
    /// The background healer exhausted its round budget with degraded
    /// blocks still outstanding.
    HealerStalled {
        /// Rounds executed before giving up.
        rounds: usize,
        /// Repair tasks still queued when the healer stopped.
        outstanding: usize,
    },
    /// A host-level storage operation failed (extent store, WAL,
    /// checkpoint or MANIFEST: create/read/write/rename/fsync).
    Io {
        /// What the storage layer was doing when the host call failed.
        context: String,
    },
    /// A `std::sync` lock was poisoned: a thread panicked while holding it,
    /// so the protected state may be inconsistent. Surfaced as a typed error
    /// instead of a cascading panic (DESIGN.md §11).
    LockPoisoned {
        /// Which lock was poisoned (e.g. `"failure detector"`).
        what: &'static str,
    },
    /// A durable operation (reopen from disk, checkpoint) was requested on
    /// a backend that cannot persist state across restarts.
    NotDurable {
        /// The non-durable backend (e.g. `"memory"`).
        backend: &'static str,
    },
    /// Durable metadata (write-ahead log or checkpoint) is corrupt beyond
    /// the torn-tail window that recovery tolerates: a record passed its
    /// CRC but cannot be decoded, or a checkpoint body fails verification.
    WalCorrupt {
        /// Where the corruption was detected.
        context: String,
    },
    /// The operation's virtual-clock deadline expired before it completed.
    DeadlineExceeded {
        /// What was being attempted (e.g. `"read"`).
        what: &'static str,
        /// The deadline, in virtual-clock ticks.
        deadline_ticks: u64,
    },
}

impl Error {
    /// Whether the reliability substrate stopped the whole operation (its
    /// deadline passed): no other replica, source or plan can carry it
    /// further.
    pub fn stops_the_op(&self) -> bool {
        matches!(self, Error::DeadlineExceeded { .. })
    }

    /// A short stable name for the variant, for counting errors by kind in
    /// reports (`corrupt`, `down`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            Error::InvalidErasureParams { .. } => "erasure-params",
            Error::InvalidReplication { .. } => "replication",
            Error::TopologyTooSmall { .. } => "topology",
            Error::PlacementExhausted { .. } => "placement",
            Error::NotEnoughShards { .. } => "shards",
            Error::ShardLengthMismatch => "shard-length",
            Error::Invariant(_) => "invariant",
            Error::NodeDown { .. } => "down",
            Error::CorruptBlock { .. } => "corrupt",
            Error::RetriesExhausted { .. } => "retries",
            Error::BlockUnavailable { .. } => "unavailable",
            Error::TransientIo { .. } => "transient",
            Error::NoRepairDestination { .. } => "no-destination",
            Error::HealerStalled { .. } => "healer-stalled",
            Error::Io { .. } => "io",
            Error::LockPoisoned { .. } => "lock-poisoned",
            Error::NotDurable { .. } => "not-durable",
            Error::WalCorrupt { .. } => "wal-corrupt",
            Error::DeadlineExceeded { .. } => "deadline",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidErasureParams { n, k, reason } => {
                write!(f, "invalid erasure parameters (n={n}, k={k}): {reason}")
            }
            Error::InvalidReplication { reason } => {
                write!(f, "invalid replication configuration: {reason}")
            }
            Error::TopologyTooSmall { reason } => {
                write!(f, "topology cannot host the placement: {reason}")
            }
            Error::PlacementExhausted {
                block_index,
                attempts,
            } => write!(
                f,
                "no feasible replica layout for data block {block_index} after {attempts} attempts"
            ),
            Error::NotEnoughShards {
                available,
                required,
            } => write!(
                f,
                "cannot reconstruct stripe: {available} shards available, {required} required"
            ),
            Error::ShardLengthMismatch => write!(f, "shards have inconsistent lengths"),
            Error::Invariant(msg) => write!(f, "invariant violation: {msg}"),
            Error::NodeDown { node } => write!(f, "{node} is down"),
            Error::CorruptBlock { block, node } => {
                write!(f, "{block} failed checksum verification on {node}")
            }
            Error::RetriesExhausted { what, attempts } => {
                write!(f, "{what} still failing after {attempts} attempts")
            }
            Error::BlockUnavailable { block } => {
                write!(f, "no live replica of {block} available")
            }
            Error::TransientIo { node } => {
                write!(f, "transient i/o error on {node}")
            }
            Error::NoRepairDestination { block } => {
                write!(f, "no valid repair destination for {block}")
            }
            Error::HealerStalled {
                rounds,
                outstanding,
            } => {
                write!(
                    f,
                    "healer stalled after {rounds} round(s) with {outstanding} repair task(s) outstanding"
                )
            }
            Error::Io { context } => write!(f, "storage i/o failed: {context}"),
            Error::LockPoisoned { what } => {
                write!(f, "{what} lock poisoned by a panicked thread")
            }
            Error::NotDurable { backend } => {
                write!(f, "{backend} backend cannot persist state across restarts")
            }
            Error::WalCorrupt { context } => {
                write!(f, "durable metadata corrupt: {context}")
            }
            Error::DeadlineExceeded {
                what,
                deadline_ticks,
            } => {
                write!(f, "{what} missed its {deadline_ticks}-tick deadline")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn only_a_missed_deadline_stops_an_op() {
        assert!(Error::DeadlineExceeded { what: "read", deadline_ticks: 1 }.stops_the_op());
        let node = NodeId(1);
        let others = [
            Error::NodeDown { node },
            Error::TransientIo { node },
            Error::CorruptBlock { block: BlockId(2), node },
            Error::BlockUnavailable { block: BlockId(2) },
        ];
        assert!(!others.iter().any(Error::stops_the_op));
    }

    #[test]
    fn the_read_path_errors_have_short_kinds() {
        let (node, block) = (NodeId(1), BlockId(2));
        let errs = [
            Error::NodeDown { node },
            Error::CorruptBlock { block, node },
            Error::TransientIo { node },
            Error::BlockUnavailable { block },
            Error::NotEnoughShards { available: 3, required: 4 },
            Error::DeadlineExceeded { what: "read", deadline_ticks: 1 },
        ];
        let kinds: Vec<&str> = errs.iter().map(Error::kind).collect();
        assert_eq!(kinds, ["down", "corrupt", "transient", "unavailable", "shards", "deadline"]);
    }

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            Error::InvalidErasureParams {
                n: 4,
                k: 6,
                reason: "k must be less than n",
            },
            Error::InvalidReplication {
                reason: "at least one replica required",
            },
            Error::TopologyTooSmall {
                reason: "need 14 racks".into(),
            },
            Error::PlacementExhausted {
                block_index: 3,
                attempts: 100,
            },
            Error::NotEnoughShards {
                available: 2,
                required: 4,
            },
            Error::ShardLengthMismatch,
            Error::Invariant("x".into()),
            Error::NodeDown { node: NodeId(3) },
            Error::CorruptBlock {
                block: BlockId(9),
                node: NodeId(1),
            },
            Error::RetriesExhausted {
                what: "download",
                attempts: 5,
            },
            Error::BlockUnavailable { block: BlockId(2) },
            Error::TransientIo { node: NodeId(0) },
            Error::NoRepairDestination { block: BlockId(4) },
            Error::HealerStalled {
                rounds: 16,
                outstanding: 2,
            },
            Error::Io {
                context: "write /tmp/ear-store/0.blk".into(),
            },
            Error::NotDurable { backend: "memory" },
            Error::WalCorrupt {
                context: "checkpoint payload crc mismatch".into(),
            },
            Error::DeadlineExceeded {
                what: "read",
                deadline_ticks: 50_000,
            },
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }
}
