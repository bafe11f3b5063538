//! Configuration parameters: erasure coding, replication, and EAR knobs.

use crate::{Error, Result};

/// Parameters of an `(n, k)` systematic erasure code (Section II-A).
///
/// A stripe holds `k` data blocks and `n - k` parity blocks; any `k` of the
/// `n` blocks reconstruct the originals.
///
/// ```
/// use ear_types::ErasureParams;
/// let p = ErasureParams::new(14, 10).unwrap(); // Facebook's choice
/// assert_eq!(p.parity(), 4);
/// assert!(ErasureParams::new(4, 6).is_err()); // k must be < n
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ErasureParams {
    n: usize,
    k: usize,
}

impl ErasureParams {
    /// Creates `(n, k)` parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidErasureParams`] if `k == 0`, `k >= n`, or
    /// `n > 255` (the GF(2⁸) Reed–Solomon limit used by this project).
    pub fn new(n: usize, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(Error::InvalidErasureParams {
                n,
                k,
                reason: "k must be positive",
            });
        }
        if k >= n {
            return Err(Error::InvalidErasureParams {
                n,
                k,
                reason: "k must be less than n",
            });
        }
        if n > 255 {
            return Err(Error::InvalidErasureParams {
                n,
                k,
                reason: "n must be at most 255 for GF(256) Reed-Solomon",
            });
        }
        Ok(ErasureParams { n, k })
    }

    /// Total blocks per stripe (`n`).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Data blocks per stripe (`k`).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parity blocks per stripe (`n - k`).
    #[inline]
    pub fn parity(&self) -> usize {
        self.n - self.k
    }

    /// Storage overhead factor `n / k` (e.g. 1.4 for `(14, 10)`).
    pub fn overhead(&self) -> f64 {
        self.n as f64 / self.k as f64
    }
}

/// How replicas of a block are spread across racks during replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RackSpread {
    /// HDFS default (Section II-A): the first replica goes to one rack, all
    /// remaining replicas go to distinct nodes in a single *different* rack.
    /// With 3-way replication this tolerates a two-node or single-rack
    /// failure.
    #[default]
    TwoRacks,
    /// Each replica is placed in a distinct rack (used in Experiment B.2,
    /// Fig. 13(f), when varying the number of replicas).
    DistinctRacks,
}

/// Replication policy knobs: replica count and rack spread.
///
/// ```
/// use ear_types::ReplicationConfig;
/// let c = ReplicationConfig::hdfs_default(); // 3 replicas over 2 racks
/// assert_eq!(c.replicas(), 3);
/// assert_eq!(c.racks_spanned(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicationConfig {
    replicas: usize,
    spread: RackSpread,
}

impl ReplicationConfig {
    /// Creates a replication configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidReplication`] if `replicas == 0`, or if
    /// `spread` is [`RackSpread::TwoRacks`] with fewer than 2 replicas
    /// (a single replica cannot span two racks).
    pub fn new(replicas: usize, spread: RackSpread) -> Result<Self> {
        if replicas == 0 {
            return Err(Error::InvalidReplication {
                reason: "at least one replica required",
            });
        }
        if replicas == 1 && spread == RackSpread::TwoRacks {
            return Err(Error::InvalidReplication {
                reason: "two-rack spread requires at least two replicas",
            });
        }
        Ok(ReplicationConfig { replicas, spread })
    }

    /// HDFS's default: 3-way replication over two racks.
    pub fn hdfs_default() -> Self {
        ReplicationConfig {
            replicas: 3,
            spread: RackSpread::TwoRacks,
        }
    }

    /// The testbed configuration of Section V-A: 2-way replication, one
    /// replica per rack.
    pub fn two_way() -> Self {
        ReplicationConfig {
            replicas: 2,
            spread: RackSpread::TwoRacks,
        }
    }

    /// Number of replicas per block (`r`).
    #[inline]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Rack-spread policy.
    #[inline]
    pub fn spread(&self) -> RackSpread {
        self.spread
    }

    /// How many distinct racks the replicas of one block occupy.
    pub fn racks_spanned(&self) -> usize {
        match self.spread {
            RackSpread::TwoRacks => 2.min(self.replicas),
            RackSpread::DistinctRacks => self.replicas,
        }
    }
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self::hdfs_default()
    }
}

/// Full EAR configuration (Section III).
///
/// * `erasure` — the `(n, k)` code applied at encoding time.
/// * `replication` — how blocks are replicated before encoding.
/// * `c` — the maximum number of blocks of one stripe allowed in a single
///   rack after encoding; the stripe then tolerates `floor((n-k)/c)` rack
///   failures (Section III-B).
/// * `target_racks` — optional `R' < R`: restrict all blocks of every stripe
///   to `R'` randomly chosen racks to cut cross-rack recovery traffic
///   (Section III-D). Requires `R' >= ceil(n / c)`.
///
/// ```
/// use ear_types::{EarConfig, ErasureParams, ReplicationConfig};
/// let cfg = EarConfig::new(
///     ErasureParams::new(14, 10).unwrap(),
///     ReplicationConfig::hdfs_default(),
///     1,
/// ).unwrap();
/// assert_eq!(cfg.tolerable_rack_failures(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EarConfig {
    erasure: ErasureParams,
    replication: ReplicationConfig,
    c: usize,
    target_racks: Option<usize>,
}

impl EarConfig {
    /// Creates an EAR configuration with `c` blocks of a stripe allowed per
    /// rack.
    ///
    /// # Errors
    ///
    /// Returns an error if `c == 0` or `c >= n` (the stripe would fit in one
    /// rack, providing no rack-level fault tolerance at all).
    pub fn new(erasure: ErasureParams, replication: ReplicationConfig, c: usize) -> Result<Self> {
        if c == 0 {
            return Err(Error::InvalidReplication {
                reason: "c (max stripe blocks per rack) must be positive",
            });
        }
        if c >= erasure.n() {
            return Err(Error::InvalidReplication {
                reason: "c must be less than n, otherwise a whole stripe fits in one rack",
            });
        }
        Ok(EarConfig {
            erasure,
            replication,
            c,
            target_racks: None,
        })
    }

    /// The paper's strictest setting: `c = 1`, tolerating `n - k` rack
    /// failures as in Facebook's f4 (Section III-B).
    pub fn max_rack_tolerance(erasure: ErasureParams, replication: ReplicationConfig) -> Self {
        EarConfig {
            erasure,
            replication,
            c: 1,
            target_racks: None,
        }
    }

    /// Restricts all stripe blocks to `r_prime` target racks (Section III-D).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TopologyTooSmall`] if `r_prime * c < n`, because a
    /// stripe of `n` blocks could not fit in the target racks.
    pub fn with_target_racks(mut self, r_prime: usize) -> Result<Self> {
        if r_prime * self.c < self.erasure.n() {
            return Err(Error::TopologyTooSmall {
                reason: format!(
                    "need R' * c >= n but {} * {} < {}",
                    r_prime,
                    self.c,
                    self.erasure.n()
                ),
            });
        }
        self.target_racks = Some(r_prime);
        Ok(self)
    }

    /// The erasure-coding parameters.
    #[inline]
    pub fn erasure(&self) -> ErasureParams {
        self.erasure
    }

    /// The replication configuration used before encoding.
    #[inline]
    pub fn replication(&self) -> ReplicationConfig {
        self.replication
    }

    /// Maximum blocks of one stripe per rack after encoding.
    #[inline]
    pub fn c(&self) -> usize {
        self.c
    }

    /// Optional number of target racks `R'`.
    #[inline]
    pub fn target_racks(&self) -> Option<usize> {
        self.target_racks
    }

    /// Number of rack failures the encoded stripe tolerates:
    /// `floor((n - k) / c)`.
    pub fn tolerable_rack_failures(&self) -> usize {
        self.erasure.parity() / self.c
    }

    /// Minimum number of racks required to host one stripe: `ceil(n / c)`.
    pub fn min_racks_for_stripe(&self) -> usize {
        self.erasure.n().div_ceil(self.c)
    }
}

/// Which block-storage backend the DataNodes of a cluster use.
///
/// Selected per cluster through `ClusterConfig`; the conventional default is
/// [`StoreBackend::from_env`], which reads the `EAR_STORE` environment
/// variable so the whole test suite can be flipped between backends without
/// code changes (mirroring the `EAR_GF_KERNEL` override of the erasure
/// layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StoreBackend {
    /// Sharded in-memory store: lock-striped `HashMap`s, zero-copy reads.
    #[default]
    Memory,
    /// Extent-based store: blocks packed into aligned segment files through
    /// a free-list allocator, with header+payload CRC framing, explicit
    /// fsync barriers, and torn-write detection on reopen (DESIGN.md §13).
    Extent,
}

impl StoreBackend {
    /// Reads the backend from the `EAR_STORE` environment variable
    /// (`memory` or `extent`, case-insensitive). Unset defaults to
    /// [`StoreBackend::Memory`].
    ///
    /// # Panics
    ///
    /// Panics on an unrecognised value: a typo silently falling back to the
    /// default would invalidate a "tested under both backends" claim.
    pub fn from_env() -> Self {
        match std::env::var("EAR_STORE") {
            Ok(v) if v.eq_ignore_ascii_case("memory") => StoreBackend::Memory,
            Ok(v) if v.eq_ignore_ascii_case("extent") => StoreBackend::Extent,
            Ok(v) => panic!("EAR_STORE must be `memory` or `extent`, got `{v}`"),
            Err(_) => StoreBackend::Memory,
        }
    }

    /// Stable lowercase label (`"memory"` / `"extent"`) for stats and
    /// bench output.
    pub fn name(self) -> &'static str {
        match self {
            StoreBackend::Memory => "memory",
            StoreBackend::Extent => "extent",
        }
    }

    /// Whether stores of this backend can survive a process restart when
    /// rooted in a persistent data directory. The memory backend cannot —
    /// reopening it yields [`crate::Error::NotDurable`], never a silently
    /// empty cluster.
    pub fn is_durable(self) -> bool {
        !matches!(self, StoreBackend::Memory)
    }
}

/// Durability knobs of a cluster (DESIGN.md §13).
///
/// With `data_dir` unset (the default) the cluster is volatile, exactly as
/// before the durability layer existed: NameNode metadata lives only in
/// memory and DataNode stores use throwaway temp roots. With `data_dir`
/// set, NameNode mutations are written ahead to a CRC32C-framed log under
/// `<data_dir>/meta/` before they are acknowledged, checkpoints compact
/// that log, and DataNode stores live under `<data_dir>/nodes/n<i>/` and
/// survive a drop + reopen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Root directory of the persistent cluster state; `None` = volatile.
    pub data_dir: Option<std::path::PathBuf>,
    /// Whether WAL appends and store commits fsync before acknowledging.
    /// Defaults to `true`; benchmarks may disable it to measure the
    /// fsync cost itself.
    pub sync_writes: bool,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            data_dir: None,
            sync_writes: true,
        }
    }
}

impl DurabilityConfig {
    /// A durable configuration rooted at `dir` with default knobs.
    pub fn at(dir: impl Into<std::path::PathBuf>) -> Self {
        DurabilityConfig {
            data_dir: Some(dir.into()),
            ..DurabilityConfig::default()
        }
    }

    /// Whether the cluster persists state across restarts.
    pub fn is_durable(&self) -> bool {
        self.data_dir.is_some()
    }
}

/// The DataNode-side block cache configuration (DESIGN.md §12).
///
/// Selected per cluster through `ClusterConfig.cache`; the conventional
/// default is [`CacheConfig::from_env`], which reads the `EAR_CACHE`
/// environment variable so the whole test suite can be flipped between
/// cached and uncached reads without code changes (mirroring `EAR_STORE`).
///
/// Accepted forms:
///
/// * `off` — no cache; every read goes to the [`StoreBackend`] and is
///   CRC32C-verified.
/// * `<hot>,<cold>` — byte capacities of the hot (LRU) and cold (clock)
///   levels, each a plain integer with an optional `k`/`m`/`g` binary
///   suffix, e.g. `EAR_CACHE=4m,16m`.
///
/// Unset defaults to [`CacheConfig::default`] (8 MiB hot, 32 MiB cold per
/// node — comfortably larger than the testbed working sets so cache-hot
/// benchmarks measure the hit path, small enough that eviction still
/// exercises under soak workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheConfig {
    /// Caching disabled: reads always hit the store and re-verify.
    Off,
    /// Two-level cache with per-level byte capacities.
    Sized {
        /// Capacity of the hot (LRU) level in bytes.
        hot_bytes: u64,
        /// Capacity of the cold (clock) level in bytes.
        cold_bytes: u64,
    },
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::Sized {
            hot_bytes: 8 << 20,
            cold_bytes: 32 << 20,
        }
    }
}

impl CacheConfig {
    /// Reads the configuration from the `EAR_CACHE` environment variable.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognised value: a typo silently falling back to the
    /// default would invalidate a "tested with the cache off" claim, exactly
    /// as [`StoreBackend::from_env`] treats `EAR_STORE`.
    pub fn from_env() -> Self {
        match std::env::var("EAR_CACHE") {
            Ok(v) => match Self::parse(&v) {
                Some(cfg) => cfg,
                None => panic!("EAR_CACHE must be `off` or `<hot>,<cold>` byte sizes, got `{v}`"),
            },
            Err(_) => CacheConfig::default(),
        }
    }

    /// Parses `off` or `<hot>,<cold>` (sizes accept `k`/`m`/`g` binary
    /// suffixes). Returns `None` on malformed input.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("off") {
            return Some(CacheConfig::Off);
        }
        let (hot, cold) = s.split_once(',')?;
        Some(CacheConfig::Sized {
            hot_bytes: parse_size(hot)?,
            cold_bytes: parse_size(cold)?,
        })
    }

    /// Whether caching is disabled.
    #[inline]
    pub fn is_off(&self) -> bool {
        matches!(self, CacheConfig::Off)
    }

    /// Hot-level capacity in bytes (0 when off).
    pub fn hot_bytes(&self) -> u64 {
        match *self {
            CacheConfig::Off => 0,
            CacheConfig::Sized { hot_bytes, .. } => hot_bytes,
        }
    }

    /// Cold-level capacity in bytes (0 when off).
    pub fn cold_bytes(&self) -> u64 {
        match *self {
            CacheConfig::Off => 0,
            CacheConfig::Sized { cold_bytes, .. } => cold_bytes,
        }
    }

    /// Stable label (`"off"` / `"<hot>,<cold>"`) for stats and bench output.
    pub fn label(&self) -> String {
        match *self {
            CacheConfig::Off => "off".to_string(),
            CacheConfig::Sized {
                hot_bytes,
                cold_bytes,
            } => format!("{hot_bytes},{cold_bytes}"),
        }
    }
}

/// Parses a byte size: a plain integer with an optional case-insensitive
/// `k`/`m`/`g` binary suffix (`4m` = 4 MiB).
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, shift) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 10u32),
        b'm' | b'M' => (&s[..s.len() - 1], 20),
        b'g' | b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: u64 = digits.trim().parse().ok()?;
    n.checked_shl(shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erasure_params_validation() {
        assert!(ErasureParams::new(5, 4).is_ok());
        assert!(ErasureParams::new(5, 5).is_err());
        assert!(ErasureParams::new(5, 0).is_err());
        assert!(ErasureParams::new(256, 100).is_err());
    }

    #[test]
    fn erasure_params_accessors() {
        let p = ErasureParams::new(12, 10).unwrap();
        assert_eq!(p.n(), 12);
        assert_eq!(p.k(), 10);
        assert_eq!(p.parity(), 2);
        assert!((p.overhead() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn replication_config_validation() {
        assert!(ReplicationConfig::new(3, RackSpread::TwoRacks).is_ok());
        assert!(ReplicationConfig::new(0, RackSpread::TwoRacks).is_err());
        assert!(ReplicationConfig::new(1, RackSpread::TwoRacks).is_err());
        assert!(ReplicationConfig::new(1, RackSpread::DistinctRacks).is_ok());
    }

    #[test]
    fn racks_spanned() {
        assert_eq!(ReplicationConfig::hdfs_default().racks_spanned(), 2);
        assert_eq!(
            ReplicationConfig::new(5, RackSpread::DistinctRacks)
                .unwrap()
                .racks_spanned(),
            5
        );
        assert_eq!(ReplicationConfig::two_way().racks_spanned(), 2);
    }

    #[test]
    fn ear_config_rack_tolerance() {
        let p = ErasureParams::new(14, 10).unwrap();
        let r = ReplicationConfig::hdfs_default();
        let cfg = EarConfig::new(p, r, 1).unwrap();
        assert_eq!(cfg.tolerable_rack_failures(), 4);
        assert_eq!(cfg.min_racks_for_stripe(), 14);

        let cfg2 = EarConfig::new(p, r, 2).unwrap();
        assert_eq!(cfg2.tolerable_rack_failures(), 2);
        assert_eq!(cfg2.min_racks_for_stripe(), 7);
    }

    #[test]
    fn store_backend_labels_and_default() {
        // No env mutation here: tests run in parallel and `EAR_STORE` is the
        // suite-wide backend switch.
        assert_eq!(StoreBackend::default(), StoreBackend::Memory);
        assert_eq!(StoreBackend::Memory.name(), "memory");
        assert_eq!(StoreBackend::Extent.name(), "extent");
        assert!(!StoreBackend::Memory.is_durable());
        assert!(StoreBackend::Extent.is_durable());
    }

    #[test]
    fn durability_config_defaults_to_volatile() {
        let d = DurabilityConfig::default();
        assert!(!d.is_durable());
        assert!(d.sync_writes);
        let d = DurabilityConfig::at("/tmp/ear-data");
        assert!(d.is_durable());
        assert_eq!(
            d.data_dir.as_deref(),
            Some(std::path::Path::new("/tmp/ear-data"))
        );
    }

    #[test]
    fn cache_config_parses_and_labels() {
        // No env mutation here: tests run in parallel and `EAR_CACHE` is the
        // suite-wide cache switch.
        assert_eq!(CacheConfig::parse("off"), Some(CacheConfig::Off));
        assert_eq!(CacheConfig::parse("OFF"), Some(CacheConfig::Off));
        assert_eq!(
            CacheConfig::parse("4096,65536"),
            Some(CacheConfig::Sized {
                hot_bytes: 4096,
                cold_bytes: 65536
            })
        );
        assert_eq!(
            CacheConfig::parse("4m, 16M"),
            Some(CacheConfig::Sized {
                hot_bytes: 4 << 20,
                cold_bytes: 16 << 20
            })
        );
        assert_eq!(
            CacheConfig::parse("1k,1g"),
            Some(CacheConfig::Sized {
                hot_bytes: 1 << 10,
                cold_bytes: 1 << 30
            })
        );
        assert_eq!(CacheConfig::parse("on"), None);
        assert_eq!(CacheConfig::parse("4m"), None, "both levels are required");
        assert_eq!(CacheConfig::parse("x,4m"), None);
        assert!(CacheConfig::Off.is_off());
        assert_eq!(CacheConfig::Off.label(), "off");
        assert_eq!(CacheConfig::Off.hot_bytes(), 0);
        let d = CacheConfig::default();
        assert!(!d.is_off());
        assert_eq!(d.hot_bytes(), 8 << 20);
        assert_eq!(d.cold_bytes(), 32 << 20);
        assert_eq!(d.label(), format!("{},{}", 8 << 20, 32 << 20));
    }

    #[test]
    fn ear_config_validation() {
        let p = ErasureParams::new(6, 3).unwrap();
        let r = ReplicationConfig::hdfs_default();
        assert!(EarConfig::new(p, r, 0).is_err());
        assert!(EarConfig::new(p, r, 6).is_err());
        // Section III-D example: (6,3), c = 3, R' = 2 target racks.
        let cfg = EarConfig::new(p, r, 3)
            .unwrap()
            .with_target_racks(2)
            .unwrap();
        assert_eq!(cfg.target_racks(), Some(2));
        assert_eq!(cfg.tolerable_rack_failures(), 1);
        // R' * c < n is rejected.
        assert!(EarConfig::new(p, r, 2)
            .unwrap()
            .with_target_racks(2)
            .is_err());
    }
}
