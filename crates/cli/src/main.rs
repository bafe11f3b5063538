//! `ear` — command-line interface to the EAR reproduction.
//!
//! ```text
//! ear experiment <id> [--scale quick|full]   reproduce a paper figure/table
//! ear simulate [options]                     run one CFS simulation
//! ear place [options]                        place stripes and show the plans
//! ear analyze violation|crossrack|theorem1   closed-form analyses
//! ear list                                   list experiment ids
//! ```

mod args;

use args::{ArgError, Args};
use ear_cli::{exp, Scale};
use ear_cluster::chaos::{run_heal_plan, run_plan, ChaosConfig, HealSoakConfig};
use ear_cluster::{crashsim, ClusterConfig, ClusterPolicy, HealerConfig, MiniCfs};
use ear_sim::{run as sim_run, SimConfig};
use ear_types::rng::ChaCha8;
use ear_types::{
    Bandwidth, ByteSize, CacheConfig, ClusterTopology, DurabilityConfig, EarConfig,
    ErasureParams, ReplicationConfig, StoreBackend,
};
use std::collections::BTreeMap;

const USAGE: &str = "\
ear — encoding-aware replication (Li, Hu & Lee, DSN 2015) reproduction

USAGE:
  ear experiment <id> [--scale quick|full]   reproduce a figure/table (see `ear list`)
  ear simulate [--policy rr|ear] [--racks R] [--nodes N] [--n N] [--k K] [--c C]
               [--write-rate W] [--background-rate B] [--processes P]
               [--stripes-per-process S] [--gbit G] [--seed X] [--relocate]
  ear place    [--policy rr|ear] [--racks R] [--nodes N] [--n N] [--k K] [--c C]
               [--stripes S] [--seed X]
  ear analyze violation --racks R --k K
  ear analyze crossrack --racks R --k K
  ear analyze theorem1 --racks R --c C --k K
  ear chaos    [--policy rr|ear|both] [--plans N] [--seed S]
               [--profile light|heavy|mixed] [--store memory|extent]
               [--stragglers] [--no-hedge]
  ear heal     [--plans N] [--seed S] [--kills K] [--stripes S]
               [--max-rounds R] [--byte-budget B] [--store memory|extent]
  ear crashsim [--surface meta|extent|all] [--seeds N] [--kills K]
               [--seed S]
  ear recover  --dir PATH [--n N] [--k K] [--c C]
  ear list

The chaos/heal storage backend defaults to the EAR_STORE environment
variable (memory when unset); --store overrides it. Every chaos plan
prints its probe reads' failures, tail latencies and hedges; `ear chaos
--stragglers` runs the straggler-heavy (Pareto-delay) mix, and --no-hedge
disables hedged reads for comparison. `crashsim` sweeps the durability
layer's deterministic kill-point simulator over its two scripts (the
metadata log with its checkpoints, and the extent store) and counts the
cuts landing in each window; `recover` replays a durable
data directory's WAL + checkpoint and prints the image.
";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(raw) {
        Ok(output) => println!("{output}"),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn run(raw: Vec<String>) -> Result<String, Box<dyn std::error::Error>> {
    let args = Args::parse(raw)?;
    let cmd: Vec<&str> = args.positional().iter().map(String::as_str).collect();
    let output = match cmd.as_slice() {
        [] | ["help"] => USAGE.to_string(),
        ["list"] => list_experiments(),
        ["experiment", id] => experiment(id, &args)?,
        ["simulate"] => simulate(&args)?,
        ["place"] => place(&args)?,
        ["analyze", what] => analyze(what, &args)?,
        ["chaos"] => chaos(&args)?,
        ["heal"] => heal(&args)?,
        ["crashsim"] => crashsim(&args)?,
        ["recover"] => recover(&args)?,
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown command: {}",
                other.join(" ")
            ))))
        }
    };
    // Every subcommand has read its options by now: whatever is left over
    // is a typo, and must not pass for a run with the defaults.
    args.reject_unread()?;
    Ok(output)
}

fn list_experiments() -> String {
    "available experiment ids:\n  \
     fig3        violation probability (Eq. 1) + cross-rack expectation\n  \
     fig8a       raw encoding throughput vs (n,k)\n  \
     fig8b       encoding throughput vs background rate\n  \
     fig9        write responses during encoding (Exp. A.2)\n  \
     fig10       MapReduce replay (Exp. A.3)\n  \
     fig12       simulator validation + Table I (Exp. B.1)\n  \
     fig13       simulator parameter sweeps (Exp. B.2)\n  \
     fig14       storage load balancing (Exp. C.1)\n  \
     fig15       read load balancing (Exp. C.2)\n  \
     theorem1    layout-regeneration iterations vs bound\n  \
     recovery    Sec. III-D recovery trade-off"
        .to_string()
}

fn experiment(id: &str, args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let scale = match args.get("scale").unwrap_or("quick") {
        "full" => Scale::Full,
        "quick" => Scale::Quick,
        other => return Err(Box::new(ArgError(format!("unknown scale: {other}")))),
    };
    let out = match id {
        "fig3" => exp::fig3::run(scale),
        "fig8a" => exp::fig8::run_a(scale),
        "fig8b" => exp::fig8::run_b(scale),
        "fig9" => exp::fig9::run(scale),
        "fig10" => exp::fig10::run(scale),
        "fig12" | "table1" => exp::fig12::run(scale),
        "fig13" => exp::fig13::run(scale),
        "fig14" => exp::fig14_15::run_storage(scale),
        "fig15" => exp::fig14_15::run_hotness(scale),
        "theorem1" => exp::theorem1::run(scale),
        "recovery" => exp::recovery::run(scale),
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown experiment: {other} (try `ear list`)"
            ))))
        }
    };
    Ok(out)
}

fn store_backend(args: &Args) -> Result<StoreBackend, ArgError> {
    match args.get("store") {
        None => Ok(StoreBackend::from_env()),
        Some("memory") => Ok(StoreBackend::Memory),
        Some("extent") => Ok(StoreBackend::Extent),
        Some(other) => Err(ArgError(format!("unknown store backend: {other}"))),
    }
}

fn policy(args: &Args) -> Result<ClusterPolicy, ArgError> {
    let name = args.get("policy").unwrap_or("ear");
    ClusterPolicy::parse(name).ok_or_else(|| ArgError(format!("unknown policy: {name}")))
}

/// `--key` (`default` when absent) as a count of at least `min`.
fn count(args: &Args, key: &str, default: usize, min: usize) -> Result<usize, ArgError> {
    match args.get_parsed(key, default)? {
        v if v < min => Err(ArgError(format!("--{key} must be at least {min}, got {v}"))),
        v => Ok(v),
    }
}

fn simulate(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let n: usize = args.get_parsed("n", 14)?;
    let k: usize = args.get_parsed("k", 10)?;
    let gbit: f64 = args.get_parsed("gbit", 1.0)?;
    let cfg = SimConfig {
        racks: args.get_parsed("racks", 20)?,
        nodes_per_rack: args.get_parsed("nodes", 20)?,
        erasure: ErasureParams::new(n, k)?,
        c: args.get_parsed("c", 1)?,
        node_bandwidth: Bandwidth::gbit(gbit),
        rack_bandwidth: Bandwidth::gbit(gbit),
        write_rate: args.get_parsed("write-rate", 1.0)?,
        background_rate: args.get_parsed("background-rate", 1.0)?,
        encode_processes: args.get_parsed("processes", 20)?,
        stripes_per_process: args.get_parsed("stripes-per-process", 10)?,
        policy: policy(args)?,
        simulate_relocation: args.flag("relocate"),
        seed: args.get_parsed("seed", 1)?,
        ..SimConfig::default()
    };
    let r = sim_run(&cfg)?;
    Ok(format!(
        "policy: {}\nstripes encoded: {}\nencoding throughput: {:.1} MiB/s\n\
         write throughput during encoding: {:.1} MiB/s\n\
         mean write response during encoding: {:.3} s\n\
         cross-rack downloads: {}\nstripes needing relocation: {}\n\
         simulated time: {:.1} s",
        r.policy,
        r.encode_completions.len(),
        r.encoding_throughput(),
        r.write_throughput_during_encoding(),
        r.mean_write_response_during_encoding(),
        r.cross_rack_downloads,
        r.stripes_with_relocation,
        r.sim_end,
    ))
}

fn chaos(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let plans: u64 = args.get_parsed("plans", 20)?;
    let seed0: u64 = args.get_parsed("seed", 0)?;
    let policies = match args.get("policy") {
        None | Some("both") => vec![ClusterPolicy::Ear, ClusterPolicy::Rr],
        Some(_) => vec![policy(args)?],
    };
    let stragglers = args.flag("stragglers");
    let hedging = !args.flag("no-hedge");
    let profile = args
        .get("profile")
        .unwrap_or(if stragglers { "stragglers" } else { "mixed" });
    let store = store_backend(args)?;
    let config_for = |policy: ClusterPolicy, seed: u64| -> Result<ChaosConfig, ArgError> {
        let base = if stragglers {
            ChaosConfig::straggler_heavy(policy)
        } else {
            match profile {
                "light" => ChaosConfig::light(policy),
                "heavy" => ChaosConfig::heavy(policy),
                "mixed" => {
                    if seed.is_multiple_of(2) {
                        ChaosConfig::light(policy)
                    } else {
                        ChaosConfig::heavy(policy)
                    }
                }
                other => return Err(ArgError(format!("unknown profile: {other}"))),
            }
        };
        Ok(ChaosConfig {
            store,
            hedging,
            ..base
        })
    };

    let mut out = String::new();
    let mut failures: Vec<(ClusterPolicy, u64)> = Vec::new();
    let (mut reads, mut read_failures) = (0, BTreeMap::new());
    for &policy in &policies {
        let name = policy.name();
        for seed in seed0..seed0 + plans {
            let cfg = config_for(policy, seed)?;
            let r = run_plan(seed, &cfg)?;
            let pass = r.passed(policy);
            if !pass {
                failures.push((policy, seed));
            }
            out.push_str(&format!(
                "{name:>4} seed={seed:<4} acked={:<3} encoded={:<2} requeued={:<2} \
                 verified={:<2} beyond-tolerance={:<2} violations={}/{} lost={} {}\n",
                r.acked_blocks,
                r.encoded_stripes,
                r.requeued_stripes,
                r.stripes_verified,
                r.stripes_beyond_tolerance,
                r.pre_repair_violations,
                r.violations_after_repair,
                r.lost_blocks.len(),
                if pass { "PASS" } else { "FAIL" },
            ));
            out.push_str(&format!(
                "     reads={} read-failures={} p50={} p99={} p999={} ticks \
                 hedges-launched={} hedges-won={}\n",
                r.read_ops,
                by_kind(&r.read_failures),
                r.read_p50_ticks,
                r.read_p99_ticks,
                r.read_p999_ticks,
                r.hedges_launched,
                r.hedges_won,
            ));
            reads += r.read_ops;
            for (&kind, &n) in &r.read_failures {
                *read_failures.entry(kind).or_default() += n;
            }
        }
    }
    out.push_str(&format!(
        "\n{} plan(s) x {} policy(ies), reads={reads} read-failures={}, profile {profile}: {}",
        plans,
        policies.len(),
        by_kind(&read_failures),
        if failures.is_empty() {
            "all invariants held".to_string()
        } else {
            format!("{} FAILED: {failures:?}", failures.len())
        }
    ));
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(Box::new(ArgError(out)))
    }
}

/// A count of failures with its breakdown by error kind:
/// `13 (corrupt=12 down=1)`, or `0`.
fn by_kind(failures: &BTreeMap<&'static str, usize>) -> String {
    let total: usize = failures.values().sum();
    if total == 0 {
        return "0".into();
    }
    let kinds: Vec<String> = failures.iter().map(|(kind, n)| format!("{kind}={n}")).collect();
    format!("{total} ({})", kinds.join(" "))
}

fn heal(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let plans: u64 = args.get_parsed("plans", 10)?;
    let seed0: u64 = args.get_parsed("seed", 0)?;
    let defaults = HealSoakConfig::default();
    let cfg = HealSoakConfig {
        stripes: args.get_parsed("stripes", defaults.stripes)?,
        kills: args.get_parsed("kills", defaults.kills)?,
        store: store_backend(args)?,
        healer: HealerConfig {
            max_rounds: args.get_parsed("max-rounds", defaults.healer.max_rounds)?,
            round_byte_budget: args
                .get_parsed("byte-budget", defaults.healer.round_byte_budget)?,
        },
        ..defaults
    };

    let mut out = String::new();
    let mut failures: Vec<u64> = Vec::new();
    for seed in seed0..seed0 + plans {
        let r = run_heal_plan(seed, &cfg)?;
        let pass = r.passed();
        if !pass {
            failures.push(seed);
        }
        out.push_str(&format!(
            "seed={seed:<4} acked={:<3} encoded={:<2} {} violations={} \
             under-redundant={} lost={} {}\n",
            r.acked_blocks,
            r.encoded_stripes,
            r.heal.summary(),
            r.violations_after_heal,
            r.under_redundant,
            r.lost_blocks.len(),
            if pass { "PASS" } else { "FAIL" },
        ));
    }
    out.push_str(&format!(
        "\n{} heal plan(s), {} kill(s) each: {}",
        plans,
        cfg.kills,
        if failures.is_empty() {
            "all healed to full redundancy".to_string()
        } else {
            format!("{} FAILED: {failures:?}", failures.len())
        }
    ));
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(Box::new(ArgError(out)))
    }
}

/// Sweeps the durability layer's deterministic kill-point simulator
/// (DESIGN.md §13) over a seeds × kill-points grid, per script. Any
/// invariant violation comes back with the (seed, kill) pair to replay.
fn crashsim(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    type KillFn = fn(u64, u64) -> ear_types::Result<crashsim::KillSummary>;
    const SURFACES: &[(&str, KillFn)] = &[
        ("meta", crashsim::run_meta_kill),
        ("extent", crashsim::run_extent_kill),
    ];
    let seeds: u64 = args.get_parsed("seeds", 8)?;
    let kills: u64 = args.get_parsed("kills", 8)?;
    let seed0: u64 = args.get_parsed("seed", 0)?;
    let selected = args.get("surface").unwrap_or("all");
    let surfaces: Vec<&(&str, KillFn)> = if selected == "all" {
        SURFACES.iter().collect()
    } else {
        let hit = SURFACES.iter().find(|(name, _)| *name == selected);
        vec![hit.ok_or_else(|| ArgError(format!("unknown surface: {selected}")))?]
    };

    let mut out = String::new();
    let mut failures: Vec<String> = Vec::new();
    for (name, run_kill) in &surfaces {
        let mut clean = 0usize;
        let mut survivors = 0usize;
        let mut ops = 0usize;
        let mut windows = std::collections::BTreeMap::new();
        for seed in seed0..seed0 + seeds {
            for j in 0..kills {
                // Golden-ratio stride spreads the kill points across the
                // whole cut space (the simulators reduce `kill` modulo the
                // surface's write-stream length); a plain 0..K sweep would
                // only ever cut the first K bytes.
                let kill = j.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                match run_kill(seed, kill) {
                    Ok(s) => {
                        clean += 1;
                        survivors += s.survivors;
                        ops += s.ops;
                        *windows.entry(s.lands_in).or_insert(0usize) += 1;
                    }
                    Err(e) => failures.push(format!("{name} seed={seed} kill={kill}: {e}")),
                }
            }
        }
        let windows: Vec<String> = windows.iter().map(|(w, n)| format!("{w} {n}")).collect();
        out.push_str(&format!(
            "{name:>10}: {clean}/{} kill point(s) recovered clean; \
             {survivors}/{ops} scripted ops durable at their cuts; cuts in: {}\n",
            seeds * kills,
            windows.join(", "),
        ));
    }
    if failures.is_empty() {
        out.push_str(&format!(
            "\n{} surface(s) x {seeds} seed(s) x {kills} kill point(s): all invariants held",
            surfaces.len()
        ));
        Ok(out)
    } else {
        out.push_str(&format!("\n{} FAILED:\n{}", failures.len(), failures.join("\n")));
        Err(Box::new(ArgError(out)))
    }
}

/// Reopens a durable data directory (written by a cluster booted with
/// `DurabilityConfig::at`): replays checkpoint + WAL suffix and prints the
/// recovered metadata image. Shape parameters come from the directory's
/// MANIFEST; only the erasure-coding geometry (not persisted) is taken
/// from flags.
fn recover(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let dir = std::path::PathBuf::from(
        args.get("dir")
            .ok_or_else(|| ArgError("recover requires --dir".into()))?,
    );
    let manifest = std::fs::read_to_string(dir.join("MANIFEST"))
        .map_err(|e| ArgError(format!("read {}/MANIFEST: {e}", dir.display())))?;
    let mut kv = std::collections::BTreeMap::new();
    for line in manifest.lines() {
        if let Some((key, value)) = line.split_once('=') {
            kv.insert(key.to_string(), value.to_string());
        }
    }
    let field = |key: &str| -> Result<String, ArgError> {
        kv.get(key)
            .cloned()
            .ok_or_else(|| ArgError(format!("MANIFEST is missing `{key}`")))
    };
    let number = |key: &str| -> Result<u64, ArgError> {
        field(key)?
            .parse()
            .map_err(|e| ArgError(format!("MANIFEST `{key}`: {e}")))
    };
    let store = match field("store")?.as_str() {
        "memory" => StoreBackend::Memory,
        "extent" => StoreBackend::Extent,
        other => return Err(Box::new(ArgError(format!("MANIFEST store: {other}")))),
    };
    let policy = field("policy")?;
    let policy = ClusterPolicy::parse(&policy)
        .ok_or_else(|| ArgError(format!("MANIFEST policy: {policy}")))?;
    let ear = EarConfig::new(
        ErasureParams::new(args.get_parsed("n", 6)?, args.get_parsed("k", 4)?)?,
        ReplicationConfig::two_way(),
        args.get_parsed("c", 1)?,
    )?;
    let cfg = ClusterConfig {
        racks: number("racks")? as usize,
        nodes_per_rack: number("nodes_per_rack")? as usize,
        block_size: ByteSize::bytes(number("block_size")?),
        node_bandwidth: Bandwidth::bytes_per_sec(1e9),
        rack_bandwidth: Bandwidth::bytes_per_sec(1e9),
        ear,
        policy,
        seed: number("seed")?,
        store,
        cache: CacheConfig::from_env(),
        durability: DurabilityConfig::at(&dir),
        hedge_reads: true,
    };
    let cfs = MiniCfs::reopen(cfg)?;
    let snap = cfs.namenode().snapshot();
    Ok(format!(
        "recovered {} ({} backend)\n\
         blocks: {}\nunsealed blocks: {}\npending stripes: {}\nencoded stripes: {}\n\
         next block id: {}\nnext stripe id: {}",
        dir.display(),
        store.name(),
        snap.blocks.len(),
        snap.unsealed.len(),
        snap.pending.len(),
        snap.encoded.len(),
        snap.next_block,
        snap.next_stripe,
    ))
}

fn place(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let n: usize = args.get_parsed("n", 6)?;
    let k: usize = args.get_parsed("k", 4)?;
    let stripes: usize = args.get_parsed("stripes", 1)?;
    let topo = ClusterTopology::uniform(count(args, "racks", 8, 1)?, count(args, "nodes", 4, 1)?);
    let cfg = EarConfig::new(
        ErasureParams::new(n, k)?,
        ReplicationConfig::hdfs_default(),
        args.get_parsed("c", 1)?,
    )?;
    let mut policy = policy(args)?.build(cfg, topo)?;
    let mut rng = ChaCha8::from_seed(args.get_parsed("seed", 1)?);
    let mut out = String::new();
    let mut sealed = 0usize;
    let mut guard = 0usize;
    while sealed < stripes {
        guard += 1;
        if guard > stripes * k * 100 {
            return Err(Box::new(ArgError("placement did not converge".into())));
        }
        let Some(stripe) = policy.place_block(&mut rng)?.sealed_stripe else {
            continue;
        };
        sealed += 1;
        out.push_str(&format!(
            "stripe {sealed}: core rack {:?}\n",
            stripe.core_rack()
        ));
        for (i, layout) in stripe.data_layouts().iter().enumerate() {
            out.push_str(&format!("  block {i}: {:?}\n", layout.replicas));
        }
        let plan = policy.plan_encoding(&stripe, &mut rng)?;
        out.push_str(&format!(
            "  encode on {} | cross-rack downloads {} | kept {:?} | parity {:?} | relocations {}\n",
            plan.encoding_node,
            plan.cross_rack_downloads(),
            plan.kept_data,
            plan.parity_nodes,
            plan.relocations.len(),
        ));
    }
    Ok(out)
}

fn analyze(what: &str, args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    // The closed forms need a second rack and a block to place.
    let racks = count(args, "racks", 20, 2)?;
    let k = count(args, "k", 10, 1)?;
    match what {
        "violation" => Ok(format!(
            "P(stripe violates rack fault tolerance | preliminary EAR, R={racks}, k={k}) = {:.4}",
            ear_analysis::violation_probability(racks, k)
        )),
        "crossrack" => Ok(format!(
            "E[cross-rack downloads per RR stripe | R={racks}, k={k}] = {:.3}",
            ear_analysis::expected_cross_rack_downloads_rr(racks, k)
        )),
        "theorem1" => {
            let c = count(args, "c", 1, 1)?;
            if (k - 1).div_ceil(c) >= racks - 1 {
                let hosts = format!("R={racks} racks cannot host k={k} blocks at c={c}");
                return Err(Box::new(ArgError(hosts)));
            }
            let mut out = format!("Theorem 1 bounds (R={racks}, c={c}):\n");
            for i in 1..=k {
                out.push_str(&format!(
                    "  E_{i} <= {:.3}\n",
                    ear_analysis::theorem1_bound(racks, c, i)
                ));
            }
            Ok(out)
        }
        other => Err(Box::new(ArgError(format!("unknown analysis: {other}")))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_words(words: &[&str]) -> Result<String, Box<dyn std::error::Error>> {
        run(words.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn help_and_list() {
        assert!(run_words(&[]).unwrap().contains("USAGE"));
        assert!(run_words(&["list"]).unwrap().contains("fig13"));
    }

    #[test]
    fn analyze_commands() {
        let v = run_words(&["analyze", "violation", "--racks", "16", "--k", "12"]).unwrap();
        assert!(v.contains("0.97"), "{v}");
        let c = run_words(&["analyze", "crossrack", "--racks", "20", "--k", "10"]).unwrap();
        assert!(c.contains("9.000"), "{c}");
        let t = run_words(&["analyze", "theorem1", "--racks", "20", "--k", "10"]).unwrap();
        assert!(t.contains("E_10 <= 1.900"), "{t}");
    }

    #[test]
    fn place_reports_zero_cross_rack_for_ear() {
        let out = run_words(&["place", "--policy", "ear", "--stripes", "2"]).unwrap();
        assert!(out.contains("cross-rack downloads 0"));
        assert!(out.contains("relocations 0"));
    }

    #[test]
    fn simulate_small_run() {
        let out = run_words(&[
            "simulate",
            "--racks",
            "8",
            "--nodes",
            "2",
            "--n",
            "6",
            "--k",
            "4",
            "--processes",
            "2",
            "--stripes-per-process",
            "2",
            "--write-rate",
            "0.2",
            "--background-rate",
            "0",
        ])
        .unwrap();
        assert!(out.contains("stripes encoded: 4"), "{out}");
        assert!(out.contains("cross-rack downloads: 0"), "{out}");
    }

    #[test]
    fn heal_reports_convergence() {
        let out = run_words(&["heal", "--plans", "2", "--seed", "11"]).unwrap();
        assert!(out.contains("converged"), "{out}");
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("all healed to full redundancy"), "{out}");
        assert!(out.contains("mttr-rounds="), "{out}");
    }

    #[test]
    fn unknown_commands_error() {
        assert!(run_words(&["frobnicate"]).is_err());
        assert!(run_words(&["experiment", "fig99"]).is_err());
        assert!(run_words(&["analyze", "nothing"]).is_err());
        assert!(run_words(&["simulate", "--policy", "quorum"]).is_err());
    }

    #[test]
    fn unknown_options_error() {
        let unknown = |words: &[&str]| run_words(words).unwrap_err().to_string();
        // A typo'd option, a typo'd flag, and an option that no longer exists.
        assert_eq!(
            unknown(&["analyze", "violation", "--rack", "16", "--k", "12"]),
            "unknown option --rack"
        );
        assert_eq!(
            unknown(&["place", "--stripes", "1", "--relocat"]),
            "unknown option --relocat"
        );
        assert_eq!(
            unknown(&["chaos", "--plans", "1", "--encode-path", "gather"]),
            "unknown option --encode-path"
        );
        assert_eq!(unknown(&["list", "--verbose"]), "unknown option --verbose");
    }

    #[test]
    fn chaos_stragglers_prints_tail_latencies() {
        let out = run_words(&[
            "chaos", "--plans", "2", "--policy", "ear", "--seed", "1", "--stragglers",
        ])
        .unwrap();
        assert!(out.contains("p99="), "{out}");
        assert!(out.contains("hedges-launched="), "{out}");
        assert!(out.contains("all invariants held"), "{out}");
        // Hedging off still passes (latency-only machinery).
        let off = run_words(&[
            "chaos", "--plans", "1", "--policy", "ear", "--seed", "1", "--stragglers",
            "--no-hedge",
        ])
        .unwrap();
        assert!(off.contains("hedges-launched=0"), "{off}");
    }

    #[test]
    fn chaos_mixed_prints_each_plans_reads() {
        let out = run_words(&[
            "chaos", "--plans", "2", "--policy", "ear", "--seed", "0", "--profile", "mixed",
        ])
        .unwrap();
        let plans = out.lines().filter(|l| l.contains(" seed=")).count();
        let reads = out.lines().filter(|l| l.trim_start().starts_with("reads=")).count();
        assert_eq!((plans, reads), (2, 2), "{out}");
        assert!(out.contains("read-failures=") && out.contains("hedges-won="), "{out}");
        assert!(out.contains("profile mixed: all invariants held"), "{out}");
        // A plan whose probe read fails prints the failure by error kind,
        // on its read line and in the run's totals.
        let failing = run_words(&[
            "chaos", "--plans", "1", "--policy", "ear", "--seed", "33", "--profile", "mixed",
        ])
        .unwrap();
        assert!(failing.contains(" read-failures=1 (corrupt=1) p50="), "{failing}");
        let totals = "read-failures=1 (corrupt=1), profile mixed: all invariants held";
        assert!(failing.ends_with(totals), "{failing}");
    }

    #[test]
    fn chaos_accepts_extent_store() {
        let out = run_words(&[
            "chaos", "--plans", "1", "--policy", "ear", "--profile", "light", "--store", "extent",
        ])
        .unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(run_words(&["heal", "--plans", "1", "--store", "bogus"]).is_err());
    }

    #[test]
    fn retired_file_store_is_rejected_by_name() {
        // `file` is outside input like any other unknown value: the flag
        // and a MANIFEST written by an older version both name it.
        let err = run_words(&["chaos", "--plans", "1", "--store", "file"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown store backend: file");
        let err = recover_manifest("oldstore", "store=file\npolicy=ear\n").unwrap_err();
        assert_eq!(err.to_string(), "MANIFEST store: file");
    }

    /// `ear recover` over a directory whose MANIFEST reads `text`.
    #[expect(clippy::disallowed_methods, reason = "forges a MANIFEST no cluster wrote")]
    fn recover_manifest(tag: &str, text: &str) -> Result<String, Box<dyn std::error::Error>> {
        let dir = std::env::temp_dir().join(format!("ear-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("MANIFEST"), text).unwrap();
        let out = run_words(&["recover", "--dir", dir.to_str().unwrap()]);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn zero_sized_topologies_are_errors_not_panics() {
        for words in [
            &["place", "--racks", "0"][..],
            &["place", "--nodes", "0"],
            &["simulate", "--racks", "0"],
            &["simulate", "--nodes", "0"],
            &["analyze", "violation", "--racks", "1"],
            &["analyze", "crossrack", "--k", "0"],
            &["analyze", "theorem1", "--racks", "4", "--k", "10"],
        ] {
            assert!(run_words(words).is_err(), "{words:?}");
        }
        let manifest =
            "store=extent\nracks=0\nnodes_per_rack=1\nblock_size=16384\npolicy=ear\nseed=5\n";
        let err = recover_manifest("zero-racks", manifest).unwrap_err();
        assert!(err.to_string().contains("0 rack(s)"), "{err}");
    }

    #[test]
    fn crashsim_sweeps_all_surfaces() {
        let out = run_words(&["crashsim", "--seeds", "2", "--kills", "2"]).unwrap();
        assert!(out.contains("meta"), "{out}");
        assert!(out.contains("extent"), "{out}");
        assert!(out.contains("all invariants held"), "{out}");
        assert!(run_words(&["crashsim", "--surface", "bogus"]).is_err());
    }

    #[test]
    fn recover_prints_the_recovered_image() {
        let dir = std::env::temp_dir().join(format!("ear-cli-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ear = EarConfig::new(
            ErasureParams::new(6, 4).unwrap(),
            ReplicationConfig::two_way(),
            1,
        )
        .unwrap();
        let cfg = ClusterConfig {
            racks: 8,
            nodes_per_rack: 1,
            block_size: ByteSize::kib(16),
            node_bandwidth: Bandwidth::bytes_per_sec(1e9),
            rack_bandwidth: Bandwidth::bytes_per_sec(1e9),
            ear,
            policy: ClusterPolicy::Ear,
            seed: 5,
            store: StoreBackend::Extent,
            cache: CacheConfig::default(),
            durability: DurabilityConfig::at(&dir),
            hedge_reads: true,
        };
        {
            let cfs = MiniCfs::new(cfg).unwrap();
            for i in 0..6u64 {
                let data = cfs.make_block(i);
                cfs.write_block(ear_types::NodeId((i % 8) as u32), data)
                    .unwrap();
            }
        }
        let out = run_words(&["recover", "--dir", dir.to_str().unwrap()]).unwrap();
        assert!(out.contains("blocks: 6"), "{out}");
        assert!(out.contains("extent backend"), "{out}");
        assert!(run_words(&["recover"]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
