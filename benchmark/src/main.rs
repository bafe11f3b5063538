//! The repo's benchmark: one life cycle (write → encode → read → kill →
//! repair) under one clock, four workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one. Run it through
//! `benchmark/run.sh`; see `benchmark/README.md`.

mod json;
mod probes;
mod report;
mod round;
mod stats;
mod trace;
mod workload;

use report::{Metrics, END_TO_END};
use round::{Res, Round};
use stats::derive;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{Workload, WORKLOADS};

/// Set-ups timed on their own, besides the one each round pays, so that
/// even a one-round run (the testbed workloads at 20 s) reports `setup_s`
/// as a median of several.
const SETUP_REPS: usize = 5;

/// Of a durable workload's inputs in a traced run, every third runs with
/// fsync before every ack: `client.sync.*` compares those rounds with their
/// neighbours. An untraced run has none: no end-to-end metric is an fsynced
/// timing (see "Flush policy" in the README).
const SYNC_EVERY: usize = 3;

/// No run measures more rounds than this, however short they are; a
/// traced run, which keeps a span per client op, half as many.
const MAX_ROUNDS: usize = 24;

#[derive(Debug, Clone)]
struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

enum Mode {
    Run(Options),
    SelfCheck(Options),
    EmitSpec,
}

fn parse_args(args: &[String]) -> Res<Mode> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: report::RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let (mut self_check, mut emit) = (false, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                o.workload = Some(workload::find(name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}`; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                o.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => o.quick = true,
            "--self-check" => self_check = true,
            "--emit-spec" => emit = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(if emit {
        Mode::EmitSpec
    } else if self_check {
        Mode::SelfCheck(o)
    } else {
        Mode::Run(o)
    })
}

fn out_root() -> Res<PathBuf> {
    let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let root = cwd.join("benchmark").join("out");
    if !cwd.join("benchmark").join("run.sh").is_file() {
        return Err(format!(
            "run from the repo root (no benchmark/run.sh under {})",
            cwd.display()
        ));
    }
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    Ok(root)
}

/// What the run was, for a reader of its output: one JSON line before the
/// result line.
fn header(w: &Workload, o: &Options, comparable: bool) -> String {
    let malloc: Vec<String> = [
        "MALLOC_ARENA_MAX",
        "MALLOC_MMAP_THRESHOLD_",
        "MALLOC_TRIM_THRESHOLD_",
        "MALLOC_TOP_PAD_",
    ]
    .iter()
    .map(|k| {
        format!(
            "\"{k}\": \"{}\"",
            std::env::var(k).unwrap_or_else(|_| "unset".into())
        )
    })
    .collect();
    format!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"comparable\": {comparable}, \
         \"blocks\": {}, \"reads\": {}, \"kills\": {}, \"clients\": {}, \"vcpus\": {}, \"gf_kernel\": \"{}\", \"malloc\": {{{}}}}}}}",
        w.name,
        o.seed,
        o.seconds,
        o.trace,
        w.blocks,
        w.reads,
        w.kills,
        workload::CLIENTS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        ear_erasure::Kernel::active().name(),
        malloc.join(", "),
    )
}

/// One run of one workload; returns its result line. The data directory
/// is the workload's own, emptied before every round and removed when the
/// run ends, whichever way it ends.
fn run_workload(base: &Workload, o: &Options, comparable: bool) -> Res<String> {
    let w = if o.quick { base.quick() } else { *base };
    println!("{}", header(&w, o, comparable));
    let dir = out_root()?.join(w.name);
    let outcome = measure(&w, o, &dir);
    let wiped = round::wipe(&dir);
    let line = outcome?;
    wiped?;
    Ok(line)
}

fn measure(w: &Workload, o: &Options, dir: &Path) -> Res<String> {
    let round_dir = dir.join("round");

    // Warm-up, discarded: faults the heap in and fills the page cache with
    // the extent segments' directory entries. A quick run is a smoke test
    // and skips it.
    if !o.quick {
        round::run(
            &w.scaled_to(w.blocks / 4),
            false,
            derive(o.seed, 0),
            &round_dir,
            None,
            0,
        )?;
    }
    let mut setup_samples = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let built = round::set_up(w, false, derive(o.seed, 0x5E7 + rep as u64), &round_dir)?;
        setup_samples.push(t.elapsed().as_secs_f64());
        drop(built);
    }

    let tracer = o.trace.then(Tracer::new);
    // A traced run measures every round twice on one seed, traced and
    // untraced: the pair sees the same machine state and does the same
    // work. Which of the two goes first alternates, because the second of
    // two like rounds tends to run a little faster.
    let twins = if o.trace { 2 } else { 1 };
    let with_synced = o.trace && w.durable;
    // Enough rounds for one of each kind the run compares.
    let min_rounds = twins * if with_synced { SYNC_EVERY } else { 1 };
    let max_rounds = if o.quick {
        min_rounds
    } else if o.trace {
        MAX_ROUNDS / 2
    } else {
        MAX_ROUNDS
    };
    // Rounds without fsync before the ack, which every end-to-end metric
    // comes from, and rounds with it.
    let (mut rounds, mut synced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    let mut spent = 0.0;
    loop {
        let n = rounds.len() + synced.len();
        let inputs = n / twins;
        let sync = with_synced && inputs % SYNC_EVERY == SYNC_EVERY - 1;
        let t = tracer.as_ref().filter(|_| (n + inputs) % 2 == 1);
        let r = round::run(
            w,
            sync,
            derive(o.seed, 1 + inputs as u64),
            &round_dir,
            t,
            n as u32,
        )?;
        spent += r.lifecycle_s();
        eprintln!(
            "# {} round {n}{}{}: write {:.3} encode {:.3} relocate {:.3} read {:.3} repair {:.3} s (set-up {:.3} s), write p50/p99 {:.1}/{:.1} us, read p50/p99 {:.1}/{:.1} us",
            w.name,
            if sync { " synced" } else { "" },
            if t.is_some() { " traced" } else { "" },
            r.write_s,
            r.encode_s,
            r.relocate_s,
            r.read_s,
            r.repair_s,
            r.setup_s,
            r.write_lat.p50_ns as f64 / 1e3,
            r.write_lat.p99_ns as f64 / 1e3,
            r.read_lat.p50_ns as f64 / 1e3,
            r.read_lat.p99_ns as f64 / 1e3,
        );
        if sync {
            synced.push(r);
        } else {
            setup_samples.push(r.setup_s);
            rounds.push(r);
        }
        let n = n + 1;
        // Rounds are fixed work; `--seconds` decides how many there are.
        if n % twins == 0
            && (n >= max_rounds || (n >= min_rounds && spent + spent / n as f64 > o.seconds))
        {
            break;
        }
    }

    let all = || rounds.iter().chain(&synced);
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let failed: u64 = all().map(|r| r.failed).sum();
    let reopen: Vec<f64> = all().filter_map(|r| r.reopen_ms).collect();
    eprintln!(
        "# {}: {} + {} synced rounds, {:.3} s measured, {} failed of {attempted} ops{}{}",
        w.name,
        rounds.len(),
        synced.len(),
        spent,
        failed,
        all()
            .find_map(|r| r.first_failure.as_ref())
            .map_or(String::new(), |e| format!(" (first: {e})")),
        if reopen.is_empty() {
            String::new()
        } else {
            format!(", restart gate reopen {:.1} ms", stats::median(&reopen))
        },
    );
    // RR leaves ~15 of 125 stripes violating the rack limit; none at all
    // means the BlockMover path went unmeasured. A quick run has too few
    // stripes to insist.
    if w.policy == ear_cluster::ClusterPolicy::Rr
        && !o.quick
        && rounds.iter().all(|r| r.relocated_blocks == 0)
    {
        return Err("random replication needed no relocation".into());
    }

    let metrics: Metrics = match &tracer {
        None => report::end_to_end(w, &rounds, &setup_samples, report::peak_rss_mib()?),
        Some(t) => {
            let n = (rounds.len() + synced.len()) as u32;
            let probes = probes::run(w, o.seed, &dir.join("probe"), Some(t), n)?;
            let path = out_root()?.join(format!("trace-{}.json", w.name));
            let file = std::fs::File::create(&path)
                .map_err(|e| format!("create {}: {e}", path.display()))?;
            t.write_json(std::io::BufWriter::new(file), w.name, o.seed)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("# {}: {} spans in {}", w.name, t.len(), path.display());
            report::per_layer(w, &rounds, &synced, &probes)
        }
    };
    report::result_line(attempted, failed, &metrics)
}

fn run(o: &Options) -> Res<()> {
    match o.workload {
        Some(w) => println!("{}", run_workload(w, o, !o.quick)?),
        // Several workloads in one process share its heap and its peak RSS:
        // fine for a smoke run, not for numbers to compare.
        None => {
            for w in &WORKLOADS {
                println!("{}", run_workload(w, o, false)?);
            }
        }
    }
    Ok(())
}

/// End-to-end metrics that follow from block placement alone.
const PLACEMENT_RATIOS: [&str; 3] = [
    "encode_xrack_ratio",
    "unrelocated_stripe_share",
    "storage_overhead",
];

/// Runs this binary again for one workload and returns its metrics.
fn child(w: &Workload, seed: u64, o: &Options, trace: bool) -> Res<Vec<(String, f64)>> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &o.seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if o.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} seed {seed} exited with {}", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = json::parse(line)?;
    if doc.get("correct").and_then(json::Value::as_bool) != Some(true) {
        return Err(format!("{} seed {seed} is not correct", w.name));
    }
    doc.get("metrics")
        .and_then(json::Value::as_object)
        .ok_or("no metrics in the result line")?
        .iter()
        .map(|(k, v)| {
            Ok((
                k.clone(),
                v.get("value")
                    .and_then(json::Value::as_f64)
                    .ok_or(format!("{k} has no value"))?,
            ))
        })
        .collect()
}

/// `--self-check`: the benchmark held to its own bounds. Every workload
/// runs twice at one seed and once at another, plus one traced run.
fn self_check(o: &Options) -> Res<()> {
    let mut problems: Vec<String> = Vec::new();
    let mut by_workload = Vec::new();
    let workloads: Vec<&Workload> = o.workload.map_or(WORKLOADS.iter().collect(), |w| vec![w]);
    for w in &workloads {
        let a = child(w, o.seed, o, false)?;
        let b = child(w, o.seed, o, false)?;
        let c = child(w, o.seed + 1, o, false)?;
        println!(
            "{:<16} {:<26} {:>14} {:>14} {:>14} {:>9} {:>9} {:>6}",
            w.name, "metric", "seed a", "seed a again", "seed b", "same", "other", "bound"
        );
        for (i, m) in END_TO_END.iter().enumerate() {
            let (x, y, z) = (a[i].1, b[i].1, c[i].1);
            let same = (x - y).abs() / x.min(y);
            let other = (x - z).abs() / x.min(z);
            println!(
                "{:<16} {:<26} {x:>14.4} {y:>14.4} {z:>14.4} {same:>9.4} {other:>9.4} {:>6}",
                "", m.name, m.bound
            );
            // Placement is seeded, so what depends on nothing else repeats
            // far more closely than its bound, which covers other seeds.
            let limit = if PLACEMENT_RATIOS.contains(&m.name) {
                0.02
            } else {
                m.bound
            };
            if same > limit {
                problems.push(format!(
                    "{} {}: same-seed runs differ by {same:.3} > {limit}",
                    w.name, m.name
                ));
            }
        }
        let layers = child(w, o.seed, o, true)?;
        let value = |name: &str| layers.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        for phase in round::PHASES {
            let sum: f64 = layers
                .iter()
                .filter(|(n, _)| n.starts_with(&format!("share.{phase}.")))
                .map(|(_, v)| v)
                .sum();
            println!("{:<16} share.{phase}.* sums to {sum:.6}", "");
            if (sum - 1.0).abs() > 1e-6 {
                problems.push(format!("{} share.{phase}.* sums to {sum}", w.name));
            }
        }
        let overhead = value("trace.overhead_ratio").ok_or("no trace.overhead_ratio")?;
        println!("{:<16} trace.overhead_ratio {overhead:.4}", "");
        // Tracing should cost under 0.05. The ratio is a median of two to
        // four pairs: it reads 0.99-1.02 on the testbed pair, but over
        // durable_extent's few pairs of sub-second rounds 0.95-1.055 in
        // eleven runs, so the gate allows that much again.
        if overhead > 1.10 {
            problems.push(format!(
                "{} trace.overhead_ratio {overhead:.3} > 1.10",
                w.name
            ));
        }
        by_workload.push((w.name, a, value("client.relocated_blocks").unwrap_or(0.0)));
    }
    // The paper's ordering on the testbed pair, when both were run.
    let find = |name: &str| by_workload.iter().find(|(n, _, _)| *n == name);
    if let (Some((_, ear, ear_moved)), Some((_, rr, rr_moved))) =
        (find("testbed_ear"), find("testbed_rr"))
    {
        let of = |m: &[(String, f64)], name: &str| {
            m.iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v)
        };
        let checks = [
            (
                "encode_mibps EAR > RR",
                of(ear, "encode_mibps") > of(rr, "encode_mibps"),
            ),
            (
                "encode_xrack_ratio EAR < RR",
                of(ear, "encode_xrack_ratio") < of(rr, "encode_xrack_ratio"),
            ),
            (
                "relocations EAR 0, RR > 0",
                *ear_moved == 0.0 && (*rr_moved > 0.0 || o.quick),
            ),
        ];
        for (what, holds) in checks {
            println!(
                "paper ordering: {what}: {}",
                if holds { "holds" } else { "BROKEN" }
            );
            if !holds {
                problems.push(format!("paper ordering broken: {what}"));
            }
        }
    }
    if problems.is_empty() {
        println!("self-check passed");
        Ok(())
    } else {
        Err(format!("self-check failed:\n  {}", problems.join("\n  ")))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|mode| match mode {
        Mode::EmitSpec => {
            print!("{}", report::benchmark_json());
            Ok(())
        }
        Mode::Run(o) => run(&o),
        Mode::SelfCheck(o) => self_check(&o),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        // A failed gate withholds every metric: no result line, exit 1.
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
