#!/usr/bin/env bash
# A paired benchmark capture: a parent commit against the working tree.
#
#   scripts/paired.sh [--parent REV] [--workloads W,...] [--scratch DIR] > capture.json
#
# Builds REV (default HEAD) from `git archive` and the working tree in
# place, each into its own target directory under DIR (default
# ${TMPDIR:-/tmp}/ear-paired; it must lie outside the repo). The parent's
# target is wiped whenever REV differs from the commit it was last built
# from, so one DIR serves any sequence of REVs. Then, for each
# workload W (default: all four, one after another, in the order given) and
# each of the ten seeds, runs one pair of
#
#   benchmark/run.sh --workload W --seed S --seconds 20 --trace 0
#
# back to back, one on each side. Which side runs first alternates on a
# fixed schedule: the parent on seeds 7, 12, 201, 203 and 205, the change
# on 11, 13, 202, 204 and 777 (777 is the unseen seed). Nothing else should
# run meanwhile: the harness uses both vCPUs of a 2-vCPU machine.
#
# Prints one JSON document of a fixed schema: the command, the parent
# commit, nproc, the GF kernel and CRC32C tier, and per workload the failed
# and attempted operations of every run, and per end-to-end metric of
# BENCHMARK.json both sides' quartiles (inclusive), the ratio of medians,
# the pairs the change won, the verdict against the metric's bound, and the
# raw pairs. If BENCH_null.json (a capture with both sides at one commit)
# exists, each metric also carries its `null_ratio`: that capture's ratio
# of medians for the same workload and metric, the noise floor a claimed
# ratio must clear. The raw harness output stays in DIR/raw.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo"

parent=HEAD scratch=${TMPDIR:-/tmp}/ear-paired workloads=() args=("$@")
while [ $# -gt 0 ]; do
  case "$1" in
    --parent) parent=$2 && shift 2 ;;
    --workloads) IFS=, read -ra workloads <<<"$2" && shift 2 ;;
    --scratch) scratch=$2 && shift 2 ;;
    *) echo "scripts/paired.sh: unknown argument $1" >&2 && exit 2 ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(compute_mem durable_extent testbed_ear testbed_rr)
seeds=(7 11 12 13 201 202 203 204 205 777)
parent_first=" 7 12 201 203 205 "
commit=$(git rev-parse --verify "$parent^{commit}")
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)
case "$scratch/" in "$repo"/*)
  echo "scripts/paired.sh: --scratch must lie outside the repo" >&2 && exit 2 ;;
esac

# The parent's tree, fresh each time; each side's build in its own target.
rm -rf "$scratch/parent" "$scratch/raw"
mkdir -p "$scratch/parent" "$scratch/raw"
git archive "$commit" | tar -x -C "$scratch/parent"
# `git archive` stamps files with their commit's time, so cargo may count an
# older REV's sources as fresh against a target built from a newer one: the
# parent's target is kept only for the commit recorded beside it.
built="$scratch/target-parent.commit"
if [ "$(cat "$built" 2>/dev/null)" != "$commit" ]; then
  rm -rf "$scratch/target-parent" "$built"
fi
declare -A tree=([parent]="$scratch/parent" [change]="$repo")
run() { # side workload seed
  CARGO_TARGET_DIR="$scratch/target-$1" bash "${tree[$1]}/benchmark/run.sh" \
    --workload "$2" --seed "$3" --seconds 20 --trace 0 >"$scratch/raw/$1-$2-$3.json"
}
for side in parent change; do # --emit-spec: build, print the spec, run nothing
  CARGO_TARGET_DIR="$scratch/target-$side" bash "${tree[$side]}/benchmark/run.sh" --emit-spec >/dev/null
done
echo "$commit" >"$built"

for w in "${workloads[@]}"; do
  for s in "${seeds[@]}"; do
    case "$parent_first" in
      *" $s "*) order=(parent change) ;;
      *) order=(change parent) ;;
    esac
    for side in "${order[@]}"; do
      echo "# $w seed $s: $side" >&2
      run "$side" "$w" "$s" 2>>"$scratch/raw/$side-$w-$s.log"
    done
  done
done

flags=$(grep -m1 '^flags' /proc/cpuinfo || true)
has() { [[ " $flags " == *" $1 "* ]]; }
# crc::tier()'s rule, applied to the flags the kernel reports.
if has avx512f && has vpclmulqdq; then crc=vpclmulqdq
elif has sse4_2; then crc=sse4.2
else crc=slicing8
fi

SCRATCH="$scratch" COMMIT="$commit" CRC="$crc" NPROC=$(nproc) \
  COMMAND="scripts/paired.sh${args[*]:+ ${args[*]}}" WORKLOADS="${workloads[*]}" \
  SEEDS="${seeds[*]}" PARENT_FIRST="$parent_first" python3 - <<'EOF'
import json, os, statistics

env = os.environ
spec = json.load(open("BENCHMARK.json"))
seeds = [int(s) for s in env["SEEDS"].split()]
parent_first = {int(s) for s in env["PARENT_FIRST"].split()}
null = json.load(open("BENCH_null.json"))["workloads"] if os.path.exists("BENCH_null.json") else None

def load(side, w, s):
    lines = open(f"{env['SCRATCH']}/raw/{side}-{w}-{s}.json").read().split("\n")
    head, body = json.loads(lines[0])["run"], json.loads(lines[1])
    return head, body

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}

kernels, out = set(), {}
for w in env["WORKLOADS"].split():
    runs = {side: [load(side, w, s) for s in seeds] for side in ("parent", "change")}
    for side in runs:
        kernels.update(h["gf_kernel"] for h, _ in runs[side])
    metrics = {}
    for m in spec["end_to_end"]:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        vals = {side: [b["metrics"][name]["value"] for _, b in runs[side]] for side in runs}
        p, c = quartiles(vals["parent"]), quartiles(vals["change"])
        better = sum((cv > pv) if higher else (cv < pv) for pv, cv in zip(vals["parent"], vals["change"]))
        ratio = c["median"] / p["median"] if p["median"] else None
        worse = 0.0 if not p["median"] else (1 - ratio if higher else ratio - 1)
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": bound,
            "parent": p, "change": c, "ratio_of_medians": ratio,
            "change_better_pairs": better, "pairs": len(seeds),
            "change_median_in_parent_interquartile": p["q1"] <= c["median"] <= p["q3"],
            "verdict": "worse than bound" if worse > bound else "within bound",
        }
        if null is not None:
            metrics[name]["null_ratio"] = null.get(w, {}).get("metrics", {}).get(name, {}).get("ratio_of_medians")
    out[w] = {
        "failed": {side: sum(b["failed"] for _, b in runs[side]) for side in runs},
        "attempted_equal_pairs": sum(
            pb["attempted"] == cb["attempted"] for (_, pb), (_, cb) in zip(runs["parent"], runs["change"])),
        "metrics": metrics,
        "pairs": [
            {"seed": s, "first": "parent" if s in parent_first else "change",
             "attempted": pb["attempted"],
             "parent": {k: v["value"] for k, v in pb["metrics"].items()},
             "change": {k: v["value"] for k, v in cb["metrics"].items()}}
            for s, (_, pb), (_, cb) in zip(seeds, runs["parent"], runs["change"])
        ],
    }

doc = {
    "command": env["COMMAND"],
    "run": "benchmark/run.sh --workload W --seed S --seconds 20 --trace 0",
    "parent_commit": env["COMMIT"],
    "machine": {"nproc": int(env["NPROC"]), "gf_kernel": sorted(kernels), "crc_tier": env["CRC"]},
    "schedule": {"seeds": seeds, "parent_first": sorted(parent_first), "unseen": [777]},
    "workloads": out,
}
print(json.dumps(doc, indent=1))
EOF
