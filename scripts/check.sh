#!/usr/bin/env bash
# Tier-1 gate (ROADMAP.md): build + tests + lints for the whole workspace,
# then the CLI smokes and the benchmark harness's own tests. The workspace
# has no registry crate, so plain cargo is all it needs; CI runs this file
# and nothing else.
set -euo pipefail
cd "$(dirname "$0")/.."

# No external crate, tests included: the committed lock file lists workspace
# path crates only (a registry or git crate would carry a `source =` line),
# and --locked below fails any manifest change that would alter it. With no
# `rand` crate there is no ambient RNG to reach for: every seeded draw comes
# from ear_types::rng::ChaCha8.
if grep -n '^source = ' Cargo.lock; then
  echo "check.sh: Cargo.lock names a crate from outside the workspace (above)" >&2
  exit 1
fi
# `unsafe` lives in two files: the GF SIMD kernels and the CRC32C tiers.
# Their crates `deny(unsafe_code)` with scoped allows where every other
# crate forbids it, so a third file here means an allow has spread.
unsafe_use='unsafe[[:space:]]*\{|unsafe[[:space:]]+(fn|impl|trait|extern)|^[[:space:]]*#!?\[allow\(unsafe_code\)\]'
unsafe_files=$(grep -rlE "$unsafe_use" --include='*.rs' src crates tests examples | sort | xargs)
if [ "$unsafe_files" != "crates/erasure/src/kernels.rs crates/types/src/crc.rs" ]; then
  echo "check.sh: unsafe code must stay in kernels.rs and crc.rs, found in: $unsafe_files" >&2
  exit 1
fi
# Stays deleted: every name and path in scripts/tombstones.txt, one row each
# (`pattern · scope · reason · where`; the file's header says what a scope is).
# grep finding nothing passes; a bad pattern or a scope path that does not
# exist stops the gate.
none_ok() { grep "$@" || [ $? -eq 1 ]; }
tombs=0
while IFS= read -r row; do
  case "$row" in '' | '#'*) continue ;; esac
  pattern=${row%% · *} && row=${row#* · }
  scope=${row%% · *} && row=${row#* · }
  reason=${row%% · *} && where=${row#* · }
  paths=() skip=' '
  for w in ${scope#*:}; do
    case "$w" in '!'*) skip+="${w#!} " ;; *) paths+=("$w") ;; esac
    [ "$scope" = path ] || [ -e "${w#!}" ] || { echo "check.sh: no such path in tombstones.txt: $w" >&2; exit 1; }
  done
  case "$scope" in
    path) hits=$([ ! -e "$pattern" ] || echo "$pattern exists") ;;
    all:*) hits=$(none_ok -rnE "$pattern" "${paths[@]}") ;;
    code:*)
      hits=''
      for f in $(find "${paths[@]}" -name '*.rs' -not -path '*/tests/*' | sort); do
        case "$skip" in *" $f "*) continue ;; esac
        hits+=$(sed '/^#\[cfg(test)\]/,$d' "$f" | none_ok -nE "$pattern" | sed "s|^|$f:|")
      done ;;
    *) echo "check.sh: unknown scope in tombstones.txt: $scope" >&2 && exit 1 ;;
  esac
  if [ -n "$hits" ]; then
    printf '%s\n' "$hits"
    echo "check.sh: stays deleted ($where): $reason (above)" >&2
    tombs=1
  fi
done <scripts/tombstones.txt
[ "$tombs" -eq 0 ] || exit 1
# A bare `#[allow]` of the lints above hides a site for good; an `#[expect]`
# must keep firing. (clippy::allow_attributes would need every crate and
# test target to opt in.)
moved='disallowed_methods|iter_over_hash_type|panic|unreachable|todo|unimplemented|indexing_slicing|let_underscore_must_use|unused_result_ok'
if grep -rnE "#!?\[allow\([^]]*clippy::($moved)\b" --include='*.rs' src crates tests examples; then
  echo "check.sh: suppress these lints with #[expect(lint, reason = \"…\")], not #[allow] (above)" >&2
  exit 1
fi
cargo build --release --locked
# The whole workspace (the root manifest's `default-members`) once, as the
# tier-1 line runs it: memory engine, default cache.
cargo test -q --locked
# Then both storage engines (DESIGN.md §9, §13) against both sides of the
# block cache (DESIGN.md §12): caching fully off (every read CRC32C
# re-verified) and a deliberately small cache that forces eviction and
# clock rotation under the suite's working sets. Only clusters booted from
# the environment see these knobs: the cluster crate, the facade's
# end-to-end tests and the CLI's. (The CLI library's testbed experiments
# boot such clusters too, but they are paced by the wall clock — ~20 s a
# row — and assert figure shapes, not store behaviour; they ran once,
# above.)
for store in memory extent; do
  for cache in off 4m,16m; do
    EAR_STORE=$store EAR_CACHE=$cache cargo test -q --locked -p ear-cluster -p ear
    EAR_STORE=$store EAR_CACHE=$cache cargo test -q --locked -p ear-cli --bin ear
  done
done
# Clippy carries where a call may occur (clippy.toml's disallowed-methods:
# wall-clock reads and sleeps, scoped threads outside exec::drain, raw
# writes, resizes, fsyncs and renames outside durable.rs), no hash-ordered
# iteration in the seeded crates, data-plane panic-freedom and discard
# hygiene (the data_plane! modules of crates/cluster/src/lib.rs). An
# `#[expect]` that no longer fires fails here.
cargo clippy --workspace --all-targets --locked -- -D warnings

# Chaos smoke: a fixed-seed fault-injection sweep over both policies
# (DESIGN.md §7). Deterministic — any failure names the seed to replay
# with `ear chaos --seed <s>`. scripts/chaos.sh runs the long soaks.
cargo run -q --release --locked -p ear-cli -- chaos --plans 5 --seed 0 --profile mixed
cargo run -q --release --locked -p ear-cli -- chaos --plans 2 --seed 0 --profile mixed --store extent
# Heal smoke: seeded mid-run kills repaired by the background healer
# (DESIGN.md §10); any block left under-redundant fails the run.
cargo run -q --release --locked -p ear-cli -- heal --plans 2 --seed 0
# Rerun identity (DESIGN.md §9): same seeds, same bytes, however the
# scheduler interleaves the encode and repair workers — 200 kill plans, ten
# times, one output, every plan passing.
heal200() { cargo run -q --release --locked -p ear-cli -- heal --plans 200; }
first=$(heal200)
if [ "$(grep -c 'seed=.* PASS$' <<<"$first")" -ne 200 ]; then
  echo "check.sh: \`ear heal --plans 200\` must print 200 passing plans" >&2
  exit 1
fi
for run in 2 3 4 5 6 7 8 9 10; do
  if [ "$(heal200)" != "$first" ]; then
    echo "check.sh: run $run of \`ear heal --plans 200\` printed different bytes than run 1" >&2
    exit 1
  fi
done
# Soak fingerprints: the three long seeded soaks must print the bytes hashed
# in results/soak_fingerprints.txt. A change that moves a soak's output on
# purpose regenerates the file with scripts/soak_fingerprints.sh and says
# in CHANGES.md why each line moved.
fingerprints=$(scripts/soak_fingerprints.sh)
if ! diff results/soak_fingerprints.txt <(printf '%s\n' "$fingerprints"); then
  echo "check.sh: a soak printed different bytes than results/soak_fingerprints.txt records (above)" >&2
  exit 1
fi
# Straggler-heavy hedged-read smoke (DESIGN.md §14): Pareto per-attempt
# delays with hedging on — prints the probe-read tail percentiles and the
# hedges launched/won; any lost block or untyped failure fails the run.
cargo run -q --release --locked -p ear-cli -- chaos --plans 3 --seed 0 --stragglers
# Crash-sim smoke: deterministic kill-point sweep of the durability
# layer's one simulator over its two scripts, `meta` (the metadata log and
# its checkpoints) and `extent` (DESIGN.md §13). A failure names its
# (seed, kill); `crashsim::run_<script>_kill(seed, kill)` replays it.
cargo run -q --release --locked -p ear-cli -- crashsim --seeds 4 --kills 8
# The benchmark harness's own unit tests (benchmark/README.md): they build
# the harness against this tree, so a change that breaks its API contract
# fails here instead of in the benchmark run.
benchmark/run.sh --test
