#!/usr/bin/env bash
# The benchmark's one command. Builds offline, then runs the life-cycle
# benchmark:
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--quick]
#   benchmark/run.sh --self-check [--workload W] [--quick]
#   benchmark/run.sh --test            # the benchmark crate's unit tests
#   benchmark/run.sh --emit-spec       # the text of BENCHMARK.json
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# The product reads EAR_* to pick stores, caches, kernels and data paths;
# the workloads fix those themselves.
for v in $(compgen -e | grep '^EAR_' || true); do unset "$v"; done

# Pin glibc malloc: one arena, no mmap for block-sized buffers, never trim,
# grow the heap in big steps. Without this, whether a 512 KiB buffer is
# mmap'd (and page-faulted afresh) flips between rounds and write_mibps of
# compute_mem is bimodal. The binary echoes these into its output.
export MALLOC_ARENA_MAX=1
export MALLOC_MMAP_THRESHOLD_=33554432
export MALLOC_TRIM_THRESHOLD_=17179869184
export MALLOC_TOP_PAD_=268435456

# API-surface guard: the harness may not name what ROADMAP items 3-5 delete
# (see "API contract" in the README).
banned='EncodePath|RepairPath|StoreBackend::File|FileStore|swar|rand::|parking_lot|criterion'
if grep -nE "$banned" benchmark/src/*.rs benchmark/Cargo.toml; then
  echo "benchmark/run.sh: the harness names an API outside its contract (above)" >&2
  exit 1
fi
if grep -nE 'ClusterConfig[[:space:]]*\{' benchmark/src/*.rs | grep -v -- '->'; then
  echo "benchmark/run.sh: build ClusterConfig from ClusterConfig::testbed + field assignment, not a struct literal" >&2
  exit 1
fi

# Registry crates resolve to the offline stubs: one patch per stub that
# exists, so this keeps working as that set shrinks.
patches=()
for stub in scripts/verify-stubs/*/; do
  [ -f "$stub/Cargo.toml" ] || continue
  name=$(basename "$stub")
  patches+=(--config "patch.crates-io.$name.path='$PWD/scripts/verify-stubs/$name'")
done
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo_do() {
  cargo "$1" --release --offline --quiet --manifest-path benchmark/Cargo.toml "${patches[@]}" "${@:2}" >&2
}

if [ "${1:-}" = "--test" ]; then
  cargo_do test
  exit 0
fi
cargo_do build
exec "$CARGO_TARGET_DIR/release/lifecycle" "$@"
