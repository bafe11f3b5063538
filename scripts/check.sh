#!/usr/bin/env bash
# Tier-1 gate (ROADMAP.md): build + tests + lints for the whole workspace.
#
# Run with --offline by default: this container has no route to the crates.io
# mirror, so any cargo invocation that tries to refresh the registry index
# hangs and then fails. If the registry cache is already populated the
# --offline flag is harmless. The non-dev build has no external crate at
# all; the one registry dependency is `proptest` (dev-only). Cargo resolves
# dev-dependencies even for `cargo build`, so with an empty, unreachable
# registry use scripts/offline-verify.sh, which patches `proptest` to the
# stub in scripts/verify-stubs/.
set -euo pipefail
cd "$(dirname "$0")/.."

# No registry crate outside tests: every dependency in every manifest is a
# workspace path crate, except `proptest` under [dev-dependencies] (versioned
# once in [workspace.dependencies]). ear-lint L2 `ambient-rng` guards the
# source side of the same rule.
awk '
  /^\[/ { sect = $0; next }
  sect ~ /dependencies\]$/ && /^[A-Za-z0-9_-]+[ .=]/ {
    split($0, kv, /[ .=]/); name = kv[1]
    if (name == "proptest") {
      if (sect == "[dev-dependencies]" || sect == "[workspace.dependencies]") next
    } else if (/path *=/ || /\.workspace *= *true/) next
    printf "%s: registry crate `%s` under %s\n", FILENAME, name, sect; bad = 1
  }
  END { exit bad }
' Cargo.toml crates/*/Cargo.toml
cargo build --release --offline
# Invariant lint first: lock-graph cycles, determinism hygiene, data-plane
# panic-freedom, durability ordering, context/retry hygiene, zero-copy
# (DESIGN.md §11, §16). Fails fast with file:line diagnostics; suppressions
# live in lint-allowlist.txt.
cargo run -q --offline -p ear-lint -- check
# The machine-readable output and the derived lock graph must stay
# well-formed: --json emits one parseable object per diagnostic, and graph
# prints the workspace lock-acquisition graph as Graphviz DOT.
cargo run -q --offline -p ear-lint -- check --json > /dev/null
cargo run -q --offline -p ear-lint -- graph | grep -q '^digraph'
# Tests run under both storage engines (DESIGN.md §9, §13) and both sides
# of the block cache (DESIGN.md §12): caching fully off (every read CRC32C
# re-verified) and a deliberately small cache that forces eviction and
# clock rotation under the suite's working sets. Each row is the whole
# workspace (the root manifest's `default-members`).
EAR_STORE=memory EAR_CACHE=off cargo test -q --offline
EAR_STORE=memory EAR_CACHE=4m,16m cargo test -q --offline
EAR_STORE=extent EAR_CACHE=off cargo test -q --offline
EAR_STORE=extent EAR_CACHE=4m,16m cargo test -q --offline
cargo clippy --workspace --offline -- -D warnings

# Chaos smoke: a fixed-seed fault-injection sweep over both policies
# (DESIGN.md §7). Deterministic — any failure names the seed to replay
# with `ear chaos --seed <s>`. scripts/chaos.sh runs the long soaks.
cargo run -q --release --offline -p ear-cli -- chaos --plans 5 --seed 0 --profile mixed
cargo run -q --release --offline -p ear-cli -- chaos --plans 2 --seed 0 --profile mixed --store extent
# Heal smoke: seeded mid-run kills repaired by the background healer
# (DESIGN.md §10); any block left under-redundant fails the run.
cargo run -q --release --offline -p ear-cli -- heal --plans 2 --seed 0
# Straggler-heavy hedged-read smoke (DESIGN.md §14): Pareto per-attempt
# delays with hedging on — prints the probe-read tail percentiles and the
# hedges launched/won; any lost block or untyped failure fails the run.
cargo run -q --release --offline -p ear-cli -- chaos --plans 3 --seed 0 --stragglers
# Crash-sim smoke: deterministic kill-point sweep over the durability
# layer's three surfaces (DESIGN.md §13). Failures name (seed, kill) to
# replay with `ear crashsim --surface <s> --seed <n> --kills 1`.
cargo run -q --release --offline -p ear-cli -- crashsim --seeds 4 --kills 8
# The benchmark harness's own unit tests (benchmark/README.md): they build
# the harness against this tree, so a change that breaks its API contract
# fails here instead of in the benchmark run.
benchmark/run.sh --test
