#!/usr/bin/env bash
# Offline verification fallback (see scripts/check.sh): when the crates.io
# registry/mirror is unreachable AND the local cargo cache is empty, the
# workspace's one external dependency (`proptest`, dev-only) cannot be
# fetched. This wrapper patches it to the functional stub in
# scripts/verify-stubs/ — same API, its own deterministic case generator —
# so `cargo build/test/clippy` still exercise every line of workspace code.
# Everything seeded in the workspace draws from the in-tree
# `ear_types::rng::ChaCha8`, so results are identical to a registry build.
# No manifest is modified; the patch lives only in the `--config` flag below.
#
# Usage: scripts/offline-verify.sh <cargo-subcommand> [args...]
#   e.g. scripts/offline-verify.sh test -q
set -euo pipefail
cd "$(dirname "$0")/.."

STUBS="$PWD/scripts/verify-stubs"
# The flags go *after* the subcommand: cargo accepts global flags there,
# and external subcommands (clippy) only forward post-subcommand args to
# the `cargo check` they re-invoke — flags before the subcommand would be
# silently dropped and clippy would try the network.
SUB="$1"
shift
exec cargo "$SUB" \
  --config "patch.crates-io.proptest.path='$STUBS/proptest'" \
  --offline "$@"
