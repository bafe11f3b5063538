#!/usr/bin/env bash
# Prints one sha256sum line per seeded soak: the hash of what the soak
# printed, then the `ear` command that printed it. The soaks replay exactly
# (same seeds, same bytes at every worker count), so the committed
# results/soak_fingerprints.txt changes only when a change moves a soak's
# output; scripts/check.sh fails on any difference.
#
#   scripts/soak_fingerprints.sh                                  # print
#   scripts/soak_fingerprints.sh > results/soak_fingerprints.txt  # regenerate
set -euo pipefail
cd "$(dirname "$0")/.."

for args in "heal --plans 200" \
            "chaos --plans 200 --seed 0 --profile mixed" \
            "chaos --plans 40 --stragglers"; do
  # $args splits into the soak's arguments on purpose.
  # shellcheck disable=SC2086
  hash=$(cargo run -q --release --locked -p ear-cli -- $args | sha256sum)
  echo "${hash%% *}  ear $args"
done
