#!/usr/bin/env bash
# Builds loadbench and the wwt-serve binary it drives into one target
# directory (CARGO_TARGET_DIR, else loadbench/target), then runs loadbench
# with the arguments given. Run it from the root of the repository:
#
#   bash loadbench/run.sh --workload cold_unique --seed 1 --seconds 15 --trace 0
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p loadbench -p wwt-server
exec "${CARGO_TARGET_DIR:-$here/target}/release/loadbench" "$@"
