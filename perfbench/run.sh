#!/usr/bin/env bash
# Builds the benchmark package from source (with the `antidote` binary
# the serve replay spawns), then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fig6-wdbc --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
