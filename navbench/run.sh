#!/usr/bin/env bash
# Builds the benchmark and the `bionav` server from source, then runs one
# workload. Run from the repository root:
#   bash navbench/run.sh --workload cold_explore --seed 1 --seconds 45 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" -p navbench -p bionav-cli >&2
exec "$CARGO_TARGET_DIR/release/navbench" \
  --bionav "$CARGO_TARGET_DIR/release/bionav" \
  --out-dir "$CARGO_TARGET_DIR/navbench" "$@"
