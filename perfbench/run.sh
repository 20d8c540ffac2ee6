#!/usr/bin/env bash
# Builds the benchmark and the `multiclust` server binary from the
# checkout's sources (release profile, offline), then runs the benchmark
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
  -p perfbench -p multiclust --bins >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/multiclust" "$@"
