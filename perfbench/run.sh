#!/usr/bin/env bash
# The benchmark's one command. Builds the serving binary and the
# benchmark program from source, then runs one workload:
#
#   bash perfbench/run.sh --workload predict_interactive --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p trajlib --bin trajlib-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --cli "$CARGO_TARGET_DIR/release/trajlib-cli" "$@"
