#!/usr/bin/env bash
# Builds the release flqd and the benchmark client from this checkout, then
# runs the benchmark. Arguments are passed through, e.g.
#   bash flqbench/run.sh --workload warm --seed 1 --seconds 10 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default: target); span dumps of
# traced runs go to .flqbench/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin flqd >&2
cargo build --release --offline --quiet --manifest-path flqbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/flqbench" --flqd "$CARGO_TARGET_DIR/release/flqd" "$@"
