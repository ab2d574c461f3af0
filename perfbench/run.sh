#!/usr/bin/env bash
# Builds the repository's `gridd`/`gridrun` binaries and the `perfbench`
# binary into one target directory, then runs `perfbench` with the given
# arguments:
#
#   bash perfbench/run.sh --workload gridd|trace-report \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last stdout line is the JSON result.
# `CARGO_TARGET_DIR` defaults to `.bench_build`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p schematic-bench --bin gridd --bin gridrun >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
# Not `exec`: perfbench's peak-RSS reading of its children would then
# include the cargo processes this shell already waited for.
"$CARGO_TARGET_DIR/release/perfbench" "$@"
