#!/usr/bin/env bash
# The repository's benchmark: builds the benchmark crate, then runs it.
#
#   benchmark/run.sh [--seed N]                      every workload, tracing off
#   benchmark/run.sh --trace 1                       every workload, then its traced per-layer run
#   benchmark/run.sh --workload deep --seed 3 --seconds 15 --trace 0
#   benchmark/run.sh --repeat-check                  end-to-end set twice; non-zero unless they agree
#   benchmark/run.sh --quick [--trace 1]             toy sizes, for smoke use
#
# See benchmark/README.md for what is measured and why.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"

build_started=$EPOCHREALTIME
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
build_ended=$EPOCHREALTIME
# EPOCHREALTIME is seconds.microseconds; subtract in integer microseconds.
build_us=$(( ${build_ended/[.,]/} - ${build_started/[.,]/} ))
build_s=$(printf '%d.%06d' $(( build_us / 1000000 )) $(( build_us % 1000000 )))

exec "$CARGO_TARGET_DIR/release/hsipc-benchmark" run --build-s "$build_s" "$@"
