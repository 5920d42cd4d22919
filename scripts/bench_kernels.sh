#!/usr/bin/env bash
# Regenerates BENCH_kernels.json: the repo's kernel timings (lazy decode,
# GEMM batching, GMM layout), the decoder's pruning calibration and the
# design ablations (recipe in EXPERIMENTS.md).
#
# Usage: scripts/bench_kernels.sh [REPS]   (default 9; medians over reps)
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${1:-9}"

cargo build --release -p sirius-bench --bin bench_kernels
. scripts/bench_out.sh
bench_run ./target/release/bench_kernels --reps "$REPS"
bench_publish BENCH_kernels.json
