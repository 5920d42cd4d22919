#!/usr/bin/env bash
# Regenerates BENCH_obs.json: the observability overhead gate (per-primitive
# ns/op, the full per-query disabled-tracing obs block, and its fraction of
# the mean serial query latency — must stay below 1%). Recipe in
# EXPERIMENTS.md. Exits non-zero if the gate fails.
#
# Usage: scripts/bench_obs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p sirius-bench --bin bench_obs
. scripts/bench_out.sh
bench_run ./target/release/bench_obs
bench_publish BENCH_obs.json
