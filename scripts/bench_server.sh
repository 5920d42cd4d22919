#!/usr/bin/env bash
# Regenerates BENCH_server.json: the sweeps of the serving runtime that the
# repo benchmark (benchmark/) does not run — the sharded-cluster sweep over
# replica count x routing policy with its routing head-to-head (Tables 8/9),
# the multi-tenant cache sweep over offered load x result-cache capacity,
# and the consistent-hash cache-affinity head-to-head. Recipe in
# EXPERIMENTS.md.
#
# Usage: scripts/bench_server.sh [QUERIES]
#   QUERIES  arrivals per load point (default 100)
set -euo pipefail
cd "$(dirname "$0")/.."

QUERIES="${1:-100}"

cargo build --release -p sirius-bench --bin bench_server

# The run never touches the committed file (see bench_out.sh).
. scripts/bench_out.sh
bench_run ./target/release/bench_server --queries "$QUERIES"

# The bench itself verifies that every output is bit-identical to the
# serial pipeline and that the runtime's ledgers balance; fail loudly if
# either, or a sweep's own gate, regressed. Only a result that passes is
# stamped and published.
python3 - "$OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
cluster = bench["cluster_sweep"]
assert cluster["outputs_match_serial"] is True, \
    "sharded cluster outputs diverged from serial"
assert cluster["accounting_balanced"] is True, \
    "merged cluster telemetry did not account for every query exactly once"
assert cluster["least_sojourn_p99_le_round_robin_at_peak"] is True, \
    "least-sojourn p99 exceeded the round-robin noise bound at the peak routing load"
cache = bench["cache_sweep"]
assert cache["outputs_match_serial"] is True, \
    "cache-sweep outputs diverged from serial (a cache hit changed an answer)"
assert cache["accounting_balanced"] is True, \
    "per-tenant admission ledger did not balance"
assert cache["throughput_increases_with_hit_ratio"] is True, \
    "throughput did not rise with the measured hit ratio at rho >= 1.1"
assert cache["premium_protected_under_overload"] is True, \
    "premium p99 or shed ordering broke under rho = 1.5 overload"
assert any(p["capacity"] > 0 and p["hit_ratio"] > 0 for p in cache["points"]), \
    "no cache-enabled point ever hit"
affinity = bench["cache_affinity"]
assert affinity["outputs_match_serial"] is True, \
    "cache-affinity outputs diverged from serial"
assert affinity["hash_beats_round_robin"] is True, \
    "consistent-hash affinity did not beat round-robin aggregate hit ratio"
print("==> outputs_match_serial, accounting and sweep gates passed")
EOF
bench_publish BENCH_server.json
