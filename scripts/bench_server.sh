#!/usr/bin/env bash
# Regenerates BENCH_server.json: the staged-runtime load sweep (open-loop
# latency-vs-load against the M/M/1 prediction, the shed-on-full vs
# deadline-aware admission-policy head-to-head with its M/M/1/K shed-rate
# cross-check, the cross-query ASR batching policy sweep with its Pareto
# frontier, the streaming-ASR sweep over chunk size x offered load, the
# sharded-cluster sweep over replica count x routing policy, the
# multi-tenant cache sweep over offered load x result-cache capacity with
# its consistent-hash affinity head-to-head, the loopback TCP front-end
# sweep over closed-loop client counts, plus closed-loop saturation
# throughput). Recipe in EXPERIMENTS.md.
#
# Usage: scripts/bench_server.sh [QUERIES] [WORKERS]
#   QUERIES  arrivals per load point (default 100)
#   WORKERS  workers per heavy stage for the saturation run (default 4)
set -euo pipefail
cd "$(dirname "$0")/.."

QUERIES="${1:-100}"
WORKERS="${2:-4}"

cargo build --release -p sirius-bench --bin bench_server

# The run never touches the committed file (see bench_out.sh).
. scripts/bench_out.sh
bench_run ./target/release/bench_server --queries "$QUERIES" --workers "$WORKERS"

# The bench itself verifies that staged and admitted-query outputs are
# bit-identical to the serial pipeline; fail loudly if either check, or the
# policy-sweep accounting identity, regressed. Only a result that passes is
# stamped and published.
python3 - "$OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
assert bench["saturation"]["outputs_match_serial"] is True, "saturation outputs diverged from serial"
sweep = bench["policy_sweep"]
assert sweep["outputs_match_serial"] is True, "policy-sweep outputs diverged from serial"
assert sweep["accounting_balanced"] is True, "admission ledger did not balance"
batch = bench["batch_sweep"]
assert batch["outputs_match_serial"] is True, "batched outputs diverged from serial DNN"
assert batch["accounting_balanced"] is True, "batch-sweep accounting did not balance"
assert any(p["max_batch"] > 1 and p["batch_size_max"] > 1 for p in batch["points"]), \
    "no cross-query batch ever formed"
stream = bench["streaming_sweep"]
assert stream["outputs_match_serial"] is True, "streaming outputs diverged from serial"
assert stream["from_end_p50_below_serial_floor_at_low_rho"] is True, \
    "streaming from-end p50 did not beat the serial sum-of-stages floor at rho <= 0.8"
assert all(p["partials_per_query"] > 0 for p in stream["points"]), \
    "a streaming point emitted no partial hypotheses"
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
net = bench["net_sweep"]
assert net["outputs_match_serial"] is True, \
    "remote answers over the TCP front-end diverged from serial"
assert net["frames_balanced"] is True, \
    "net frame accounting did not balance (frames_in != frames_out != queries)"
assert net["ledger_balanced"] is True, \
    "per-tenant ledger did not balance across remote submissions"
assert net["scrape_ok"] is True, \
    "GET /metrics on the serving socket did not return valid Prometheus text"
assert len(net["points"]) >= 4 and all(p["qps"] > 0 for p in net["points"]), \
    "net sweep is missing closed-loop client points"
print("==> outputs_match_serial and accounting checks passed")
EOF
bench_publish BENCH_server.json
