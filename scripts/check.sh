#!/usr/bin/env bash
# Full repo gate: formatting, lints, release build, tests.
# Everything runs offline against the vendored shim crates.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo build --release -p sirius-bench --bin bench_server --bin bench_obs"
cargo build --release -p sirius-bench --bin bench_server --bin bench_obs

# Only the deterministic gates: the noisy performance gates stay in
# scripts/bench_server.sh.
echo "==> bench_server --queries 10 (smoke: outputs match serial, ledgers balance)"
./target/release/bench_server --queries 10 | python3 -c '
import json, sys
bench = json.load(sys.stdin)
for section, gate in [
    ("cluster_sweep", "outputs_match_serial"),
    ("cluster_sweep", "accounting_balanced"),
    ("cache_sweep", "outputs_match_serial"),
    ("cache_sweep", "accounting_balanced"),
    ("cache_affinity", "outputs_match_serial"),
]:
    assert bench[section][gate] is True, f"{section}.{gate} is not true"
'

echo "==> cargo test --workspace --release -q (every crate's unit, doc and integration tests)"
cargo test --workspace --release -q

echo "==> cargo doc --workspace --no-deps (broken intra-doc links are errors)"
RUSTDOCFLAGS='-D rustdoc::broken_intra_doc_links' cargo doc --workspace --no-deps --offline

echo "==> cargo build --release --offline --manifest-path benchmark/Cargo.toml (frozen benchmark surface still compiles)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> all checks passed"
