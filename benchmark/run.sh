#!/usr/bin/env bash
# Builds the benchmark and runs it from the root of the checkout.
#   benchmark/run.sh [--seed N] [--seconds N] [--sets N]     the whole suite
#   benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1   one run
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/sirius-benchmark" "$@"
