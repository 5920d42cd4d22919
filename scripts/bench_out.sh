# Sourced by scripts/bench_*.sh: how a bench result becomes a committed
# BENCH_*.json.
#
# A run can take minutes and can fail or be interrupted at any point, so it
# never touches the committed file: output goes to a temp file, the caller's
# checks run against that, and only a checked, stamped result is moved into
# place. (Redirecting straight into BENCH_server.json is how that file came
# to be 0 bytes for three PRs.)

# bench_run CMD [ARGS...] — runs CMD with stdout in a fresh temp file, whose
# path is left in $OUT and which is removed when the script exits. Fails if
# CMD fails or prints nothing.
bench_run() {
    OUT="$(mktemp "${TMPDIR:-/tmp}/BENCH.XXXXXX")"
    trap 'rm -f "$OUT"' EXIT
    "$@" > "$OUT"
    [ -s "$OUT" ] || { echo "$1 produced no output" >&2; exit 1; }
}

# bench_publish DEST — checks that $OUT parses as a JSON object, stamps it
# with where and when it was taken (numbers from different core counts or
# commits are not comparable; `-dirty` marks uncommitted changes on top of
# the named commit) and moves it to DEST.
bench_publish() {
    CORES="$(nproc)" COMMIT="$(git describe --always --dirty)" DATE="$(date -u +%Y-%m-%d)" \
    python3 - "$OUT" <<'PY'
import json, os, sys
path = sys.argv[1]
with open(path) as f:
    text = f.read()
assert isinstance(json.loads(text), dict), "bench output is not a JSON object"
stamp = json.dumps({
    "cores": int(os.environ["CORES"]),
    "commit": os.environ["COMMIT"],
    "date": os.environ["DATE"],
})
head, brace, rest = text.partition("{")
with open(path, "w") as f:
    f.write(f'{head}{brace}\n  "stamp": {stamp},{rest}')
PY
    mv "$OUT" "$1"
    echo "==> wrote $1"
}
