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

# bench_publish DEST — checks that $OUT parses as a JSON object, prints
# old -> new for every numeric leaf it shares with the DEST it is about to
# replace (a speedup is claimed against the previous committed file, not
# against memory), stamps it with where and when it was taken (numbers from
# different core counts or commits are not comparable; `-dirty` marks
# uncommitted changes on top of the named commit) and moves it to DEST.
bench_publish() {
    CORES="$(nproc)" COMMIT="$(git describe --always --dirty)" DATE="$(date -u +%Y-%m-%d)" \
    python3 - "$OUT" "$1" <<'PY'
import json, os, sys
path, dest = sys.argv[1], sys.argv[2]
with open(path) as f:
    text = f.read()
new = json.loads(text)
assert isinstance(new, dict), "bench output is not a JSON object"

def leaves(node, prefix=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{prefix}{key}.")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield prefix[:-1], node

try:
    with open(dest) as f:
        old = json.load(f)
except (OSError, ValueError):
    old = None
if isinstance(old, dict):
    was = dict(leaves(old))
    print(f"==> {dest}: previous (stamp {json.dumps(old.get('stamp'))}) -> this run")
    for name, value in leaves(new):
        if name in was:
            ratio = f"  x{value / was[name]:.2f}" if was[name] else ""
            print(f"    {name}: {was[name]} -> {value}{ratio}")
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
