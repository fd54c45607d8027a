#!/usr/bin/env bash
# Alternating A/B pairs of the system benchmark between two git revisions.
#
#   tools/ab/pairs.sh REV_A REV_B --workload W [--pairs 10] [--seconds 20] [--seed S]
#
# Each revision is `git archive`d into its own directory under AB_DIR
# (default: $TMPDIR/dcat-ab, outside the checkout) and its benchmark/ built
# there with its own target directory. Then, per pair, both sides run
# `benchmark/run.sh --workload W --seconds S --trace 0` (plus --seed S when
# given), A first in even pairs and B first in odd ones, so a drift in the
# machine's speed lands on both sides alike.
#
# Per end-to-end metric of BENCHMARK.json it prints each side's median
# [q1, q3], the range of the per-pair ratios B / A, the pairs B won
# (better per the metric's "better"; ties count for neither), and whether
# the medians are further apart than A's interquartile distance. It exits
# 1 if any run's sim_digest differs from A's first, 2 on a usage error.
set -euo pipefail

usage() {
    sed -n '2,17s/^# \{0,1\}//p' "$0"
}

[ "${1:-}" = "--help" ] || [ "${1:-}" = "-h" ] && { usage; exit 0; }
[ "$#" -ge 2 ] || { usage >&2; exit 2; }
rev_a=$1
rev_b=$2
shift 2
workload=""
pairs=10
seconds=20
seed=()
while [ "$#" -gt 0 ]; do
    case "$1" in
        --workload) workload=$2; shift 2 ;;
        --pairs) pairs=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --seed) seed=(--seed "$2"); shift 2 ;;
        --help | -h) usage; exit 0 ;;
        *) echo "unknown argument: $1" >&2; usage >&2; exit 2 ;;
    esac
done
[ -n "$workload" ] || { echo "--workload is required" >&2; exit 2; }
command -v python3 > /dev/null || { echo "pairs.sh needs python3 for its summary" >&2; exit 2; }

repo="$(cd "$(dirname "$0")/../.." && pwd)"
work="${AB_DIR:-${TMPDIR:-/tmp}/dcat-ab}"
mkdir -p "$work"

# Unpacks and builds one side; prints nothing on stdout.
prepare() {
    local side=$1 rev=$2
    rm -rf "$work/$side"
    mkdir -p "$work/$side"
    git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
    CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml" >&2
}

# One run of one side; appends its metric lines and sim_digest to its log.
run_side() {
    local side=$1 pair=$2 out
    out=$(CARGO_TARGET_DIR="$work/$side-target" bash "$work/$side/benchmark/run.sh" \
        --workload "$workload" --seconds "$seconds" --trace 0 "${seed[@]}" 2> /dev/null)
    printf '%s\n' "$out" | awk -v side="$side" -v pair="$pair" -v w="$workload" '
        $1 == w && NF == 4 { print side, pair, $2, $4 }
        $1 == "detail" { if (match($0, /"sim_digest":"[0-9a-f]+"/)) print side, pair, "sim_digest", substr($0, RSTART + 14, RLENGTH - 15) }
    ' >> "$work/runs.txt"
}

echo "building $rev_a (A) and $rev_b (B) under $work" >&2
prepare a "$rev_a"
prepare b "$rev_b"
: > "$work/runs.txt"
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order="a b"; else order="b a"; fi
    for side in $order; do
        run_side "$side" "$i"
    done
    echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$repo/BENCHMARK.json" "$work/runs.txt" "$rev_a" "$rev_b" "$workload" << 'EOF'
import json
import sys

spec_path, runs_path, rev_a, rev_b, workload = sys.argv[1:]
spec = json.load(open(spec_path))
runs = {}
digests = {}
for line in open(runs_path):
    side, pair, metric, value = line.split()
    if metric == "sim_digest":
        digests.setdefault(side, []).append(value)
    else:
        runs.setdefault(metric, {}).setdefault(side, {})[int(pair)] = float(value)


def quartiles(xs):
    """Median and quartiles by linear interpolation between order statistics."""
    s = sorted(xs)

    def at(q):
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return at(0.5), at(0.25), at(0.75)


print(f"{workload}: A = {rev_a}, B = {rev_b}")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    sides = runs.get(name, {})
    a, b = sides.get("a", {}), sides.get("b", {})
    common = sorted(set(a) & set(b))
    if not common:
        print(f"  {name}: no paired runs")
        continue
    ma, qa1, qa3 = quartiles([a[p] for p in common])
    mb, qb1, qb3 = quartiles([b[p] for p in common])
    ratios = [b[p] / a[p] for p in common if a[p] != 0]
    won = sum(1 for p in common if (b[p] < a[p] if lower else b[p] > a[p]))
    lost = sum(1 for p in common if (b[p] > a[p] if lower else b[p] < a[p]))
    apart = abs(mb - ma) > (qa3 - qa1)
    span = f"[{min(ratios):.4f}, {max(ratios):.4f}]" if ratios else "[n/a]"
    print(
        f"  {name} ({m['unit']}, {m['better']} is better): "
        f"A {ma:.6g} [{qa1:.6g}, {qa3:.6g}]  B {mb:.6g} [{qb1:.6g}, {qb3:.6g}]  "
        f"B/A {span}  B better in {won}/{len(common)} (worse in {lost})  "
        f"medians apart beyond A's IQR: {'yes' if apart else 'no'}"
    )
first = (digests.get("a") or [None])[0]
mismatch = [d for side in ("a", "b") for d in digests.get(side, []) if d != first]
print(f"  sim_digest: A {sorted(set(digests.get('a', [])))} B {sorted(set(digests.get('b', [])))}")
if first is None or mismatch:
    print("  sim_digest differs between runs: the two sides simulate different machines")
    sys.exit(1)
EOF
