#!/usr/bin/env sh
# Mutation checks, checked in: each PATCH is a minimal source diff that
# breaks one thing, and names in one or more `# killed-by: <cargo test
# arguments>` header lines the tests that must notice.
#
#   tools/mutants.sh tests/mutants/*.patch
#
# For each patch: copy the tree (without build outputs) to a scratch
# directory, apply the patch there, run each named test offline in release
# and REQUIRE every one to fail. A mutant that survives fails this script; so do
# a patch that no longer applies and a mutant that does not compile (the
# test has to run and fail, not be absent). Scratch space is
# target/mutants unless MUTANTS_DIR is set; the copies share one cargo
# target directory, so only the mutated crate rebuilds.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
scratch="${MUTANTS_DIR:-$root/target/mutants}"
[ "$#" -gt 0 ] || { echo "usage: $0 PATCH..." >&2; exit 2; }

for patch in "$@"; do
    name="$(basename "$patch" .patch)"
    killers="$(sed -n 's/^# killed-by: //p' "$patch")"
    if [ -z "$killers" ]; then
        echo "ERROR: $patch has no '# killed-by:' header" >&2
        exit 1
    fi
    rm -rf "$scratch/tree"
    mkdir -p "$scratch/tree"
    (cd "$root" && tar -cf - --exclude=./.git --exclude=./target --exclude=./.bench_build \
        --exclude=./benchmark/target --exclude=./benchmark/out .) | (cd "$scratch/tree" && tar -xf -)
    if ! (cd "$scratch/tree" && patch -p1 -s -f) < "$patch"; then
        echo "ERROR: $patch no longer applies; re-cut it against the current source" >&2
        exit 1
    fi
    n=0
    while IFS= read -r killer; do
        n=$((n + 1))
        log="$scratch/$name.$n.log"
        # $killer is split on purpose: it is a list of cargo arguments.
        # shellcheck disable=SC2086
        if (cd "$scratch/tree" && CARGO_TARGET_DIR="$scratch/target" \
            cargo test -q --release --offline $killer) < /dev/null > "$log" 2>&1; then
            echo "ERROR: mutant $name SURVIVED 'cargo test $killer' ($log)" >&2
            exit 1
        fi
        if ! grep -q '^test result: FAILED' "$log"; then
            tail -20 "$log" >&2
            echo "ERROR: mutant $name did not get as far as a failing test ($log)" >&2
            exit 1
        fi
        echo "mutant $name: killed by 'cargo test $killer'"
    done <<EOF
$killers
EOF
done
