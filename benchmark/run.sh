#!/usr/bin/env bash
# The one command of the system benchmark: builds benchmark/ (release,
# offline, its own target directory unless CARGO_TARGET_DIR is set) and
# hands every argument to the binary.
#
#   run.sh                                   all four workloads, 3 repetitions, traced pass, result file
#   run.sh --seed N --workload NAME --reps N --no-trace --seconds S --out FILE
#   run.sh --workload NAME --seed N --seconds S --trace 0|1     one run; last stdout line is the result object
#   run.sh --check                           unit tests, then a seconds-long smoke validated against BENCHMARK.json
#   run.sh --compare A.json B.json           B against A, per workload and metric, against the declared bounds
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

# Build output goes to stderr: stdout belongs to the result.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

for arg in "$@"; do
    if [ "$arg" = "--check" ]; then
        cargo test --release --offline --quiet \
            --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
    fi
done

exec "$target/release/sysbench" \
    --spec "$here/../BENCHMARK.json" --out-dir "$here/out" "$@"
