#!/usr/bin/env sh
# Offline CI gate. Everything here runs without network access: the
# workspace has no external dependencies (see "Hermetic builds" in
# README.md), so --offline is load-bearing, not an optimization.
set -eu

cd "$(dirname "$0")"

echo "==> build (release)"
cargo build --release --offline

echo "==> tests"
# --workspace on purpose: every member, whatever the root `default-members`
# lists (today every member too, so Tier-1's bare `cargo test` is this step).
# It runs dcat-bench's determinism, golden_traces, golden_metrics, registry
# and promise_floor suites and dcat-verify's recorded counts; the
# `all_experiments` golden shows the dev profile prints what release does,
# so none of them has a release step of its own.
cargo test -q --offline --workspace

echo "==> lint gate (fmt, clippy on the whole workspace)"
# Every property the gate enforces has one mechanism (DESIGN.md §12): a
# type bound, a clippy lint declared once (`#![deny(clippy::…)]` at the
# module or lib root, lists in the root clippy.toml and Cargo.toml), or a
# test. The source rules clippy cannot state (tests/source_rules.rs) and
# the Figure 6 table check (transitions.rs) ran in the test step above.
cargo fmt -- --check
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> rustdoc: every intra-doc link resolves, none from a public item to a private one"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> system benchmark self-check (its unit tests + a seconds-long smoke of every workload)"
# benchmark/ is a package of its own that links this workspace's public
# API (benchmark/README.md, "What the benchmark links against"); building
# and smoke-running it here makes a source-incompatible change fail in
# this gate rather than when the benchmark is next run.
if ! bash benchmark/run.sh --check > target/sysbench-check.txt 2>&1; then
    tail -40 target/sysbench-check.txt >&2
    echo "ERROR: benchmark/run.sh --check failed (full log: target/sysbench-check.txt)" >&2
    exit 1
fi

echo "==> document ceilings: DESIGN.md and README.md may shrink, not grow"
# Lower a ceiling when its document shrinks; never raise one.
for doc_ceiling in DESIGN.md:2042 README.md:637; do
    doc=${doc_ceiling%:*}
    ceiling=${doc_ceiling#*:}
    lines=$(wc -l < "$doc")
    if [ "$lines" -gt "$ceiling" ]; then
        echo "ERROR: $doc has $lines lines, over its ceiling of $ceiling" >&2
        exit 1
    fi
done

echo "==> clippy rejects the seeded fixture crate (one seed per lint that replaced a DLxxx pass)"
# As checked in it must fail with every twin named; without its seeds
# module it must pass, so it is the seeds that fail, not the crate.
seeded=tools/clippy-seeded
seeded_target="$PWD/target/seeded"
if (cd "$seeded" && CARGO_TARGET_DIR="$seeded_target" \
    cargo clippy --offline -- -D warnings) > target/seeded-clippy.txt 2>&1; then
    echo "ERROR: clippy passed the seeded fixture crate" >&2
    exit 1
fi
for twin in unwrap_used expect_used '`panic` should not be present' integer_division \
    indexing_slicing string_slice as_conversions print_stdout \
    let_underscore_must_use wildcard_enum_match_arm allow_attributes_without_reason \
    'disallowed method `std::thread::spawn`' \
    'disallowed method `std::time::Instant::now`' \
    'disallowed type `std::collections::HashMap`'; do
    if ! grep -q "$twin" target/seeded-clippy.txt; then
        echo "ERROR: clippy did not name '$twin' on the seeded fixture crate (target/seeded-clippy.txt)" >&2
        exit 1
    fi
done
rm -rf target/seeded-clean
mkdir -p target/seeded-clean/src
cp "$seeded/Cargo.toml" "$seeded/Cargo.lock" target/seeded-clean/
grep -v '^pub mod seeds;' "$seeded/src/lib.rs" > target/seeded-clean/src/lib.rs
# Built into its own target/: the two packages have the same name and each
# sits at the root of its own workspace, so in a shared target directory
# cargo takes one for the other.
(cd target/seeded-clean && cargo clippy --offline -- -D warnings)

echo "==> per-reference path in release: cbm, llc-sim, workloads, smallrng and host suites with their recorded oracles"
# In release, as the experiments run it: the hot path's index and counter
# arithmetic must hold with overflow checks and debug_asserts compiled out
# (`cargo test --workspace` covers the debug build, optimised per package by
# the root Cargo.toml's dev profile, with both checks on). They carry the
# multi-core inclusion property and its decision digests, the stream and
# gen_range byte oracles (tests/golden/, recorded before the divisions
# came off the path), the reciprocal set-index identity, the whole machine
# against its reference model (machine_differential.rs: about 1 s in debug,
# so it has no step of its own), the packed set, its stamps and the page
# table against the model's parts, slices against their references one at
# a time (slice_equivalence.rs), the engine's two issue loops in lockstep
# (host's pipeline_equals_plain_loop_*), and the fill masks' own arithmetic
# (the cbm crate's `from_way_range` shifts).
cargo test -q --release --offline -p cbm -p workloads -p smallrng -p llc-sim -p host

echo "==> mutation checks (tests/mutants/: each patch is applied to a scratch copy and the test its header names must fail)"
# 01-03 are the 4-byte LLC line's per-set stamp clock: its exactness
# argument is only as good as the tests that would notice it break
# (DESIGN.md §14). 04-06 are
# the float printer's tie rule and switch point and the row parser's digit
# lane (§16, "third pass"); 07-09 the engine slice's held caches and
# estimator (§14, "Fifth pass"); 10-11 the pool's reorder window and the
# fleet's streaming fold (§15); 12-14 the source rules and the Figure 6
# table check (§12); 15-16 the frame validator's per-segment ticks and
# `dcat-top --follow` across a daemon restart (§16); 17-18 the frame
# reader's integer codec and its first-of-duplicate-keys lookup (§16); 19
# a departing LLC line rebuilt from its tag without its set (§14); 20
# `dcat-top --replay` passing input of no known kind (§16); 21 the one
# apply writing in class order (§10.1); 23-24 the radix page table's root
# growth and the walk behind `clear` (§14, "Translation"); 25 a 16-bit tag
# that admits the empty-way sentinel (§14); 26 the max-performance split's
# DP skipping the last table (§10); 27 the frame writer trading two
# same-typed positions of a v2 domain, which only the v1 golden read back
# as v2 shows (§16); 28-29 the LLC line's shared bit, set by another core's
# hit and read by the back-invalidation (§14); 30-31 the private cache's
# fill reporting the tail and its invalidate closing the gap, 32 the held
# array's fast path taken for an 8-way cache of any set count (§14); 33
# the apply recording a core's move before the backend took it, 34 a mask
# before the backend took it, and 35 a cut-short apply lending the last
# tick's masks unrewritten (§10.2); 36 LFOC's way floor taken as 1, not
# the hardware's `min_cbm_bits` (§10); 37 the one apply skipping a tick
# whose plan did not change, which left LFOC on a cut-short layout, 38 a
# reservation under `min_cbm_bits` reaching the backend, 39 tenants
# sharing a core, or one with none, reaching it, and 40 a refused pool
# classed as transient (§11).
# 22, the sharer mask's bit position, retired with the mask.
sh tools/mutants.sh tests/mutants/*.patch

echo "==> the float printer against {:?}, 30 M draws of each shape (release; the debug run above did 1 M)"
cargo test -q --release -p dcat-obs --offline --test shortest_f64

echo "==> its power-of-ten table is what tools/gen_pow10.py writes"
if command -v python3 > /dev/null; then
    python3 tools/gen_pow10.py --check
else
    echo "no python3: skipping tools/gen_pow10.py --check"
fi

echo "==> daemon tick allocations (counting allocator; steady-state bounds, release)"
# Its own test binary: the counting #[global_allocator] must not sit
# under any other test. --nocapture prints the measured figures.
cargo test -q --release -p dcat --offline --test tick_allocations -- --nocapture

echo "==> engine epoch allocations (counting allocator; warm-epoch bound, release)"
# Measured, not inferred from syntax: a warm
# 4-VM run_epoch allocates 5 times per epoch, never per reference.
cargo test -q --release -p host --offline --test epoch_allocations -- --nocapture

echo "==> all experiments: serial vs parallel wall-clock"
# Byte-identity across --jobs 1 and 2, and against the report recorded in
# crates/bench/tests/golden/all_experiments_fast.txt, is the test step's
# `all_experiments_golden`; this step only times the two widths.
t0=$(date +%s)
cargo run -q --release -p dcat-bench --offline --bin all_experiments -- --fast --jobs 1 > /dev/null
t1=$(date +%s)
cargo run -q --release -p dcat-bench --offline --bin all_experiments -- --fast --jobs 2 > /dev/null
t2=$(date +%s)
echo "all_experiments --fast wall-clock: jobs=1 $((t1 - t0))s, jobs=2 $((t2 - t1))s"

echo "==> fleet smoke: 1000 tenants, sampled sets, byte-identity across jobs widths"
# The cluster scenario layer fans hosts over the worker pool; the smoke
# proves a 1000-tenant sampled run is fast AND byte-identical whether
# hosts step on two workers or four.
# A host lives only as long as its run and its result only until the
# coordinator has folded it, so memory follows --jobs, not the host count:
# 13.7 MiB at 1 000 tenants and at 10 000 alike (48 MiB at 10 000 while
# every host's result was held; 98 MiB at 1 000 with every host built up
# front). The 10 000-tenant run (~10 s) is what makes "flat" a gate.
if command -v python3 > /dev/null; then
    rss_ceiling="python3 tools/rss_ceiling.py 16"
else
    echo "no python3: fleet smoke runs without its 16 MiB RSS ceiling"
    rss_ceiling=""
fi
cargo build -q --release -p dcat-bench --offline --bin dcat-bench
$rss_ceiling target/release/dcat-bench fleet_scale --fast \
    --tenants 1000 --sample-sets 8 --jobs 2 > target/fleet_smoke.jobs2.txt
target/release/dcat-bench fleet_scale --fast \
    --tenants 1000 --sample-sets 8 --jobs 4 > target/fleet_smoke.jobs4.txt
if ! cmp -s target/fleet_smoke.jobs2.txt target/fleet_smoke.jobs4.txt; then
    echo "ERROR: fleet_scale output differs between --jobs 2 and --jobs 4" >&2
    exit 1
fi
$rss_ceiling target/release/dcat-bench fleet_scale --fast \
    --tenants 10000 --sample-sets 8 --jobs 2 > target/fleet_smoke.10k.txt

echo "==> metrics + frame-stream export: fig07 with --metrics-out/--frames-out, metrics validated by dcat-top --replay"
target/release/dcat-bench fig07_lifecycle --fast \
    --metrics-out target/metrics.prom --frames-out target/frames.jsonl \
    > target/fig07_lifecycle.txt
cargo run -q --release -p dcat-top --offline --bin dcat-top -- \
    --replay target/metrics.prom --headless > /dev/null

echo "==> dcat-top replay: headless render of the fig07 stream vs the blessed golden"
# Replay validates the stream through the one frame reader, and it must
# render byte-identically to the golden the dcat-top crate's tests bless
# (DCAT_BLESS=1 re-blesses).
cargo run -q --release -p dcat-top --offline --bin dcat-top -- \
    --replay target/frames.jsonl --headless > target/fig07_headless.txt
if ! cmp -s target/fig07_headless.txt crates/top/tests/golden/fig07_headless.txt; then
    echo "ERROR: dcat-top --headless render differs from crates/top/tests/golden/fig07_headless.txt" >&2
    diff target/fig07_headless.txt crates/top/tests/golden/fig07_headless.txt | head -20 >&2 || true
    exit 1
fi

echo "==> perfbench self-test (fake clock, schema validation, no writes)"
cargo run -q --release -p dcat-bench --offline --bin dcat-perfbench -- --check

echo "==> perfbench regression gate vs the tracked BENCH_micro.json trajectory"
# Re-measures the one suite against the wall clock, writes the fresh
# result to target/bench/, and gates each case's normalized score against
# the blessed baseline at the repo root (tolerance from its header).
# Derived floors ride along: `fig10_sampled_speedup >= 1.0` says set
# sampling still pays end to end. After an intentional perf change,
# re-bless with: DCAT_BLESS=1 cargo run --release -p dcat-bench --bin dcat-perfbench
cargo run -q --release -p dcat-bench --offline --bin dcat-perfbench -- \
    --out-dir target/bench --baseline-dir .

echo "==> A/B harness (tools/ab/pairs.sh: alternating benchmark pairs between two revs) parses"
# Not run here: a pair takes minutes. Checked so the next claim starts
# from a working script.
bash -n tools/ab/pairs.sh
bash tools/ab/pairs.sh --help > /dev/null

echo "==> profiling tools build (tools/prof: the SIGPROF sampler, the heap-peak tracer and their binning script)"
# Not run here — a profile is read by a person — but kept compiling, so
# the next per-instruction or where-is-the-memory question starts from a
# working tool.
if command -v cc > /dev/null; then
    cc -O2 -Wall -Wextra -shared -fPIC -o target/sampler.so tools/prof/sampler.c
    cc -O2 -Wall -Wextra -shared -fPIC -o target/heap.so tools/prof/heap.c
else
    echo "no cc: skipping tools/prof/sampler.c and tools/prof/heap.c"
fi
if command -v python3 > /dev/null; then
    python3 -m py_compile tools/prof/bin_samples.py
else
    echo "no python3: skipping tools/prof/bin_samples.py"
fi

echo "==> model checker (the binary's exit path; the full run and its counts are crates/verify/tests/counts.rs, in the test step)"
cargo run -q --release -p dcat-verify --offline -- --smoke

echo "CI gate passed"
