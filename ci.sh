#!/usr/bin/env sh
# Offline CI gate. Everything here runs without network access: the
# workspace has no external dependencies (see "Hermetic builds" in
# README.md), so --offline is load-bearing, not an optimization.
set -eu

cd "$(dirname "$0")"

echo "==> build (release)"
cargo build --release --offline

echo "==> tests"
cargo test -q --offline --workspace

echo "==> lint gate (fmt, clippy, source scans)"
cargo run -q -p xtask --offline -- lint

echo "==> lint gate flags a seeded banned-pattern fixture (one per pass family)"
mkdir -p target
cat > target/lint-fixture.rs <<'FIXTURE'
fn bad() {
    let x = f.read().unwrap();
    let m = Cbm(a.0 & b.0);
    if ipc == 0.0 { }
    let h = std::thread::spawn(|| ());
    let t = std::fs::read_to_string(&p)?;
    let mut counts: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for (k, v) in counts.iter() { use_it(k, v); }
    let t0 = std::time::Instant::now();
    let truncated = big_count as u32;
    let first = fields[0];
    println!("debug {x}");
}
FIXTURE
if cargo run -q -p xtask --offline -- scan target/lint-fixture.rs; then
    echo "ERROR: lint scan passed a fixture seeded with banned patterns" >&2
    exit 1
fi

echo "==> interprocedural passes flag seeded laundering the token engine alone misses"
cat > target/lint-interproc-helper.rs <<'FIXTURE'
use std::collections::HashMap;

// The only HashMap evidence lives in this file; the sibling fixture
// that iterates the returned map never names the type.
fn build_index() -> HashMap<String, u64> {
    let mut m = HashMap::new();
    m.insert("k".to_string(), 1);
    m
}
FIXTURE
cat > target/lint-interproc-fixture.rs <<'FIXTURE'
// DL012: the HashMap type only arrives through a cross-file call
// return; the token-level DL006 pass cannot type `m` here.
fn drain() -> u64 {
    let m = build_index();
    let mut sum = 0;
    for v in m.values() {
        sum += v;
    }
    sum
}

// DL013: integer division by a variable one call from the entry; no
// token pass covers divide-by-zero at all.
fn share(total: u64, groups: u64) -> u64 {
    total / groups
}

// DL014: way counts and byte counts added together type-check fine;
// only unit inference from the names catches the mix.
fn pressure(total_ways: u32, dirty_bytes: u32) -> u32 {
    total_ways + dirty_bytes
}

fn entry() -> u64 {
    let a = drain();
    let b = share(a, 3);
    let _c = pressure(4, 4096);
    a + b
}
FIXTURE
cat > target/lint-flow-fixture.rs <<'FIXTURE'
// DL015: a laundered `&mut` capture handed to a Pool::map worker; the
// extra binding hides the borrow from every token pass — only the
// def-use chain connects `sink` back to `totals`.
pub struct Pool;
impl Pool {
    pub fn map(&self, items: Vec<u64>, f: impl Fn(usize, u64) -> u64) -> Vec<u64> {
        items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect()
    }
}

fn fan_out(pool: &Pool) -> u64 {
    let mut totals = 0u64;
    let sink = &mut totals;
    let out = pool.map(vec![1, 2, 3], |_i, x| { *sink += x; x });
    let total: u64 = out.iter().copied().sum();
    totals + total
}

// DL017: an I/O-classified Result parked in a binding and dropped two
// statements later; there is no unwrap/expect text anywhere, so the
// discard is invisible without value tracking.
pub struct ResctrlError;

fn write_mask(mask: u64) -> Result<u64, ResctrlError> {
    Ok(mask)
}

fn epoch_step(mask: u64) -> u64 {
    let applied = write_mask(mask);
    let _ = applied;
    mask
}
FIXTURE
if cargo run -q -p dcat-lint --offline -- target/lint-interproc-fixture.rs \
    target/lint-interproc-helper.rs target/lint-flow-fixture.rs; then
    echo "ERROR: interprocedural passes missed the seeded laundering fixture" >&2
    exit 1
fi
cargo run -q -p dcat-lint --offline -- --json target/lint-interproc-fixture.rs \
    target/lint-interproc-helper.rs target/lint-flow-fixture.rs \
    > target/lint-interproc-report.json || true
if grep -o '"code":"DL0[0-9][0-9]"' target/lint-interproc-report.json | grep -qv 'DL01[2-7]'; then
    echo "ERROR: fixture tripped a token-level pass; it no longer proves the interprocedural value-add" >&2
    exit 1
fi
for code in DL012 DL013 DL014 DL015 DL017; do
    if ! grep -q "\"code\":\"$code\"" target/lint-interproc-report.json; then
        echo "ERROR: seeded $code laundering was not caught" >&2
        exit 1
    fi
done

echo "==> lint JSON report against the checked-in baseline"
cargo run -q -p dcat-lint --offline -- --json --baseline lint-baseline.txt \
    > target/lint-report.json

echo "==> determinism regression + golden decision traces + golden metrics"
cargo test -q --release -p dcat-bench --offline --test determinism --test golden_traces \
    --test golden_metrics

echo "==> per-reference path in release: llc-sim, workloads and smallrng suites with their recorded oracles"
# In release, as the experiments run it: the hot path's index and counter
# arithmetic must hold with overflow checks and debug_asserts compiled out
# (`cargo test --workspace` covers the debug build). These three suites
# are in neither Tier-1 nor the default test step above; they carry the
# multi-core inclusion property and its decision digests, the stream and
# gen_range byte oracles (tests/golden/, recorded before the divisions
# came off the path) and the reciprocal set-index identity.
cargo test -q --release --offline -p workloads -p smallrng -p llc-sim

echo "==> daemon end-to-end (fixture resctrl tree + scripted telemetry)"
cargo test -q -p dcat --offline --test daemon_e2e

echo "==> daemon fault tolerance (scripted fault schedule, degraded ticks)"
cargo test -q -p dcat --offline --test daemon_faults

echo "==> frame byte oracle + malformed-telemetry corpus (recorded from the pre-rewrite tick path)"
cargo test -q -p dcat-obs --offline --test frames_golden
cargo test -q -p dcat --offline --test telemetry_corpus

echo "==> daemon tick allocations (counting allocator; steady-state bounds, release)"
# Its own test binary: the counting #[global_allocator] must not sit
# under any other test. --nocapture prints the measured figures.
cargo test -q --release -p dcat --offline --test tick_allocations -- --nocapture

echo "==> all experiments: serial vs parallel wall-clock and byte-identity"
t0=$(date +%s)
cargo run -q --release -p dcat-bench --offline --bin all_experiments -- --fast --jobs 1 \
    > target/all_experiments.jobs1.txt
t1=$(date +%s)
cargo run -q --release -p dcat-bench --offline --bin all_experiments -- --fast --jobs 2 \
    > target/all_experiments.jobs2.txt
t2=$(date +%s)
echo "all_experiments --fast wall-clock: jobs=1 $((t1 - t0))s, jobs=2 $((t2 - t1))s"
if ! cmp -s target/all_experiments.jobs1.txt target/all_experiments.jobs2.txt; then
    echo "ERROR: all_experiments output differs between --jobs 1 and --jobs 2" >&2
    exit 1
fi

echo "==> fleet smoke: 1000 tenants, sampled sets, byte-identity across jobs widths"
# The cluster scenario layer fans hosts over the worker pool; the smoke
# proves a 1000-tenant sampled run is fast AND byte-identical whether
# hosts step on two workers or four.
cargo run -q --release -p dcat-bench --offline --bin fleet_scale -- --fast \
    --tenants 1000 --sample-sets 8 --jobs 2 > target/fleet_smoke.jobs2.txt
cargo run -q --release -p dcat-bench --offline --bin fleet_scale -- --fast \
    --tenants 1000 --sample-sets 8 --jobs 4 > target/fleet_smoke.jobs4.txt
if ! cmp -s target/fleet_smoke.jobs2.txt target/fleet_smoke.jobs4.txt; then
    echo "ERROR: fleet_scale output differs between --jobs 2 and --jobs 4" >&2
    exit 1
fi

echo "==> metrics + frame-stream export: fig07 with --metrics-out/--frames-out, validated by obs-dump"
cargo run -q --release -p dcat-bench --offline --bin fig07_lifecycle -- --fast \
    --metrics-out target/metrics.prom --frames-out target/frames.jsonl \
    > target/fig07_lifecycle.txt
cargo run -q --release -p dcat-obs --offline --bin obs-dump -- --check target/metrics.prom
cargo run -q --release -p dcat-obs --offline --bin obs-dump -- --check target/frames.jsonl

echo "==> dcat-top replay: headless render of the fig07 stream vs the blessed golden"
# The same stream obs-dump just validated must render byte-identically to
# the golden the dcat-top crate's tests bless (DCAT_BLESS=1 re-blesses).
cargo run -q --release -p dcat-top --offline --bin dcat-top -- \
    --replay target/frames.jsonl --headless > target/fig07_headless.txt
if ! cmp -s target/fig07_headless.txt crates/top/tests/golden/fig07_headless.txt; then
    echo "ERROR: dcat-top --headless render differs from crates/top/tests/golden/fig07_headless.txt" >&2
    diff target/fig07_headless.txt crates/top/tests/golden/fig07_headless.txt | head -20 >&2 || true
    exit 1
fi

echo "==> DL011 exemption boundary: the dcat-top renderer lib is gated, its binary is not"
# A scoped gate over a miniature tree holding the SAME println! at both
# top-crate paths: the library must be flagged, the /bin/ path must not —
# proving the print-discipline boundary rather than assuming it.
mkdir -p target/ci-top-boundary/crates/top/src/bin target/ci-top-boundary/crates/dcat/src
printf 'pub fn render() {\n    println!("tick");\n}\n' \
    > target/ci-top-boundary/crates/top/src/lib.rs
cp target/ci-top-boundary/crates/top/src/lib.rs \
    target/ci-top-boundary/crates/top/src/bin/dcat_top.rs
# Stubs for the inputs the scoped gate always reads (DL010 spec drift).
: > target/ci-top-boundary/crates/dcat/src/transitions.rs
: > target/ci-top-boundary/DESIGN.md
cargo run -q --release -p dcat-lint --offline -- --json --root target/ci-top-boundary \
    > target/ci-top-boundary-report.json || true
if ! grep -q '"code":"DL011","path":"crates/top/src/lib.rs"' target/ci-top-boundary-report.json; then
    echo "ERROR: DL011 did not flag a println! seeded into crates/top/src/lib.rs" >&2
    exit 1
fi
if grep -q '"path":"crates/top/src/bin/dcat_top.rs"' target/ci-top-boundary-report.json; then
    echo "ERROR: the dcat-top binary path lost its stdio exemption" >&2
    exit 1
fi

echo "==> perfbench self-test (fake clock, schema validation, no writes)"
cargo run -q --release -p dcat-bench --offline --bin dcat-perfbench -- --check

echo "==> perfbench regression gate vs tracked BENCH_*.json trajectory"
# Re-measures both suites against the wall clock, writes the fresh
# results to target/bench/, and gates each case's normalized score
# against the blessed baselines at the repo root (tolerance comes from
# each baseline's header). The micro suite's `lint_full_workspace`
# case also enforces the 10 s full-workspace lint budget via its
# `lint_budget_headroom >= 1.0` floor, replacing the old one-off
# timer. After an intentional perf change, re-bless
# with: DCAT_BLESS=1 cargo run --release -p dcat-bench --bin dcat-perfbench
cargo run -q --release -p dcat-bench --offline --bin dcat-perfbench -- \
    --out-dir target/bench --baseline-dir .

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

echo "==> model checker (bounded exhaustive)"
cargo run -q --release -p dcat-verify --offline

echo "CI gate passed"
