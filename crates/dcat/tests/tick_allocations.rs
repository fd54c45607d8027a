//! Heap allocations of one steady daemon tick, measured rather than
//! linted (ROADMAP items 1 and 3).
//!
//! This file is its own test binary with exactly one `#[test]` because it
//! installs a counting `#[global_allocator]` — one of the workspace's two
//! `unsafe impl`s (`crates/host/tests/epoch_allocations.rs` counts an
//! engine epoch the same way): the `GlobalAlloc` trait is `unsafe` to
//! implement, and the implementation below only forwards to [`System`]
//! after bumping a counter.
//!
//! `run_daemon_observed` ticks over an `FsBackend::create_fixture` tree
//! with 12 domains whose counters advance by a constant delta, so after a
//! warm-up the controller sits at a fixed point: no events, no ways
//! moved. The allocation counter is read at observer entry and exit, which
//! splits each tick into the daemon loop (previous observer exit → this
//! observer entry) and the frame export the observer performs as `dcatd`
//! does, and leaves the test's own sampler (the CSV rewrite) out of both.

// The workspace denies `unsafe` (root `Cargo.toml`); a counting allocator
// is an `unsafe impl` by the trait's definition.
#![allow(
    unsafe_code,
    reason = "GlobalAlloc is unsafe to implement; every method forwards to System"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dcat::daemon::{run_daemon_observed, DaemonConfig, ObsOptions, ResiliencePolicy};
use dcat::{frame_from_observation, DcatConfig, WorkloadHandle};
use dcat_obs::{FrameWriter, PolicyExt};
use resctrl::{CatCapabilities, FsBackend};

/// Steady-state bounds: the measured counts (1 and 1) plus a small
/// margin. Before the tick path kept its buffers this test measured 116
/// (loop) and 225 (export), 15 while each tick built a fresh `Vec` of
/// `DomainReport`s with 12 cloned names (the policy now lends its
/// reports), and 2 while the audit collected a mask list
/// (`resctrl::Programmed::audit` now folds over the record). The loop's one is the
/// telemetry text (`FileTelemetry::read`); the export's one is the frame's
/// `Vec` of domains.
const LOOP_BOUND: u64 = 3;
const EXPORT_BOUND: u64 = 2;

const DOMAINS: u32 = 12;
const TICKS: u64 = 200;
/// Ticks from here on are expected to be at the fixed point.
const STEADY_FROM: u64 = 120;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter bump, which neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Per-interval counter deltas of domain `i`: a third miss hard, a third
/// hardly touch the LLC, a third fit their reservation.
fn delta(i: u32) -> [u64; 5] {
    match i % 3 {
        0 => [340_000, 120_000, 60_000, 1_000_000, 20_000_000],
        1 => [20_000, 100, 10, 1_000_000, 800_000],
        _ => [270_000, 10_000, 150, 1_000_000, 1_400_000],
    }
}

/// Renders the sampler's CSV for interval `tick` into `csv`.
fn render_csv(csv: &mut String, tick: u64) {
    csv.clear();
    csv.push_str("# name,l1_ref,llc_ref,llc_miss,ret_ins,cycles\n");
    for i in 0..DOMAINS {
        let [l1, llc_ref, llc_miss, ins, cycles] = delta(i).map(|d| d * tick);
        let _ = writeln!(
            csv,
            "tenant-{i:02},{l1},{llc_ref},{llc_miss},{ins},{cycles}"
        );
    }
}

struct TickCost {
    tick: u64,
    in_loop: u64,
    export: u64,
    quiet: bool,
}

fn summary(costs: &[u64]) -> (u64, u64, u64) {
    let mut sorted = costs.to_vec();
    sorted.sort_unstable();
    (
        sorted[0],
        sorted[sorted.len() / 2],
        sorted[sorted.len() - 1],
    )
}

#[test]
fn a_steady_tick_stays_within_its_allocation_bounds() {
    let root: PathBuf = std::env::temp_dir().join(format!("dcatd-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    drop(FsBackend::create_fixture(&root, CatCapabilities::with_ways(20), DOMAINS).unwrap());

    let cfg = DaemonConfig {
        telemetry_path: root.join("telemetry.csv"),
        resctrl_root: root.clone(),
        domains: (0..DOMAINS)
            .map(|i| {
                WorkloadHandle::new(format!("tenant-{i:02}"), vec![i], if i < 6 { 2 } else { 1 })
            })
            .collect(),
        dcat: DcatConfig::default(),
        interval: Duration::ZERO,
        max_ticks: Some(TICKS),
        resilience: ResiliencePolicy::default(),
        fault_plan: None,
        obs: ObsOptions::default(),
    };
    let mut csv = String::new();
    render_csv(&mut csv, 1);
    std::fs::write(&cfg.telemetry_path, &csv).unwrap();

    let mut frames = FrameWriter::new("dcatd");
    let mut costs: Vec<TickCost> = Vec::with_capacity(TICKS as usize);
    let mut last_ways: Vec<u32> = vec![0; DOMAINS as usize];
    let mut last_exit = allocations();
    run_daemon_observed(&cfg, |obs| {
        let entered = allocations();
        let ext = PolicyExt {
            cos: DOMAINS,
            ..PolicyExt::default()
        };
        frames.push(frame_from_observation(obs, "dcat", ext));
        frames.clear_buffer();
        let exported = allocations();

        let mut quiet = obs.events.is_empty() && !obs.degraded;
        for (last, r) in last_ways.iter_mut().zip(obs.reports) {
            quiet &= *last == r.ways && !r.phase_changed;
            *last = r.ways;
        }
        costs.push(TickCost {
            tick: obs.tick,
            in_loop: entered - last_exit,
            export: exported - entered,
            quiet,
        });
        render_csv(&mut csv, obs.tick + 1);
        std::fs::write(&cfg.telemetry_path, &csv).unwrap();
        last_exit = allocations();
    })
    .unwrap();
    std::fs::remove_dir_all(&root).unwrap();

    let steady: Vec<&TickCost> = costs
        .iter()
        .filter(|c| c.tick >= STEADY_FROM && c.quiet)
        .collect();
    assert!(
        steady.len() as u64 >= (TICKS - STEADY_FROM) / 2,
        "the run never settled: only {} quiet ticks after tick {STEADY_FROM}",
        steady.len()
    );
    let loops: Vec<u64> = steady.iter().map(|c| c.in_loop).collect();
    let exports: Vec<u64> = steady.iter().map(|c| c.export).collect();
    let (loop_min, loop_med, loop_max) = summary(&loops);
    let (exp_min, exp_med, exp_max) = summary(&exports);
    println!(
        "steady tick, {DOMAINS} domains, {} ticks: loop {loop_med} allocations \
         (min {loop_min}, max {loop_max}; bound {LOOP_BOUND}), \
         export {exp_med} (min {exp_min}, max {exp_max}; bound {EXPORT_BOUND})",
        steady.len()
    );
    assert!(
        loop_max <= LOOP_BOUND,
        "daemon loop allocates {loop_max} times per steady tick (bound {LOOP_BOUND})"
    );
    assert!(
        exp_max <= EXPORT_BOUND,
        "frame export allocates {exp_max} times per steady tick (bound {EXPORT_BOUND})"
    );
}
