//! Heap allocations of one warm `Engine::run_epoch`, measured rather
//! than linted (ROADMAP item 1b; DESIGN.md §12: "the per-reference path
//! does not allocate" is enforced by counting, not by a syntactic proxy).
//!
//! This file is its own test binary with exactly one `#[test]` because it
//! installs a counting `#[global_allocator]`: the `GlobalAlloc` trait is
//! `unsafe` to implement, and the implementation below only forwards to
//! [`System`] after bumping a counter (the same shape as
//! `crates/dcat/tests/tick_allocations.rs` and
//! `crates/llc-sim/tests/page_table_allocations.rs`).
//!
//! Four VMs — random reads, a stream, a compute loop, and a second
//! random reader — run until every page of every working set is mapped;
//! from then on an epoch is hundreds of thousands of references through the stream
//! generators, the page mappers, three cache levels and the engine's
//! slice loop, and the only allocations left are per epoch, not per
//! reference: the returned `Vec<VmEpochStats>` and the name each entry
//! clones from its spec (the metric series are resolved by the first
//! epoch and written through their ids).

// The workspace denies `unsafe` (root `Cargo.toml`); a counting allocator
// is an `unsafe impl` by the trait's definition.
#![allow(
    unsafe_code,
    reason = "GlobalAlloc is unsafe to implement; every method forwards to System"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use host::{Engine, EngineConfig, VmSpec};
use workloads::{Lookbusy, Mload, Mlr};

/// Measured: 5 per warm epoch, whatever the epoch's length — the stats
/// `Vec` and a name per VM, which `VmEpochStats.name: String` forces —
/// plus a small margin. One allocation anywhere on the per-reference path
/// would add hundreds of thousands.
const EPOCH_BOUND: u64 = 8;

const WARM_EPOCHS: usize = 12;
const MEASURED_EPOCHS: usize = 10;

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

#[test]
fn a_warm_epoch_stays_within_its_allocation_bound() {
    let config = EngineConfig {
        cycles_per_epoch: 1_000_000,
        ..EngineConfig::xeon_e5_v4()
    };
    let vms = vec![
        VmSpec::new("mlr", vec![0, 1], 4),
        VmSpec::new("mload", vec![2, 3], 4),
        VmSpec::new("lookbusy", vec![4, 5], 2),
        VmSpec::new("mlr-small", vec![6, 7], 2),
    ];
    let mut engine = Engine::new(config, vms).unwrap();
    engine.start_workload(0, Box::new(Mlr::new(2 * 1024 * 1024, 42)));
    engine.start_workload(1, Box::new(Mload::new(4 * 1024 * 1024)));
    engine.start_workload(2, Box::new(Lookbusy::new()));
    engine.start_workload(3, Box::new(Mlr::new(256 * 1024, 7)));
    for _ in 0..WARM_EPOCHS {
        engine.run_epoch();
    }

    let mut costs = Vec::with_capacity(MEASURED_EPOCHS);
    let mut references = 0u64;
    for _ in 0..MEASURED_EPOCHS {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let stats = engine.run_epoch();
        costs.push(ALLOCATIONS.load(Ordering::Relaxed) - before);
        references += stats.iter().map(|s| s.l1_ref).sum::<u64>();
    }
    let (min, max) = (costs.iter().min().unwrap(), costs.iter().max().unwrap());
    println!(
        "warm epoch, 4 VMs, {} references per epoch: {min}..{max} allocations (bound {EPOCH_BOUND})",
        references / MEASURED_EPOCHS as u64
    );
    assert!(
        references > 0,
        "the measured epochs must have simulated something"
    );
    assert!(
        *max <= EPOCH_BOUND,
        "run_epoch allocates {max} times per warm epoch (bound {EPOCH_BOUND}): {costs:?}"
    );
}
