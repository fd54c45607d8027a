//! The page table's nodes, counted rather than inferred: `PageMapper`
//! keeps its pages in a radix tree of 64-slot `u32` nodes (256 bytes,
//! each its own allocation), so the memory a mapping costs is a node
//! count this test can state exactly. A table that went back to a hash
//! map, or to wider nodes, makes none of the 256-byte allocations counted
//! here and fails.
//!
//! This file is its own test binary with exactly one `#[test]` because it
//! installs a counting `#[global_allocator]`: the `GlobalAlloc` trait is
//! `unsafe` to implement, and the implementation below only forwards to
//! [`System`] after bumping counters (the same shape as
//! `crates/host/tests/epoch_allocations.rs`).

// The workspace denies `unsafe` (root `Cargo.toml`); a counting allocator
// is an `unsafe impl` by the trait's definition.
#![allow(
    unsafe_code,
    reason = "GlobalAlloc is unsafe to implement; every method forwards to System"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use llc_sim::{FrameAllocator, FramePolicy, PageMapper, PageSize, VirtAddr};

/// Every allocation, and those of one page-table node's layout.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static NODES: AtomicU64 = AtomicU64::new(0);

/// A node: 64 `u32` slots.
const NODE: Layout = Layout::new::<[u32; 64]>();

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is relaxed
// counter bumps, which neither allocate nor touch the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
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

fn count(layout: Layout) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if layout == NODE {
        NODES.fetch_add(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `DiurnalStream`'s think line: page number `1 << 32` at 4 KiB.
const THINK_VADDR: u64 = 1 << 44;

#[test]
fn nodes_are_counted_exactly_and_a_warm_translate_allocates_nothing() {
    const DENSE_PAGES: u64 = 4096;
    let mut frames = FrameAllocator::new(64 << 20, FramePolicy::Randomized, 7);
    let mut mapper = PageMapper::new(PageSize::Small);

    // Page numbers below 4 096 = 64² take two levels: 64 leaves and the
    // root above them.
    let nodes = NODES.load(Ordering::Relaxed);
    for page in 0..DENSE_PAGES {
        mapper.translate(VirtAddr(page << 12), &mut frames).unwrap();
    }
    let dense_nodes = NODES.load(Ordering::Relaxed) - nodes;
    println!("{DENSE_PAGES} dense pages: {dense_nodes} nodes");
    assert_eq!(dense_nodes, DENSE_PAGES.div_ceil(64) + 1);

    // Page number 1 << 32 needs 33 bits, six levels: a new root for each
    // of the four levels the table grows by, and one node for each level
    // of the think page's own path below the root, the leaf included.
    let nodes = NODES.load(Ordering::Relaxed);
    mapper
        .translate(VirtAddr(THINK_VADDR), &mut frames)
        .unwrap();
    let think_nodes = NODES.load(Ordering::Relaxed) - nodes;
    println!("the think page: {think_nodes} nodes");
    assert_eq!(think_nodes, 4 + 5);
    assert_eq!(mapper.mapped_pages() as u64, DENSE_PAGES + 1);

    // Warm: every page mapped, each translated after a different one so
    // none is answered by the last-page memo alone.
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    for page in 0..DENSE_PAGES {
        mapper.translate(VirtAddr(page << 12), &mut frames).unwrap();
        mapper
            .translate(VirtAddr(THINK_VADDR), &mut frames)
            .unwrap();
    }
    let warm = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    println!("{} warm translates: {warm} allocations", 2 * DENSE_PAGES);
    assert_eq!(warm, 0);
}
