//! Property-based tests for the cache simulator's core invariants.

// The hash-container ban (root `clippy.toml`) guards simulator state; the
// map below only remembers what each page translated to.
#![allow(
    clippy::disallowed_types,
    reason = "the map only remembers what each page translated to; no iteration order escapes"
)]

use llc_sim::{
    AccessKind, CacheGeometry, Cbm, FrameAllocator, FramePolicy, Hierarchy, HierarchyConfig,
    LineAddr, PageMapper, PageSize, SetAssocCache, SimFidelity, VirtAddr,
};

fn small_hierarchy(llc_ways: u32) -> Hierarchy {
    Hierarchy::new(HierarchyConfig {
        cores: 2,
        l1: CacheGeometry::new(8, 2, 64),
        l2: CacheGeometry::new(16, 4, 64),
        llc: CacheGeometry::new(64, llc_ways, 64),
        llc_policy: Default::default(),
    })
}

/// A partition can never hold more lines than sets x permitted ways.
#[test]
fn partition_occupancy_bounded() {
    prop_lite::run_cases("partition_occupancy_bounded", 128, |g| {
        let lines = g.vec_of(1, 399, |g| g.u64_in(0, 9_999));
        let start = g.u32_in(0, 5);
        let count = g.u32_in(1, 2);
        let geometry = CacheGeometry::new(32, 8, 64);
        let mut cache = SetAssocCache::new(geometry);
        let mask = Cbm::from_way_range(start, count);
        for line in lines {
            cache.access_as(LineAddr(line), mask, 0);
        }
        assert!(cache.occupancy_in(mask) <= u64::from(32 * count));
        // Nothing leaked outside the permitted ways.
        assert_eq!(cache.occupancy(), cache.occupancy_in(mask));
    });
}

/// Whatever is resident in a private L1 or L2 is resident in the LLC
/// (the inclusive property the paper's footnote 3 describes).
#[test]
fn hierarchy_is_inclusive() {
    prop_lite::run_cases("hierarchy_is_inclusive", 64, |g| {
        let accesses: Vec<(u64, u32)> =
            g.vec_of(1, 499, |g| (g.u64_in(0, (1u64 << 16) - 1), g.u32_in(0, 1)));
        let mut h = small_hierarchy(8);
        h.set_fill_mask(0, Cbm::from_way_range(0, 4));
        h.set_fill_mask(1, Cbm::from_way_range(4, 4));
        let mut touched = Vec::new();
        for (addr, core) in accesses {
            let addr = addr & !63;
            h.access(core, addr, AccessKind::Load);
            touched.push((core, addr));
        }
        for (core, addr) in touched {
            if h.l1_probe(core, addr) || h.l2_probe(core, addr) {
                assert!(
                    h.llc_probe(addr),
                    "line {addr:#x} in a private cache but not the LLC"
                );
            }
        }
    });
}

/// Counter arithmetic: l1_ref >= l1_miss >= llc_ref >= llc_miss.
#[test]
fn counter_ordering_holds() {
    prop_lite::run_cases("counter_ordering_holds", 64, |g| {
        let accesses = g.vec_of(1, 599, |g| g.u64_in(0, (1u64 << 20) - 1));
        let mut h = small_hierarchy(8);
        for addr in accesses {
            h.access(0, addr & !63, AccessKind::Store);
        }
        let c = h.counters(0);
        assert!(c.l1_ref >= c.l1_miss);
        assert!(c.l1_miss >= c.llc_ref);
        assert!(c.llc_ref >= c.llc_miss);
    });
}

/// Translation is a function: the same virtual address always maps to
/// the same physical address, and distinct pages never share a frame.
#[test]
fn translation_is_stable_and_injective() {
    prop_lite::run_cases("translation_is_stable_and_injective", 64, |g| {
        let pages = g.vec_of(1, 63, |g| g.u64_in(0, 511));
        let huge = g.bool_with(0.5);
        let size = if huge {
            PageSize::Huge
        } else {
            PageSize::Small
        };
        let mut frames = FrameAllocator::new(2 * 1024 * 1024 * 1024, FramePolicy::Randomized, 7);
        let mut mapper = PageMapper::new(size);
        let mut seen = std::collections::HashMap::new();
        for p in pages {
            let vaddr = VirtAddr(p * size.bytes());
            let paddr = mapper.translate(vaddr, &mut frames).unwrap();
            let again = mapper.translate(vaddr, &mut frames).unwrap();
            assert_eq!(paddr, again);
            if let Some(prev) = seen.insert(p, paddr) {
                assert_eq!(prev, paddr);
            }
        }
        // Injectivity over page frames.
        let mut frames_used: Vec<u64> = seen.values().map(|a| a.0 >> size.shift()).collect();
        frames_used.sort_unstable();
        frames_used.dedup();
        assert_eq!(frames_used.len(), seen.len());
    });
}

/// The LRU never evicts the most recently used line of a partition.
#[test]
fn mru_line_survives_one_fill() {
    prop_lite::run_cases("mru_line_survives_one_fill", 128, |g| {
        let seed_lines = g.vec_of(2, 15, |g| g.u64_in(0, 63));
        let fresh = g.u64_in(64, 127);
        let geometry = CacheGeometry::new(1, 8, 64); // single set
        let mut cache = SetAssocCache::new(geometry);
        let mask = Cbm::from_way_range(0, 4);
        for l in &seed_lines {
            cache.access_as(LineAddr(*l), mask, 0);
        }
        let mru = *seed_lines.last().unwrap();
        cache.access_as(LineAddr(fresh), mask, 0);
        assert!(
            cache.probe(LineAddr(mru)),
            "MRU line {mru} evicted by a single fill"
        );
    });
}

/// A prefetch hint is not an access: the same references, with hints to
/// arbitrary addresses interleaved, are served from the same levels and
/// leave the same lines resident, at full and at sampled fidelity.
#[test]
fn hints_change_nothing_simulated() {
    prop_lite::run_cases("hints_change_nothing_simulated", 64, |g| {
        let universe = (1u64 << 16) - 1;
        let accesses: Vec<(u64, u32)> =
            g.vec_of(1, 499, |g| (g.u64_in(0, universe) & !63, g.u32_in(0, 1)));
        let fidelity = *g.pick(&[SimFidelity::Full, SimFidelity::Sampled { one_in: 4 }]);
        let (mut plain, mut hinted) = (small_hierarchy(8), small_hierarchy(8));
        plain.set_fidelity(fidelity);
        hinted.set_fidelity(fidelity);
        for &(addr, core) in &accesses {
            for _ in 0..g.u32_in(0, 3) {
                hinted.prefetch_llc(g.u64_in(0, universe));
            }
            assert_eq!(
                plain.access(core, addr, AccessKind::Load),
                hinted.access(core, addr, AccessKind::Load)
            );
        }
        for core in 0..2 {
            assert_eq!(plain.counters(core), hinted.counters(core));
        }
        for (addr, core) in accesses {
            assert_eq!(plain.llc_probe(addr), hinted.llc_probe(addr));
            assert_eq!(plain.l2_probe(core, addr), hinted.l2_probe(core, addr));
            assert_eq!(plain.l1_probe(core, addr), hinted.l1_probe(core, addr));
        }
    });
}
