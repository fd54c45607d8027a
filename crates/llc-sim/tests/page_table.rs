//! `PageMapper`'s radix page table against the reference model's: a
//! `BTreeMap` from page number to page base that draws its frames from an
//! identical allocator with an identical placement stream
//! (`support/reference.rs`). Both see the same random interleaving of
//! dense runs, sparse pages, the diurnal think page at `1 << 44` and
//! addresses up to `u64::MAX` (where trace replay can reach and the table
//! stops growing), at 4 KiB and 2 MiB pages, from pools that run dry
//! within it and pools that never do; after every translation the
//! physical address, the mapped page count and the allocator's used bytes
//! must agree. Then both are cleared: every frame must be back in the
//! pool, and a fresh mapping must get all of them again — what
//! `machine_differential.rs`'s programs never do.

#[path = "support/reference.rs"]
mod reference;

use llc_sim::{
    FrameAllocator, FramePolicy, HierarchyConfig, PageMapper, PageSize, PhysAddr, VirtAddr,
};
use prop_lite::Gen;
use reference::Machine;
use smallrng::SmallRng;

/// The table, its allocator and stream, and the model's table.
struct Pair {
    mapper: PageMapper,
    frames: FrameAllocator,
    rng: SmallRng,
    model: Machine,
}

impl Pair {
    fn step(&mut self, vaddr: VirtAddr) -> Option<PhysAddr> {
        let got = self
            .mapper
            .translate_with(vaddr, &mut self.frames, &mut self.rng);
        let want = self.model.translate(vaddr);
        assert_eq!(got, want, "translation of {:#x}", vaddr.0);
        self.agree(&format!("{:#x}", vaddr.0));
        got
    }

    /// Pages mapped and bytes of the pool used, after `what`.
    fn agree(&self, what: &str) {
        let got = (self.mapper.mapped_pages(), self.frames.used_bytes());
        assert_eq!(got, self.model.footprint(), "pages, bytes after {what}");
    }
}

/// The interleaving's next stretch of virtual addresses, for pages of
/// `page` bytes: a dense run, sparse pages, the think page, the top of the
/// address space and anywhere in it, or anywhere below `1 << 40`.
fn stretch(g: &mut Gen, page: u64) -> Vec<u64> {
    let offset = |g: &mut Gen| g.u64_in(0, page - 1);
    match g.u32_in(0, 4) {
        0 => {
            let first = g.u64_in(0, 1 << 14);
            let len = g.u64_in(1, 160);
            (first..first + len).map(|p| p * page + offset(g)).collect()
        }
        1 => (0..g.usize_in(1, 32))
            .map(|_| g.u64_in(0, 50_000) * page + offset(g))
            .collect(),
        2 => vec![(1 << 44) + g.u64_in(0, 4095)],
        3 => vec![u64::MAX - g.u64_in(0, 3 * page), g.u64_in(0, u64::MAX)],
        _ => vec![g.u64_in(0, 1 << 40)],
    }
}

fn table_matches_the_oracle(size: PageSize, g: &mut Gen) {
    let page = size.bytes();
    // The smallest pool holds one huge page, the allocator's minimum.
    let pool_pages = match size {
        PageSize::Small => *g.pick(&[512u64, 1024, 4096]),
        PageSize::Huge => *g.pick(&[1u64, 16, 256]),
    };
    let policy = *g.pick(&[FramePolicy::Randomized, FramePolicy::Contiguous]);
    let seed = g.u64_in(0, u64::MAX);
    let pool = || {
        (
            FrameAllocator::new(pool_pages * page, policy, seed),
            SmallRng::seed_from_u64(seed),
        )
    };
    let (frames, rng) = pool();
    let model = Machine::new(HierarchyConfig::default(), size, pool());
    let mut pair = Pair {
        mapper: PageMapper::new(size),
        frames,
        rng,
        model,
    };

    let mut touched = Vec::new();
    for _ in 0..g.usize_in(1, 40) {
        for vaddr in stretch(g, page) {
            pair.step(VirtAddr(vaddr));
            touched.push(vaddr);
        }
        // Revisit earlier pages, which the table must still hold after
        // growing to cover later ones.
        for _ in 0..g.usize_in(0, 8) {
            let vaddr = *g.pick(&touched);
            pair.step(VirtAddr(vaddr));
        }
    }

    pair.mapper.clear(&mut pair.frames);
    pair.model.unmap_all();
    pair.agree("clear");
    assert_eq!(pair.frames.used_bytes(), 0, "clear left frames mapped");

    // A fresh mapping of as many pages as the pool holds gets every one.
    let first = g.u64_in(0, 1 << 20);
    for p in first..first + pool_pages {
        let mapped = pair.step(VirtAddr(p * page));
        assert!(mapped.is_some(), "page {p} found no frame");
    }
    assert_eq!(pair.frames.used_bytes(), pair.frames.capacity_bytes());
}

#[test]
fn small_page_table_matches_the_oracle() {
    prop_lite::run_cases("small_page_table_matches_the_oracle", 96, |g| {
        table_matches_the_oracle(PageSize::Small, g);
    });
}

#[test]
fn huge_page_table_matches_the_oracle() {
    prop_lite::run_cases("huge_page_table_matches_the_oracle", 96, |g| {
        table_matches_the_oracle(PageSize::Huge, g);
    });
}
