//! `PageMapper`'s radix page table against an oracle: a `BTreeMap` mapper
//! that draws its frames from an identical allocator with an identical
//! placement stream. Both see the same random interleaving of dense runs,
//! sparse pages, the diurnal think page at `1 << 44` and addresses up to
//! `u64::MAX` (where trace replay can reach and the table stops growing),
//! at 4 KiB and 2 MiB pages; after every translation the physical
//! address, the mapped page count and the allocator's used bytes must
//! agree. Then both are cleared: every frame must be back in the pool,
//! and a fresh mapping must get all of them again.

use std::collections::BTreeMap;

use llc_sim::{FrameAllocator, FramePolicy, PageMapper, PageSize, PhysAddr, VirtAddr};
use prop_lite::Gen;
use smallrng::SmallRng;

/// The reference mapper: one ordered map from page number to page base.
struct Oracle {
    size: PageSize,
    pages: BTreeMap<u64, PhysAddr>,
}

impl Oracle {
    fn translate(
        &mut self,
        vaddr: VirtAddr,
        frames: &mut FrameAllocator,
        rng: &mut SmallRng,
    ) -> Option<PhysAddr> {
        let shift = self.size.shift();
        let vpage = vaddr.page_number(shift);
        let base = match self.pages.get(&vpage) {
            Some(base) => *base,
            None => {
                let base = frames.allocate_colored_with(self.size, None, rng)?;
                self.pages.insert(vpage, base);
                base
            }
        };
        Some(PhysAddr(base.0 + vaddr.page_offset(shift)))
    }

    fn clear(&mut self, frames: &mut FrameAllocator) {
        for base in std::mem::take(&mut self.pages).into_values() {
            frames.free(base, self.size);
        }
    }
}

/// The table and the oracle, each with its own allocator and stream.
struct Pair {
    mapper: PageMapper,
    frames: FrameAllocator,
    rng: SmallRng,
    oracle: Oracle,
    oracle_frames: FrameAllocator,
    oracle_rng: SmallRng,
}

impl Pair {
    fn new(size: PageSize, pool_bytes: u64, policy: FramePolicy, seed: u64) -> Self {
        Pair {
            mapper: PageMapper::new(size),
            frames: FrameAllocator::new(pool_bytes, policy, seed),
            rng: SmallRng::seed_from_u64(seed),
            oracle: Oracle {
                size,
                pages: BTreeMap::new(),
            },
            oracle_frames: FrameAllocator::new(pool_bytes, policy, seed),
            oracle_rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn step(&mut self, vaddr: VirtAddr) -> Option<PhysAddr> {
        let got = self
            .mapper
            .translate_with(vaddr, &mut self.frames, &mut self.rng);
        let want = self
            .oracle
            .translate(vaddr, &mut self.oracle_frames, &mut self.oracle_rng);
        assert_eq!(got, want, "translation of {:#x}", vaddr.0);
        assert_eq!(
            self.mapper.mapped_pages(),
            self.oracle.pages.len(),
            "mapped pages after {:#x}",
            vaddr.0
        );
        assert_eq!(
            self.frames.used_bytes(),
            self.oracle_frames.used_bytes(),
            "used bytes after {:#x}",
            vaddr.0
        );
        got
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
    // From a pool that runs dry within the interleaving to one that never
    // does; the smallest holds one huge page, the allocator's minimum.
    let pool_pages = match size {
        PageSize::Small => *g.pick(&[512u64, 1024, 4096]),
        PageSize::Huge => *g.pick(&[1u64, 16, 256]),
    };
    let policy = *g.pick(&[FramePolicy::Randomized, FramePolicy::Contiguous]);
    let mut pair = Pair::new(size, pool_pages * page, policy, g.u64_in(0, u64::MAX));

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
    pair.oracle.clear(&mut pair.oracle_frames);
    assert_eq!(pair.mapper.mapped_pages(), 0);
    assert_eq!(pair.frames.used_bytes(), 0, "clear left frames mapped");

    // A fresh mapping of as many pages as the pool holds gets every one.
    let first = g.u64_in(0, 1 << 20);
    for p in first..first + pool_pages {
        assert!(
            pair.step(VirtAddr(p * page)).is_some(),
            "page {p} found no frame"
        );
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
