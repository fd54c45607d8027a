//! Virtual-to-physical translation with 4 KiB and 2 MiB pages.
//!
//! The paper's conflict-miss analysis (Figures 2 and 3) hinges on one fact:
//! a contiguous *virtual* buffer is scattered across *physical* frames, so
//! the number of lines landing in each LLC set is binomially distributed
//! rather than uniform, and a way-restricted partition suffers conflict
//! misses even when its capacity equals the working set. Huge pages reduce
//! (but, once the working set spans several huge pages, do not eliminate)
//! the effect.
//!
//! [`FrameAllocator`] hands out physical frames either **randomized**
//! (default OS behavior after memory has been churned) or **contiguous**
//! (the idealized placement, also used for huge-page interiors which are
//! physically contiguous by construction). [`PageMapper`] demand-maps
//! virtual pages on first touch.

use smallrng::SmallRng;

use crate::address::{PhysAddr, VirtAddr};
use crate::coloring::ColorSet;

/// Page size used by a mapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageSize {
    /// Regular 4 KiB pages.
    Small,
    /// 2 MiB huge pages (x86 PMD-level).
    Huge,
}

impl PageSize {
    /// log2 of the page size in bytes.
    #[inline]
    pub fn shift(self) -> u32 {
        match self {
            PageSize::Small => 12,
            PageSize::Huge => 21,
        }
    }

    /// Page size in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        1 << self.shift()
    }

    /// Number of 4 KiB frames covered by one page of this size.
    #[inline]
    pub(crate) fn small_frames(self) -> u64 {
        self.bytes() >> PageSize::Small.shift()
    }
}

/// Physical frame placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramePolicy {
    /// Frames are drawn uniformly at random from the free pool. This models
    /// a long-running host whose physical memory is fragmented, and is the
    /// regime in which the paper's conflict misses appear.
    Randomized,
    /// Frames are handed out in ascending order, producing physically
    /// contiguous buffers (the best case for way-restricted partitions).
    Contiguous,
}

/// Allocates physical frames from a fixed-size pool.
///
/// Internally tracks 4 KiB frames; a huge-page allocation claims a naturally
/// aligned run of 512 of them.
#[derive(Debug)]
pub struct FrameAllocator {
    total_small_frames: u64,
    /// One bit per 4 KiB frame, set while the frame is allocated.
    used: Vec<u64>,
    used_frames: u64,
    bump_next: u64,
    policy: FramePolicy,
    rng: SmallRng,
}

impl FrameAllocator {
    /// Creates an allocator over `memory_bytes` of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `memory_bytes` is smaller than one huge page, or holds
    /// `u32::MAX` or more 4 KiB frames (16 TiB): the page table keeps a
    /// frame number in a `u32` slot, and `u32::MAX` marks an empty one.
    pub fn new(memory_bytes: u64, policy: FramePolicy, seed: u64) -> Self {
        assert!(
            memory_bytes >= PageSize::Huge.bytes(),
            "physical memory must hold at least one huge page"
        );
        let total_small_frames = memory_bytes >> PageSize::Small.shift();
        assert!(
            total_small_frames < u64::from(u32::MAX),
            "physical memory must hold fewer than u32::MAX 4 KiB frames"
        );
        let words = usize::try_from(total_small_frames.div_ceil(64))
            .expect("frame bitmap must be addressable");
        FrameAllocator {
            total_small_frames,
            used: vec![0; words],
            used_frames: 0,
            bump_next: 0,
            policy,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Total pool capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_small_frames << PageSize::Small.shift()
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used_frames << PageSize::Small.shift()
    }

    /// Allocates one page whose frame color is permitted by `colors`
    /// (OS page coloring; see [`crate::coloring`]). `None` colors means
    /// any frame.
    pub(crate) fn allocate_colored(
        &mut self,
        size: PageSize,
        colors: Option<&ColorSet>,
    ) -> Option<PhysAddr> {
        // Route through the external-RNG path with the allocator's own
        // stream. The clone-swap sidesteps borrowing `self.rng` while
        // `self` is mutably borrowed; xoshiro state is four words, so the
        // copy is free.
        let mut rng = self.rng.clone();
        let out = self.allocate_colored_with(size, colors, &mut rng);
        self.rng = rng;
        out
    }

    /// Like `FrameAllocator::allocate_colored`, but randomized placement
    /// draws from `rng` instead of the allocator's internal stream.
    ///
    /// The engine gives every VM its own placement stream (derived from the
    /// scenario seed and the VM index) so that adding or removing one VM
    /// never reshuffles another VM's frames.
    pub fn allocate_colored_with(
        &mut self,
        size: PageSize,
        colors: Option<&ColorSet>,
        rng: &mut SmallRng,
    ) -> Option<PhysAddr> {
        let span = size.small_frames();
        let slots = self.total_small_frames / span;
        if slots == 0 {
            return None;
        }
        match self.policy {
            FramePolicy::Contiguous => self.allocate_bump(span, slots, size, colors),
            FramePolicy::Randomized => self.allocate_random(span, slots, size, colors, rng),
        }
    }

    fn slot_permitted(
        &self,
        start_frame: u64,
        span: u64,
        size: PageSize,
        colors: Option<&ColorSet>,
    ) -> bool {
        if !self.run_free(start_frame, span) {
            return false;
        }
        match colors {
            None => true,
            Some(c) => c.permits_frame(start_frame << PageSize::Small.shift(), size),
        }
    }

    /// Whether `frame` is allocated. Frames beyond the pool read as free,
    /// as they did when the set was sparse; callers only ask about slots
    /// inside it.
    fn is_used(&self, frame: u64) -> bool {
        self.used
            .get((frame / 64) as usize)
            .is_some_and(|word| word & (1 << (frame % 64)) != 0)
    }

    /// Marks `frame` allocated or free, keeping the used count exact when
    /// a frame is claimed or released twice.
    fn set_used(&mut self, frame: u64, used: bool) {
        let Some(word) = self.used.get_mut((frame / 64) as usize) else {
            return;
        };
        let bit = 1 << (frame % 64);
        if (*word & bit != 0) == used {
            return;
        }
        *word ^= bit;
        if used {
            self.used_frames += 1;
        } else {
            self.used_frames -= 1;
        }
    }

    fn run_free(&self, start_frame: u64, span: u64) -> bool {
        (start_frame..start_frame + span).all(|f| !self.is_used(f))
    }

    fn claim(&mut self, start_frame: u64, span: u64) -> PhysAddr {
        for f in start_frame..start_frame + span {
            self.set_used(f, true);
        }
        PhysAddr(start_frame << PageSize::Small.shift())
    }

    fn allocate_bump(
        &mut self,
        span: u64,
        slots: u64,
        size: PageSize,
        colors: Option<&ColorSet>,
    ) -> Option<PhysAddr> {
        // Align the bump pointer to the allocation span, then scan forward.
        let mut slot = self.bump_next.div_ceil(span);
        let mut scanned = 0;
        while scanned < slots {
            let wrapped = slot % slots;
            let start = wrapped * span;
            if self.slot_permitted(start, span, size, colors) {
                self.bump_next = start + span;
                return Some(self.claim(start, span));
            }
            slot += 1;
            scanned += 1;
        }
        None
    }

    fn allocate_random(
        &mut self,
        span: u64,
        slots: u64,
        size: PageSize,
        colors: Option<&ColorSet>,
        rng: &mut SmallRng,
    ) -> Option<PhysAddr> {
        // Rejection-sample aligned slots; fall back to a linear sweep when
        // the pool (or the color class) is nearly full so allocation never
        // spuriously fails.
        for _ in 0..128 {
            let slot = rng.gen_range(0..slots);
            let start = slot * span;
            if self.slot_permitted(start, span, size, colors) {
                return Some(self.claim(start, span));
            }
        }
        let offset = rng.gen_range(0..slots);
        for i in 0..slots {
            let start = ((offset + i) % slots) * span;
            if self.slot_permitted(start, span, size, colors) {
                return Some(self.claim(start, span));
            }
        }
        None
    }

    /// Releases one page this allocator handed out.
    pub fn free(&mut self, base: PhysAddr, size: PageSize) {
        let first = base.0 >> PageSize::Small.shift();
        for f in first..first + size.small_frames() {
            self.set_used(f, false);
        }
    }
}

/// A table node is 64 `u32` slots (256 bytes) and resolves 6 bits of page
/// number. `EMPTY` marks a free slot: node indices never reach it, and
/// [`FrameAllocator::new`] keeps frame numbers below it.
const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS;
const EMPTY: u32 = u32::MAX;

/// The page table, a radix tree shaped like the one the MMU walks. A leaf
/// slot holds the 4 KiB frame number of its page's base, an inner slot
/// the index of the node below. A sparse address space costs nodes only
/// where it is mapped, and the table never copies itself to grow.
#[derive(Debug, Default)]
struct PageTable {
    #[expect(clippy::vec_box, reason = "a `Vec` of nodes copies them all to grow")]
    nodes: Vec<Box<[u32; SLOTS]>>,
    /// Every root the table has had, one a level: `spine[l]` covers page
    /// numbers below `1 << (6 * (l + 1))`, and the last is the root. A
    /// walk starts at the lowest that covers its page, so a small page
    /// number takes no more levels once a large one has grown the table.
    spine: Vec<u32>,
    pages: usize,
}

impl PageTable {
    #[inline(always)]
    fn slot(vpage: u64, level: u32) -> usize {
        (vpage >> (LEVEL_BITS * level)) as usize & (SLOTS - 1)
    }

    /// Levels from the spine to `vpage`'s leaf: one per 6 bits.
    #[inline(always)]
    fn levels(vpage: u64) -> u32 {
        (vpage | 1).ilog2() / LEVEL_BITS + 1
    }

    #[inline(always)]
    fn get(&self, vpage: u64) -> Option<u32> {
        let levels = Self::levels(vpage);
        let top = *self.spine.get(levels as usize - 1)?;
        (0..levels).rev().try_fold(top, |node, level| {
            let entry = self.nodes[node as usize][Self::slot(vpage, level)];
            (entry != EMPTY).then_some(entry)
        })
    }

    fn push_node(&mut self) -> u32 {
        let index = u32::try_from(self.nodes.len()).expect("page table node index fits a slot");
        self.nodes.push(Box::new([EMPTY; SLOTS]));
        index
    }

    /// Maps `vpage`, which is not mapped, to `frame`. The table grows a
    /// root a level until it covers `vpage`, each new root holding the
    /// old one at its slot 0.
    fn insert(&mut self, vpage: u64, frame: u32) {
        let levels = Self::levels(vpage);
        while self.spine.len() < levels as usize {
            let root = self.push_node();
            if let Some(&old_root) = self.spine.last() {
                self.nodes[root as usize][0] = old_root;
            }
            self.spine.push(root);
        }
        let mut node = self.spine[levels as usize - 1] as usize;
        for level in (1..levels).rev() {
            let slot = Self::slot(vpage, level);
            if self.nodes[node][slot] == EMPTY {
                self.nodes[node][slot] = self.push_node();
            }
            node = self.nodes[node][slot] as usize;
        }
        self.nodes[node][Self::slot(vpage, 0)] = frame;
        self.pages += 1;
    }

    /// Empties the table, handing every mapped frame number to `free` in
    /// ascending page order.
    fn drain(&mut self, free: &mut impl FnMut(u32)) {
        if let Some(&root) = self.spine.last() {
            self.visit(root, self.spine.len() as u32 - 1, free);
        }
        *self = PageTable::default();
    }

    fn visit(&self, node: u32, level: u32, free: &mut impl FnMut(u32)) {
        for slot in 0..SLOTS {
            match self.nodes[node as usize][slot] {
                EMPTY => {}
                frame if level == 0 => free(frame),
                child => self.visit(child, level - 1, free),
            }
        }
    }
}

/// No virtual page has this number: page numbers are addresses shifted
/// right by at least 12 bits.
const NO_PAGE: u64 = u64::MAX;

/// Demand-paged virtual address space.
#[derive(Debug)]
pub struct PageMapper {
    page_size: PageSize,
    table: PageTable,
    // The previous translation. Sequential streams stay on a page for 64
    // references and think-time filler never leaves one, so most
    // translations repeat the last and skip the table.
    last_vpage: u64,
    last_base: PhysAddr,
}

impl PageMapper {
    /// Creates an empty address space using pages of `page_size`.
    pub fn new(page_size: PageSize) -> Self {
        PageMapper {
            page_size,
            table: PageTable::default(),
            last_vpage: NO_PAGE,
            last_base: PhysAddr(0),
        }
    }

    /// The mapper's page size.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Number of pages currently mapped.
    pub fn mapped_pages(&self) -> usize {
        self.table.pages
    }

    /// Translates `vaddr`, allocating a frame on first touch.
    ///
    /// Returns `None` only when the physical pool is exhausted.
    pub fn translate(&mut self, vaddr: VirtAddr, frames: &mut FrameAllocator) -> Option<PhysAddr> {
        self.translate_colored(vaddr, frames, None)
    }

    /// Translates `vaddr`, demand-allocating only frames whose color is
    /// permitted by `colors` (OS page coloring).
    pub fn translate_colored(
        &mut self,
        vaddr: VirtAddr,
        frames: &mut FrameAllocator,
        colors: Option<&ColorSet>,
    ) -> Option<PhysAddr> {
        self.translate_or(vaddr, |size| frames.allocate_colored(size, colors))
    }

    /// Like [`PageMapper::translate`], but demand allocation draws frame
    /// placement randomness from `rng` (the owning VM's private stream)
    /// instead of the allocator's shared one.
    #[inline]
    pub fn translate_with(
        &mut self,
        vaddr: VirtAddr,
        frames: &mut FrameAllocator,
        rng: &mut SmallRng,
    ) -> Option<PhysAddr> {
        self.translate_or(vaddr, |size| frames.allocate_colored_with(size, None, rng))
    }

    /// Translates `vaddr`, mapping its page with `allocate` on first touch.
    /// A repeat of the previous page never reaches the table, so it never
    /// allocates and the order of placement draws is the table's alone.
    #[inline(always)]
    fn translate_or(
        &mut self,
        vaddr: VirtAddr,
        allocate: impl FnOnce(PageSize) -> Option<PhysAddr>,
    ) -> Option<PhysAddr> {
        let shift = self.page_size.shift();
        let vpage = vaddr.page_number(shift);
        if vpage != self.last_vpage {
            let frame = match self.table.get(vpage) {
                Some(frame) => frame,
                None => {
                    let base = allocate(self.page_size)?;
                    let frame = u32::try_from(base.0 >> PageSize::Small.shift())
                        .expect("FrameAllocator::new keeps frame numbers below u32::MAX");
                    self.table.insert(vpage, frame);
                    frame
                }
            };
            self.last_base = PhysAddr(u64::from(frame) << PageSize::Small.shift());
            self.last_vpage = vpage;
        }
        Some(PhysAddr(self.last_base.0 + vaddr.page_offset(shift)))
    }

    /// Unmaps everything, returning the frames to `frames`.
    pub fn clear(&mut self, frames: &mut FrameAllocator) {
        let (size, shift) = (self.page_size, PageSize::Small.shift());
        self.table
            .drain(&mut |frame| frames.free(PhysAddr(u64::from(frame) << shift), size));
        self.last_vpage = NO_PAGE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(policy: FramePolicy) -> FrameAllocator {
        FrameAllocator::new(64 * 1024 * 1024, policy, 42)
    }

    #[test]
    fn page_size_arithmetic() {
        assert_eq!(PageSize::Small.bytes(), 4096);
        assert_eq!(PageSize::Huge.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Huge.small_frames(), 512);
    }

    #[test]
    fn contiguous_allocation_is_sequential() {
        let mut a = pool(FramePolicy::Contiguous);
        let p0 = a.allocate_colored(PageSize::Small, None).unwrap();
        let p1 = a.allocate_colored(PageSize::Small, None).unwrap();
        assert_eq!(p1.0, p0.0 + 4096);
    }

    #[test]
    fn randomized_allocation_scatters() {
        let mut a = pool(FramePolicy::Randomized);
        let addrs: Vec<u64> = (0..16)
            .map(|_| a.allocate_colored(PageSize::Small, None).unwrap().0)
            .collect();
        let sequential = addrs.windows(2).all(|w| w[1] == w[0] + 4096);
        assert!(
            !sequential,
            "random placement should not be fully sequential"
        );
        // No duplicates.
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), addrs.len());
    }

    #[test]
    fn huge_pages_are_naturally_aligned() {
        let mut a = pool(FramePolicy::Randomized);
        for _ in 0..8 {
            let p = a.allocate_colored(PageSize::Huge, None).unwrap();
            assert_eq!(p.0 % PageSize::Huge.bytes(), 0);
        }
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let mut a = FrameAllocator::new(2 * 1024 * 1024, FramePolicy::Contiguous, 1);
        assert!(a.allocate_colored(PageSize::Huge, None).is_some());
        assert!(a.allocate_colored(PageSize::Huge, None).is_none());
        assert!(a.allocate_colored(PageSize::Small, None).is_none());
    }

    #[test]
    fn free_makes_frames_reusable() {
        let mut a = FrameAllocator::new(2 * 1024 * 1024, FramePolicy::Contiguous, 1);
        let p = a.allocate_colored(PageSize::Huge, None).unwrap();
        a.free(p, PageSize::Huge);
        assert!(a.allocate_colored(PageSize::Huge, None).is_some());
    }

    #[test]
    fn used_bytes_counts_each_frame_once() {
        let mut a = pool(FramePolicy::Contiguous);
        assert_eq!(a.used_bytes(), 0);
        let small = a.allocate_colored(PageSize::Small, None).unwrap();
        let huge = a.allocate_colored(PageSize::Huge, None).unwrap();
        assert_eq!(a.used_bytes(), 4096 + PageSize::Huge.bytes());
        a.free(small, PageSize::Small);
        a.free(small, PageSize::Small); // double free must not under-count
        assert_eq!(a.used_bytes(), PageSize::Huge.bytes());
        a.free(huge, PageSize::Huge);
        assert_eq!(a.used_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "fewer than u32::MAX 4 KiB frames")]
    fn a_pool_of_u32_max_frames_is_refused() {
        FrameAllocator::new(u64::from(u32::MAX) << 12, FramePolicy::Contiguous, 1);
    }

    #[test]
    fn translation_is_stable_and_offset_preserving() {
        let mut frames = pool(FramePolicy::Randomized);
        let mut m = PageMapper::new(PageSize::Small);
        let p1 = m.translate(VirtAddr(0x1234), &mut frames).unwrap();
        let p2 = m.translate(VirtAddr(0x1234), &mut frames).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.0 & 0xfff, 0x234);
        // Same page, different offset: same frame.
        let p3 = m.translate(VirtAddr(0x1000), &mut frames).unwrap();
        assert_eq!(p3.0 & !0xfff, p1.0 & !0xfff);
        assert_eq!(m.mapped_pages(), 1);
    }

    #[test]
    fn distinct_virtual_pages_get_distinct_frames() {
        let mut frames = pool(FramePolicy::Randomized);
        let mut m = PageMapper::new(PageSize::Small);
        let a = m.translate(VirtAddr(0), &mut frames).unwrap();
        let b = m.translate(VirtAddr(4096), &mut frames).unwrap();
        assert_ne!(a.0 >> 12, b.0 >> 12);
    }

    #[test]
    fn clear_returns_frames() {
        let mut frames = FrameAllocator::new(2 * 1024 * 1024, FramePolicy::Contiguous, 1);
        let mut m = PageMapper::new(PageSize::Small);
        for i in 0..512u64 {
            m.translate(VirtAddr(i * 4096), &mut frames).unwrap();
        }
        assert!(frames.allocate_colored(PageSize::Small, None).is_none());
        m.clear(&mut frames);
        assert_eq!(m.mapped_pages(), 0);
        assert!(frames.allocate_colored(PageSize::Small, None).is_some());
    }

    #[test]
    fn clear_forgets_the_last_translation() {
        let mut frames = pool(FramePolicy::Randomized);
        let mut m = PageMapper::new(PageSize::Small);
        let mut first_draw = SmallRng::seed_from_u64(1);
        let before = m
            .translate_with(VirtAddr(0x5040), &mut frames, &mut first_draw)
            .unwrap();
        m.clear(&mut frames);
        assert_eq!(frames.used_bytes(), 0);

        // The same page again, under a different placement draw: the
        // mapping must come from the allocator, not from the memo.
        let mut second_draw = SmallRng::seed_from_u64(2);
        let expected = pool(FramePolicy::Randomized)
            .allocate_colored_with(PageSize::Small, None, &mut second_draw.clone())
            .unwrap();
        let after = m
            .translate_with(VirtAddr(0x5040), &mut frames, &mut second_draw)
            .unwrap();
        assert_eq!(after.0, expected.0 + 0x40);
        assert_ne!(after, before, "seeds 1 and 2 place the page apart");
        assert_eq!(m.mapped_pages(), 1);
        assert_eq!(frames.used_bytes(), 4096);
    }

    #[test]
    fn last_translation_memo_never_shadows_the_table() {
        let mut frames = pool(FramePolicy::Randomized);
        let mut m = PageMapper::new(PageSize::Small);
        let a = m.translate(VirtAddr(0x1000), &mut frames).unwrap();
        let b = m.translate(VirtAddr(0x2008), &mut frames).unwrap();
        assert_ne!(a.0 >> 12, b.0 >> 12);
        // A after B: the memo holds B, the table answers.
        assert_eq!(m.translate(VirtAddr(0x1000), &mut frames), Some(a));
        // A after A: the memo answers, with the new offset.
        assert_eq!(
            m.translate(VirtAddr(0x1fc0), &mut frames),
            Some(PhysAddr(a.0 + 0xfc0))
        );
        assert_eq!(m.translate(VirtAddr(0x2008), &mut frames), Some(b));
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn external_rng_controls_random_placement() {
        // Two allocators with different internal seeds, driven by identical
        // external streams, must hand out identical frame sequences.
        let mut a = FrameAllocator::new(64 * 1024 * 1024, FramePolicy::Randomized, 1);
        let mut b = FrameAllocator::new(64 * 1024 * 1024, FramePolicy::Randomized, 2);
        let mut ra = SmallRng::seed_from_u64(99);
        let mut rb = SmallRng::seed_from_u64(99);
        for _ in 0..32 {
            let pa = a
                .allocate_colored_with(PageSize::Small, None, &mut ra)
                .unwrap();
            let pb = b
                .allocate_colored_with(PageSize::Small, None, &mut rb)
                .unwrap();
            assert_eq!(pa, pb);
        }
        // And the internal-stream path still works after external draws.
        assert!(a.allocate_colored(PageSize::Small, None).is_some());
    }

    #[test]
    fn translate_with_matches_per_stream_determinism() {
        let mut frames = pool(FramePolicy::Randomized);
        let mut m1 = PageMapper::new(PageSize::Small);
        let mut m2 = PageMapper::new(PageSize::Small);
        let mut r1 = SmallRng::seed_from_u64(7);
        let mut r2 = SmallRng::seed_from_u64(7);
        let mut frames2 = pool(FramePolicy::Randomized);
        for i in 0..16u64 {
            let p1 = m1
                .translate_with(VirtAddr(i * 4096), &mut frames, &mut r1)
                .unwrap();
            let p2 = m2
                .translate_with(VirtAddr(i * 4096), &mut frames2, &mut r2)
                .unwrap();
            assert_eq!(p1, p2);
        }
    }

    #[test]
    fn huge_page_interior_is_contiguous() {
        let mut frames = pool(FramePolicy::Randomized);
        let mut m = PageMapper::new(PageSize::Huge);
        let base = m.translate(VirtAddr(0), &mut frames).unwrap();
        let mid = m.translate(VirtAddr(1024 * 1024), &mut frames).unwrap();
        assert_eq!(mid.0, base.0 + 1024 * 1024);
    }
}
