//! A complete set-associative cache array with per-requestor fill masks.

use crate::address::LineAddr;
use crate::geometry::CacheGeometry;
use crate::replacement::ReplacementPolicy;
use crate::set::{
    Evicted, PackedSet, SetMut, SetPos, SetRef, INVALID_TAG, MAX_SHARERS, MAX_STAMP, WORDS_PER_LINE,
};

/// A bitmask over cache ways, mirroring a CAT capacity bitmask (CBM).
///
/// Bit `i` set means way `i` may be *filled* by the holder of the mask.
/// Lookups are never masked — CAT restricts allocation, not hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMask(pub u32);

impl WayMask {
    /// A mask permitting every way of a cache with `ways` ways.
    #[inline]
    pub fn all(ways: u32) -> Self {
        debug_assert!((1..=32).contains(&ways));
        if ways == 32 {
            WayMask(u32::MAX)
        } else {
            WayMask((1u32 << ways) - 1)
        }
    }

    /// A contiguous mask of `count` ways starting at way `start`.
    #[inline]
    pub fn from_way_range(start: u32, count: u32) -> Self {
        debug_assert!(start + count <= 32);
        if count == 0 {
            return WayMask(0);
        }
        let bits = if count == 32 {
            u32::MAX
        } else {
            (1u32 << count) - 1
        };
        WayMask(bits << start)
    }

    /// Whether way `way` is permitted.
    #[inline]
    pub fn contains(self, way: u32) -> bool {
        way < 32 && self.0 & (1 << way) != 0
    }

    /// Number of permitted ways.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether no way is permitted.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether the set bits form one contiguous run (an Intel CAT
    /// requirement for capacity bitmasks).
    pub fn is_contiguous(self) -> bool {
        if self.0 == 0 {
            return false;
        }
        let shifted = u64::from(self.0 >> self.0.trailing_zeros());
        (shifted & (shifted + 1)) == 0
    }

    /// Whether the two masks share any way.
    #[inline]
    pub fn overlaps(self, other: WayMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Iterates over the permitted way indices in ascending order.
    pub fn ways(self) -> impl Iterator<Item = u32> {
        (0..32).filter(move |w| self.contains(*w))
    }
}

/// Whether an access hit or missed, and what the miss displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// The line was not resident; it has been filled, evicting `evicted`
    /// from the fill-mask partition if the partition was full.
    Miss {
        /// Line displaced by the fill, if any, with its filler and the
        /// sharers [`SetAssocCache::access_as`] recorded on it.
        evicted: Option<Evicted>,
    },
}

impl AccessOutcome {
    /// Convenience predicate.
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// A set-associative cache indexed by physical line address.
///
/// All sets live in two flat arrays — one `3 × ways` block per set in
/// `blocks` (a tag, an owner·stamp word and a sharer mask per line, 12
/// bytes), one occupancy word per set in `occ` — and every operation
/// borrows one set's slice of each as a [`PackedSet`]. A tag is
/// `line / sets`: the set's index gives the rest of the line, which is
/// rebuilt only when the line leaves. The occupancy
/// words stay out of the blocks so the whole-cache sweeps
/// ([`SetAssocCache::drain_lines_in`], [`SetAssocCache::occupancy_in`])
/// read a dense `u32` array instead of striding a block per set.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    blocks: Vec<u32>,
    occ: Vec<u32>,
    // `2^64 / sets` rounded up, for the multiply-shift remainder and
    // quotient of a line that fits `u32`; 0 when `sets` is a power of two
    // (mask and shift path).
    index_magic: u64,
    // The last stamp handed out; never above `MAX_STAMP` (`tick`).
    clock: u64,
    // Cheap xorshift state for Random victims / BIP insertion draws;
    // deterministic so simulations are reproducible.
    draw_state: u64,
    // Resident lines per filling owner, kept in step with every fill,
    // eviction, invalidation and flush so CMT-style occupancy reads are
    // O(1); `PackedSet::occupancy_of` is the scan it must always equal.
    owner_lines: [u64; MAX_SHARERS as usize],
}

impl SetAssocCache {
    /// Creates an empty LRU cache of the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        SetAssocCache::with_policy(geometry, ReplacementPolicy::Lru)
    }

    /// Creates an empty cache using `policy` for replacement/insertion.
    pub fn with_policy(geometry: CacheGeometry, policy: ReplacementPolicy) -> Self {
        let sets = geometry.sets as usize;
        let mut cache = SetAssocCache {
            geometry,
            policy,
            blocks: vec![0; sets * WORDS_PER_LINE * geometry.ways as usize],
            occ: vec![0; sets],
            index_magic: if geometry.sets.is_power_of_two() {
                0
            } else {
                u64::MAX / u64::from(geometry.sets) + 1
            },
            clock: 0,
            draw_state: 0x9E37_79B9_7F4A_7C15,
            owner_lines: [0; MAX_SHARERS as usize],
        };
        assert_eq!(
            cache.set(0).way_count(),
            geometry.ways,
            "a set's block is three words a line"
        );
        cache.flush();
        cache
    }

    /// The cache's shape.
    #[inline]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The cache's replacement policy.
    #[inline]
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// The set `line` maps to: [`CacheGeometry::set_index`] (`line % sets`)
    /// with no division for a line number that fits `u32`. Power-of-two
    /// set counts mask; any other takes Lemire's multiply-shift remainder
    /// with the reciprocal computed at construction — `M = ⌈2^64 / sets⌉`,
    /// `line % sets = (((M · line) mod 2^64) · sets) >> 64`, exact for
    /// every 32-bit `line` and `sets`. Wider lines keep the `u64` remainder.
    #[inline(always)]
    pub fn set_index(&self, line: LineAddr) -> u32 {
        let sets = u64::from(self.geometry.sets);
        if self.index_magic == 0 {
            (line.0 & (sets - 1)) as u32
        } else if line.0 <= u64::from(u32::MAX) {
            let low = self.index_magic.wrapping_mul(line.0);
            ((u128::from(low) * u128::from(sets)) >> 64) as u32
        } else {
            (line.0 % sets) as u32
        }
    }

    /// `line`'s tag, `line / sets`, by the same reciprocal as
    /// [`SetAssocCache::set_index`]: Lemire's multiply-shift quotient
    /// (the high word of `M · line`, exact for every 32-bit `line`), a
    /// shift for power-of-two set counts, the `u64` quotient for wider
    /// lines. `None` once the tag reaches the empty-way sentinel,
    /// `u32::MAX`: no such line can be stored ([`SetAssocCache::line_limit`]).
    #[inline(always)]
    fn tag_of(&self, line: LineAddr) -> Option<u32> {
        let sets = u64::from(self.geometry.sets);
        let tag = if self.index_magic == 0 {
            line.0 >> sets.trailing_zeros()
        } else if line.0 <= u64::from(u32::MAX) {
            ((u128::from(self.index_magic) * u128::from(line.0)) >> 64) as u64
        } else {
            line.0 / sets
        };
        u32::try_from(tag).ok().filter(|&tag| tag != INVALID_TAG)
    }

    /// The tag of a line being accessed.
    ///
    /// # Panics
    ///
    /// Panics if the line is at or past [`SetAssocCache::line_limit`].
    #[inline(always)]
    fn access_tag(&self, line: LineAddr) -> u32 {
        self.tag_of(line).expect("line beyond the 32-bit tag field")
    }

    /// Lines this cache can hold: every line below `u32::MAX × sets`,
    /// whose tag stays below the empty-way sentinel.
    pub fn line_limit(&self) -> u64 {
        u64::from(INVALID_TAG) * u64::from(self.geometry.sets)
    }

    /// Where set `idx` sits, for its view.
    #[inline(always)]
    fn pos(&self, idx: u32) -> SetPos {
        SetPos {
            index: idx,
            sets: self.geometry.sets,
        }
    }

    /// Where set `idx`'s block sits in `blocks`.
    #[inline(always)]
    fn block_of(&self, idx: u32) -> std::ops::Range<usize> {
        let stride = WORDS_PER_LINE * self.geometry.ways as usize;
        let start = idx as usize * stride;
        start..start + stride
    }

    /// Mutable view of set `idx`.
    #[inline(always)]
    fn set_mut(&mut self, idx: u32) -> SetMut<'_> {
        let (block, pos) = (self.block_of(idx), self.pos(idx));
        PackedSet::over(&mut self.occ[idx as usize], &mut self.blocks[block], pos)
    }

    /// Read-only view of set `index` (for occupancy statistics).
    #[inline]
    pub fn set(&self, index: u32) -> SetRef<'_> {
        PackedSet::over(
            self.occ[index as usize],
            &self.blocks[self.block_of(index)],
            self.pos(index),
        )
    }

    /// Next pseudo-random draw (xorshift64*) for the policies that read
    /// one; LRU and FIFO never observe the stream, so it stays put.
    #[inline]
    fn next_draw(&mut self) -> u64 {
        if !self.policy.uses_draw() {
            return 0;
        }
        let mut x = self.draw_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.draw_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The stamp of the next access. A set stores 27 bits of it and only
    /// ever compares stamps of one set, so when the clock has reached
    /// [`MAX_STAMP`] every set's stamps are first rewritten as their ranks
    /// ([`PackedSet::renormalise_stamps`]) and the clock restarts just above
    /// the largest rank a set can hold: every stamp handed out from here
    /// on is newer than every stamp stored, as it would be on a clock that
    /// never wrapped, and every victim scan picks the way it would have.
    #[inline(always)]
    fn tick(&mut self) -> u64 {
        if self.clock == MAX_STAMP {
            self.renormalise_stamps();
        }
        self.clock += 1;
        self.clock
    }

    /// One sweep of the tag store, once per `MAX_STAMP` accesses.
    #[cold]
    fn renormalise_stamps(&mut self) {
        for idx in 0..self.geometry.sets {
            self.set_mut(idx).renormalise_stamps();
        }
        self.clock = u64::from(self.geometry.ways);
    }

    /// Moves the clock forward to `clock` without the accesses in between
    /// (unobservable: stamps only order accesses), so a test or a bench
    /// case can stand just short of a renormalisation.
    ///
    /// # Panics
    ///
    /// Panics if `clock` is behind the cache's clock or beyond [`MAX_STAMP`].
    #[doc(hidden)]
    pub fn skip_clock_to(&mut self, clock: u64) {
        assert!(
            (self.clock..=MAX_STAMP).contains(&clock),
            "the clock only moves forward, and not past MAX_STAMP"
        );
        self.clock = clock;
    }

    /// Performs an access with the given fill mask, as requestor 0 and
    /// without sharer tracking.
    ///
    /// On a miss the line is filled into a way permitted by `mask`.
    #[inline]
    pub fn access(&mut self, line: LineAddr, mask: WayMask) -> AccessOutcome {
        let (idx, tag) = (self.set_index(line), self.access_tag(line));
        let now = self.tick();
        let draw = self.next_draw();
        let policy = self.policy;
        let mut set = self.set_mut(idx);
        if set.lookup_tag(tag, now, policy).is_some() {
            return AccessOutcome::Hit;
        }
        let filled = set.fill_tag(tag, mask, now, 0, policy, draw);
        self.count_fill(0, filled.evicted);
        AccessOutcome::Miss {
            evicted: filled.evicted,
        }
    }

    /// Performs an access attributed to requestor `owner` (a core id),
    /// tagging any filled line for occupancy monitoring — the simulator's
    /// analogue of Intel CMT's RMID tagging — and recording `owner` as a
    /// sharer of the line on a hit as well as on a fill.
    ///
    /// # Panics
    ///
    /// Panics if `owner >= MAX_SHARERS` (32).
    pub fn access_as(&mut self, line: LineAddr, mask: WayMask, owner: u32) -> AccessOutcome {
        self.access_as_at(self.set_index(line), line, mask, owner)
    }

    /// [`SetAssocCache::access_as`] for a caller that already holds
    /// `idx = self.set_index(line)`.
    #[inline]
    pub fn access_as_at(
        &mut self,
        idx: u32,
        line: LineAddr,
        mask: WayMask,
        owner: u32,
    ) -> AccessOutcome {
        assert!(owner < MAX_SHARERS, "requestor id beyond the sharer mask");
        debug_assert_eq!(idx, self.geometry.set_index(line));
        let tag = self.access_tag(line);
        let now = self.tick();
        let draw = self.next_draw();
        let policy = self.policy;
        let mut set = self.set_mut(idx);
        if let Some(way) = set.lookup_tag(tag, now, policy) {
            set.add_sharer(way, owner);
            return AccessOutcome::Hit;
        }
        let filled = set.fill_tag(tag, mask, now, owner, policy, draw);
        set.add_sharer(filled.way, owner);
        self.count_fill(owner, filled.evicted);
        AccessOutcome::Miss {
            evicted: filled.evicted,
        }
    }

    /// Keeps the per-owner line counts in step with one fill.
    #[inline]
    fn count_fill(&mut self, owner: u32, evicted: Option<Evicted>) {
        self.owner_lines[owner as usize] += 1;
        if let Some(gone) = evicted {
            self.owner_lines[gone.owner as usize] -= 1;
        }
    }

    /// Bytes of tag store behind the cache (the blocks and the occupancy
    /// words): what the simulating machine must keep close for a set walk
    /// not to wait on its memory.
    pub fn tag_store_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.blocks.as_slice()) + std::mem::size_of_val(self.occ.as_slice()))
            as u64
    }

    /// Hints the host to fetch set `idx`'s block, one hint per 64 bytes
    /// (the block need not start on a host line: the stride covers every
    /// line it spans but possibly the last, which the final word names).
    /// Changes nothing simulated — it cannot, through `&self`.
    #[inline]
    pub fn prefetch_set(&self, idx: u32) {
        const WORDS_PER_HOST_LINE: usize = 64 / std::mem::size_of::<u32>();
        let block = &self.blocks[self.block_of(idx)];
        // Plain loops on purpose: `iter().step_by(..).chain(last)` compiled
        // to a per-word state machine that gave back a third of the gain.
        for line in block.chunks(WORDS_PER_HOST_LINE) {
            crate::hint::prefetch_read(&line[0]);
        }
        if let Some(last) = block.last() {
            crate::hint::prefetch_read(last);
        }
    }

    /// Checks residency without updating replacement state.
    pub fn probe(&self, line: LineAddr) -> bool {
        self.tag_of(line)
            .is_some_and(|tag| self.set(self.set_index(line)).probe_tag(tag).is_some())
    }

    /// Drops `line` if resident; returns whether it was.
    #[inline]
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let Some(tag) = self.tag_of(line) else {
            return false;
        };
        match self.set_mut(self.set_index(line)).remove_tag(tag) {
            Some(gone) => {
                self.owner_lines[gone.owner as usize] -= 1;
                true
            }
            None => false,
        }
    }

    /// Empties the whole cache.
    pub fn flush(&mut self) {
        for idx in 0..self.geometry.sets {
            self.set_mut(idx).flush();
        }
        self.owner_lines = [0; MAX_SHARERS as usize];
    }

    /// Total resident lines.
    pub fn occupancy(&self) -> u64 {
        self.occ.iter().map(|o| u64::from(o.count_ones())).sum()
    }

    /// Resident lines within the ways permitted by `mask`, across all sets.
    pub fn occupancy_in(&self, mask: WayMask) -> u64 {
        self.occ
            .iter()
            .map(|o| u64::from((o & mask.0).count_ones()))
            .sum()
    }

    /// Lines resident that were filled by `owner`, across all sets.
    pub fn occupancy_of(&self, owner: u32) -> u64 {
        self.owner_lines.get(owner as usize).copied().unwrap_or(0)
    }

    /// Invalidates every line in the ways permitted by `mask`, handing
    /// each to `on_drop` set by set as it goes, and returns how many were
    /// dropped. This models the paper's Section-6 observation that Intel
    /// has no instruction to clear a cache way, so operators run a
    /// user-level flush pass after reassigning ways.
    pub fn drain_lines_in(&mut self, mask: WayMask, mut on_drop: impl FnMut(Evicted)) -> u64 {
        let stride = WORDS_PER_LINE * self.geometry.ways as usize;
        let sets = self.geometry.sets;
        let owner_lines = &mut self.owner_lines;
        let mut dropped = 0;
        for (index, (occ, block)) in (0..).zip(
            self.occ
                .iter_mut()
                .zip(self.blocks.chunks_exact_mut(stride)),
        ) {
            let pos = SetPos { index, sets };
            PackedSet::over(occ, block, pos).drain_lines_in(mask, |gone| {
                owner_lines[gone.owner as usize] -= 1;
                dropped += 1;
                on_drop(gone);
            });
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        SetAssocCache::new(CacheGeometry::new(16, 4, 64))
    }

    #[test]
    fn way_mask_all_and_range() {
        assert_eq!(WayMask::all(4).0, 0b1111);
        assert_eq!(WayMask::all(32).0, u32::MAX);
        assert_eq!(WayMask::from_way_range(2, 3).0, 0b11100);
        assert_eq!(WayMask::from_way_range(0, 32).0, u32::MAX);
        assert_eq!(WayMask::from_way_range(5, 0).0, 0);
    }

    #[test]
    fn way_mask_contiguity() {
        assert!(WayMask(0b0110).is_contiguous());
        assert!(WayMask(0b1).is_contiguous());
        assert!(WayMask(u32::MAX).is_contiguous());
        assert!(!WayMask(0b0101).is_contiguous());
        assert!(!WayMask(0).is_contiguous());
    }

    #[test]
    fn way_mask_overlap_and_iteration() {
        let a = WayMask::from_way_range(0, 2);
        let b = WayMask::from_way_range(1, 2);
        let c = WayMask::from_way_range(2, 2);
        assert!(a.overlaps(b));
        assert!(!a.overlaps(c));
        assert_eq!(b.ways().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let mask = WayMask::all(4);
        assert!(!c.access(LineAddr(1), mask).is_hit());
        assert!(c.access(LineAddr(1), mask).is_hit());
    }

    #[test]
    fn capacity_eviction_within_partition() {
        let mut c = small();
        let mask = WayMask::from_way_range(0, 1);
        // Two lines mapping to the same set with a 1-way partition thrash.
        let a = LineAddr(0);
        let b = LineAddr(16); // same set (16 sets)
        assert!(!c.access(a, mask).is_hit());
        match c.access(b, mask) {
            AccessOutcome::Miss { evicted } => assert_eq!(evicted.map(|e| e.line), Some(a)),
            AccessOutcome::Hit => panic!("expected miss"),
        }
        assert!(!c.probe(a));
    }

    #[test]
    fn occupancy_never_exceeds_partition_capacity() {
        let mut c = small();
        let mask = WayMask::from_way_range(1, 2);
        for i in 0..1000u64 {
            c.access(LineAddr(i), mask);
        }
        // 16 sets x 2 permitted ways.
        assert!(c.occupancy_in(mask) <= 32);
        assert_eq!(c.occupancy(), c.occupancy_in(mask));
    }

    #[test]
    fn occupancy_attributed_to_filling_owner() {
        let mut c = small();
        let mask = WayMask::all(4);
        for i in 0..10u64 {
            c.access_as(LineAddr(i), mask, 1);
        }
        for i in 100..104u64 {
            c.access_as(LineAddr(i), mask, 2);
        }
        assert_eq!(c.occupancy_of(1), 10);
        assert_eq!(c.occupancy_of(2), 4);
        assert_eq!(c.occupancy_of(3), 0);
        // A hit by another owner does not re-attribute the line (CMT
        // attributes to the RMID that filled it).
        c.access_as(LineAddr(0), mask, 2);
        assert_eq!(c.occupancy_of(1), 10);
    }

    #[test]
    fn drain_lines_in_drops_only_masked_ways() {
        let mut c = small();
        let low = WayMask::from_way_range(0, 2);
        let high = WayMask::from_way_range(2, 2);
        c.access(LineAddr(1), low);
        c.access(LineAddr(2), high);
        let mut dropped = Vec::new();
        assert_eq!(c.drain_lines_in(low, |gone| dropped.push(gone.line)), 1);
        assert_eq!(dropped, vec![LineAddr(1)]);
        assert!(!c.probe(LineAddr(1)));
        assert!(c.probe(LineAddr(2)));
    }

    /// The per-set scan the owner counters must always equal.
    fn scanned_occupancy_of(c: &SetAssocCache, owner: u32) -> u64 {
        (0..c.geometry().sets)
            .map(|s| u64::from(c.set(s).occupancy_of(owner)))
            .sum()
    }

    #[test]
    fn owner_counters_follow_every_way_a_line_can_leave() {
        let mut c = small();
        let low = WayMask::from_way_range(0, 2);
        for i in 0..200u64 {
            // Evictions across owners: 3 owners thrash a 2-way partition.
            c.access_as(LineAddr(i % 70), low, (i % 3) as u32);
        }
        c.invalidate(LineAddr(69));
        c.access(LineAddr(1000), WayMask::all(4));
        for owner in 0..4 {
            assert_eq!(c.occupancy_of(owner), scanned_occupancy_of(&c, owner));
        }
        c.drain_lines_in(WayMask::from_way_range(0, 1), |_| {});
        for owner in 0..4 {
            assert_eq!(c.occupancy_of(owner), scanned_occupancy_of(&c, owner));
        }
        c.flush();
        assert_eq!((0..4).map(|o| c.occupancy_of(o)).sum::<u64>(), 0);
    }

    #[test]
    fn access_as_records_sharers_on_fill_and_on_hit() {
        let mut c = SetAssocCache::new(CacheGeometry::new(1, 1, 64));
        let mask = WayMask::all(1);
        c.access_as(LineAddr(1), mask, 3);
        c.access_as(LineAddr(1), mask, 9);
        match c.access_as(LineAddr(2), mask, 0) {
            AccessOutcome::Miss {
                evicted: Some(gone),
            } => {
                assert_eq!((gone.line, gone.owner), (LineAddr(1), 3));
                assert_eq!(gone.sharers, (1 << 3) | (1 << 9));
            }
            other => panic!("expected an evicting miss, got {other:?}"),
        }
    }

    #[test]
    fn bip_resists_a_scan() {
        // Working set of 4 lines in a 1-set, 8-way cache, then a long
        // scan. Under LRU the scan evicts the working set; under BIP the
        // scan inserts at LRU position and mostly evicts itself.
        let geometry = CacheGeometry::new(1, 8, 64);
        let run = |policy: crate::ReplacementPolicy| -> usize {
            let mut c = SetAssocCache::with_policy(geometry, policy);
            let mask = WayMask::all(8);
            for round in 0..4 {
                for line in 0..4u64 {
                    c.access(LineAddr(line), mask);
                }
                let _ = round;
            }
            // A scan of 64 distinct lines.
            for line in 100..164u64 {
                c.access(LineAddr(line), mask);
            }
            (0..4u64).filter(|l| c.probe(LineAddr(*l))).count()
        };
        let lru_survivors = run(crate::ReplacementPolicy::Lru);
        let bip_survivors = run(crate::ReplacementPolicy::bip());
        assert_eq!(
            lru_survivors, 0,
            "LRU must lose the working set to the scan"
        );
        assert!(
            bip_survivors >= 3,
            "BIP should keep the hot working set, kept {bip_survivors}"
        );
    }

    #[test]
    fn fifo_does_not_promote_on_hit() {
        let geometry = CacheGeometry::new(1, 2, 64);
        let mut c = SetAssocCache::with_policy(geometry, crate::ReplacementPolicy::Fifo);
        let mask = WayMask::all(2);
        c.access(LineAddr(1), mask);
        c.access(LineAddr(2), mask);
        // Re-touch line 1; under FIFO that does not save it.
        c.access(LineAddr(1), mask);
        c.access(LineAddr(3), mask);
        assert!(!c.probe(LineAddr(1)), "FIFO evicts the oldest insert");
        assert!(c.probe(LineAddr(2)));
    }

    #[test]
    fn random_policy_stays_within_partition() {
        let geometry = CacheGeometry::new(4, 8, 64);
        let mut c = SetAssocCache::with_policy(geometry, crate::ReplacementPolicy::Random);
        let mask = WayMask::from_way_range(2, 3);
        for line in 0..500u64 {
            c.access(LineAddr(line), mask);
        }
        assert_eq!(c.occupancy(), c.occupancy_in(mask));
        assert!(c.occupancy_in(mask) <= 12);
    }

    #[test]
    fn flush_resets_occupancy() {
        let mut c = small();
        for i in 0..50u64 {
            c.access(LineAddr(i), WayMask::all(4));
        }
        assert!(c.occupancy() > 0);
        c.flush();
        assert_eq!(c.occupancy(), 0);
    }
}
