//! A complete set-associative cache array with per-requestor fill masks.

use crate::address::LineAddr;
use crate::geometry::CacheGeometry;
use crate::replacement::ReplacementPolicy;
use crate::set::{block_len, Evicted, PackedSet, SetMut, SetPos, SetRef, INVALID_TAG, MAX_FILLERS};
use cbm::Cbm;

/// Whether an access hit or missed, and what the miss displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// The line was not resident; it has been filled, evicting `evicted`
    /// from the fill-mask partition if the partition was full.
    Miss {
        /// Line displaced by the fill, if any, with its filler and whether
        /// [`SetAssocCache::access_as`] saw another requestor hit it.
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
/// All sets live in three flat arrays — `ways` 16-bit tags per set in
/// `tags`, one `ways + 1` block of 16-bit words per set in `blocks` (a
/// filler·shared·stamp word per line and the set's stamp clock), one
/// occupancy word per set in `occ`: 4 bytes a line and 6 a set — and
/// every operation borrows one set's slice of each as a [`PackedSet`]. A
/// tag is `line / sets`: the set's index gives the rest of the line,
/// which is rebuilt only when the line leaves. The occupancy
/// words stay out of the blocks so the whole-cache sweeps
/// ([`SetAssocCache::drain_lines_in`], [`SetAssocCache::occupancy_in`])
/// read a dense `u32` array instead of striding a block per set.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    tags: Vec<u16>,
    blocks: Vec<u16>,
    occ: Vec<u32>,
    // `2^64 / sets` rounded up, for the multiply-shift remainder and
    // quotient of a line that fits `u32`; 0 when `sets` is a power of two
    // (mask and shift path).
    index_magic: u64,
    // Cheap xorshift state for Random victims / BIP insertion draws;
    // deterministic so simulations are reproducible.
    draw_state: u64,
    // Resident lines per filling owner, kept in step with every fill,
    // eviction, invalidation and flush so CMT-style occupancy reads are
    // O(1); `PackedSet::occupancy_of` is the scan it must always equal.
    owner_lines: [u64; MAX_FILLERS as usize],
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
            tags: vec![0; sets * geometry.ways as usize],
            blocks: vec![0; sets * block_len(geometry.ways)],
            occ: vec![0; sets],
            index_magic: if geometry.sets.is_power_of_two() {
                0
            } else {
                u64::MAX / u64::from(geometry.sets) + 1
            },
            draw_state: 0x9E37_79B9_7F4A_7C15,
            owner_lines: [0; MAX_FILLERS as usize],
        };
        assert_eq!(
            cache.set(0).way_count(),
            geometry.ways,
            "a set is a 16-bit tag a way, and a meta word a way and its clock"
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
    /// `u16::MAX`: no such line can be stored ([`SetAssocCache::line_limit`]).
    #[inline(always)]
    fn tag_of(&self, line: LineAddr) -> Option<u16> {
        let sets = u64::from(self.geometry.sets);
        let tag = if self.index_magic == 0 {
            line.0 >> sets.trailing_zeros()
        } else if line.0 <= u64::from(u32::MAX) {
            ((u128::from(self.index_magic) * u128::from(line.0)) >> 64) as u64
        } else {
            line.0 / sets
        };
        u16::try_from(tag).ok().filter(|&tag| tag != INVALID_TAG)
    }

    /// The tag of a line being accessed.
    ///
    /// # Panics
    ///
    /// Panics if the line is at or past [`SetAssocCache::line_limit`].
    #[inline(always)]
    fn access_tag(&self, line: LineAddr) -> u16 {
        self.tag_of(line).expect("line beyond the 16-bit tag field")
    }

    /// Lines this cache can hold: every line below `u16::MAX × sets`
    /// (65 535 × sets), whose tag stays below the empty-way sentinel.
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

    /// Where set `idx`'s tags sit in `tags`.
    #[inline(always)]
    fn tags_of(&self, idx: u32) -> std::ops::Range<usize> {
        let stride = self.geometry.ways as usize;
        let start = idx as usize * stride;
        start..start + stride
    }

    /// Where set `idx`'s block sits in `blocks`.
    #[inline(always)]
    fn block_of(&self, idx: u32) -> std::ops::Range<usize> {
        let stride = block_len(self.geometry.ways);
        let start = idx as usize * stride;
        start..start + stride
    }

    /// Mutable view of set `idx`.
    #[inline(always)]
    fn set_mut(&mut self, idx: u32) -> SetMut<'_> {
        let (tags, block, pos) = (self.tags_of(idx), self.block_of(idx), self.pos(idx));
        PackedSet::over(
            &mut self.occ[idx as usize],
            &mut self.tags[tags],
            &mut self.blocks[block],
            pos,
        )
    }

    /// Read-only view of set `index` (for occupancy statistics).
    #[inline]
    pub fn set(&self, index: u32) -> SetRef<'_> {
        PackedSet::over(
            self.occ[index as usize],
            &self.tags[self.tags_of(index)],
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

    /// Performs an access attributed to requestor `owner` (a core id),
    /// tagging any filled line for occupancy monitoring — the simulator's
    /// analogue of Intel CMT's RMID tagging — and marking a line it hits
    /// shared unless `owner` filled it.
    ///
    /// # Panics
    ///
    /// Panics if `owner >= MAX_FILLERS` (32).
    pub fn access_as(&mut self, line: LineAddr, mask: Cbm, owner: u32) -> AccessOutcome {
        self.access_as_at(self.set_index(line), line, mask, owner)
    }

    /// [`SetAssocCache::access_as`] for a caller that already holds
    /// `idx = self.set_index(line)`.
    #[inline]
    pub fn access_as_at(
        &mut self,
        idx: u32,
        line: LineAddr,
        mask: Cbm,
        owner: u32,
    ) -> AccessOutcome {
        assert!(owner < MAX_FILLERS, "requestor id beyond the filler id");
        debug_assert_eq!(idx, self.geometry.set_index(line));
        let tag = self.access_tag(line);
        let draw = self.next_draw();
        let policy = self.policy;
        let mut set = self.set_mut(idx);
        let now = set.tick();
        if let Some(way) = set.lookup_tag(tag, now, policy) {
            set.note_hit(way, owner);
            return AccessOutcome::Hit;
        }
        let filled = set.fill_tag(tag, mask, now, owner, policy, draw);
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

    /// Bytes of tag store behind the cache (the tags, the meta blocks and
    /// the occupancy words; `4 × ways + 6` a set): what the simulating
    /// machine must keep close for a set walk not to wait on its memory.
    pub fn tag_store_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.tags.as_slice())
            + std::mem::size_of_val(self.blocks.as_slice())
            + std::mem::size_of_val(self.occ.as_slice())) as u64
    }

    /// Hints the host to fetch set `idx`'s tags and block, one hint per 64
    /// bytes of each (a run need not start on a host line: the stride
    /// covers every line it spans but possibly the last, which its final
    /// word names). Changes nothing simulated — it cannot, through `&self`.
    #[inline]
    pub fn prefetch_set(&self, idx: u32) {
        // Plain loops on purpose: `iter().step_by(..).chain(last)` compiled
        // to a per-word state machine that gave back a third of the gain.
        #[inline(always)]
        fn hint_run<W>(run: &[W]) {
            for line in run.chunks(64 / std::mem::size_of::<W>()) {
                crate::hint::prefetch_read(&line[0]);
            }
            if let Some(last) = run.last() {
                crate::hint::prefetch_read(last);
            }
        }
        hint_run(&self.tags[self.tags_of(idx)]);
        hint_run(&self.blocks[self.block_of(idx)]);
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
        self.owner_lines = [0; MAX_FILLERS as usize];
    }

    /// Total resident lines.
    pub fn occupancy(&self) -> u64 {
        self.occ.iter().map(|o| u64::from(o.count_ones())).sum()
    }

    /// Resident lines within the ways permitted by `mask`, across all sets.
    pub fn occupancy_in(&self, mask: Cbm) -> u64 {
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
    pub fn drain_lines_in(&mut self, mask: Cbm, mut on_drop: impl FnMut(Evicted)) -> u64 {
        let ways = self.geometry.ways as usize;
        let sets = self.geometry.sets;
        let owner_lines = &mut self.owner_lines;
        let mut dropped = 0;
        for (index, ((occ, tags), block)) in (0..).zip(
            self.occ
                .iter_mut()
                .zip(self.tags.chunks_exact_mut(ways))
                .zip(self.blocks.chunks_exact_mut(block_len(ways as u32))),
        ) {
            let pos = SetPos { index, sets };
            PackedSet::over(occ, tags, block, pos).drain_lines_in(mask, |gone| {
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
    fn miss_then_hit() {
        let mut c = small();
        let mask = Cbm::full(4);
        assert!(!c.access_as(LineAddr(1), mask, 0).is_hit());
        assert!(c.access_as(LineAddr(1), mask, 0).is_hit());
    }

    #[test]
    fn capacity_eviction_within_partition() {
        let mut c = small();
        let mask = Cbm::from_way_range(0, 1);
        // Two lines mapping to the same set with a 1-way partition thrash.
        let a = LineAddr(0);
        let b = LineAddr(16); // same set (16 sets)
        assert!(!c.access_as(a, mask, 0).is_hit());
        match c.access_as(b, mask, 0) {
            AccessOutcome::Miss { evicted } => assert_eq!(evicted.map(|e| e.line), Some(a)),
            AccessOutcome::Hit => panic!("expected miss"),
        }
        assert!(!c.probe(a));
    }

    #[test]
    fn occupancy_never_exceeds_partition_capacity() {
        let mut c = small();
        let mask = Cbm::from_way_range(1, 2);
        for i in 0..1000u64 {
            c.access_as(LineAddr(i), mask, 0);
        }
        // 16 sets x 2 permitted ways.
        assert!(c.occupancy_in(mask) <= 32);
        assert_eq!(c.occupancy(), c.occupancy_in(mask));
    }

    #[test]
    fn occupancy_attributed_to_filling_owner() {
        let mut c = small();
        let mask = Cbm::full(4);
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
        let low = Cbm::from_way_range(0, 2);
        let high = Cbm::from_way_range(2, 2);
        c.access_as(LineAddr(1), low, 0);
        c.access_as(LineAddr(2), high, 0);
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
        let low = Cbm::from_way_range(0, 2);
        for i in 0..200u64 {
            // Evictions across owners: 3 owners thrash a 2-way partition.
            c.access_as(LineAddr(i % 70), low, (i % 3) as u32);
        }
        c.invalidate(LineAddr(69));
        c.access_as(LineAddr(1000), Cbm::full(4), 0);
        for owner in 0..4 {
            assert_eq!(c.occupancy_of(owner), scanned_occupancy_of(&c, owner));
        }
        c.drain_lines_in(Cbm::from_way_range(0, 1), |_| {});
        for owner in 0..4 {
            assert_eq!(c.occupancy_of(owner), scanned_occupancy_of(&c, owner));
        }
        c.flush();
        assert_eq!((0..4).map(|o| c.occupancy_of(o)).sum::<u64>(), 0);
    }

    #[test]
    fn access_as_records_sharers_on_fill_and_on_hit() {
        let mut c = SetAssocCache::new(CacheGeometry::new(1, 1, 64));
        let mask = Cbm::full(1);
        let evicted = |c: &mut SetAssocCache, line, owner| match c.access_as(line, mask, owner) {
            AccessOutcome::Miss {
                evicted: Some(gone),
            } => (gone.line, gone.owner, gone.shared),
            other => panic!("expected an evicting miss, got {other:?}"),
        };
        // The fill names its filler; the filler's own hit shares nothing.
        c.access_as(LineAddr(1), mask, 3);
        c.access_as(LineAddr(1), mask, 3);
        assert_eq!(evicted(&mut c, LineAddr(2), 0), (LineAddr(1), 3, false));
        // Another requestor's hit marks the line shared.
        c.access_as(LineAddr(2), mask, 9);
        assert_eq!(evicted(&mut c, LineAddr(3), 31), (LineAddr(2), 0, true));
        assert_eq!(c.occupancy_of(31), 1);
    }

    #[test]
    fn bip_resists_a_scan() {
        // Working set of 4 lines in a 1-set, 8-way cache, then a long
        // scan. Under LRU the scan evicts the working set; under BIP the
        // scan inserts at LRU position and mostly evicts itself.
        let geometry = CacheGeometry::new(1, 8, 64);
        let run = |policy: crate::ReplacementPolicy| -> usize {
            let mut c = SetAssocCache::with_policy(geometry, policy);
            let mask = Cbm::full(8);
            for round in 0..4 {
                for line in 0..4u64 {
                    c.access_as(LineAddr(line), mask, 0);
                }
                let _ = round;
            }
            // A scan of 64 distinct lines.
            for line in 100..164u64 {
                c.access_as(LineAddr(line), mask, 0);
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
        let mask = Cbm::full(2);
        c.access_as(LineAddr(1), mask, 0);
        c.access_as(LineAddr(2), mask, 0);
        // Re-touch line 1; under FIFO that does not save it.
        c.access_as(LineAddr(1), mask, 0);
        c.access_as(LineAddr(3), mask, 0);
        assert!(!c.probe(LineAddr(1)), "FIFO evicts the oldest insert");
        assert!(c.probe(LineAddr(2)));
    }

    #[test]
    fn random_policy_stays_within_partition() {
        let geometry = CacheGeometry::new(4, 8, 64);
        let mut c = SetAssocCache::with_policy(geometry, crate::ReplacementPolicy::Random);
        let mask = Cbm::from_way_range(2, 3);
        for line in 0..500u64 {
            c.access_as(LineAddr(line), mask, 0);
        }
        assert_eq!(c.occupancy(), c.occupancy_in(mask));
        assert!(c.occupancy_in(mask) <= 12);
    }

    /// The last tag below the sentinel is stored and rebuilt whole on a
    /// set count the reciprocal divides by; the sentinel's own lines are
    /// refused, never taken for an empty way.
    #[test]
    #[should_panic(expected = "line beyond the 16-bit tag field")]
    fn the_last_tag_fits_and_the_sentinel_is_refused() {
        let sets = 3u64;
        let mut c = SetAssocCache::new(CacheGeometry::new(3, 2, 64));
        assert_eq!(c.line_limit(), 65_535 * sets);
        // Empty ways and full ones alike: a line whose tag is the sentinel
        // is not resident, and nothing to drop.
        let refused = |c: &mut SetAssocCache| {
            for i in 0..sets {
                let beyond = LineAddr(65_535 * sets + i);
                assert!(!c.probe(beyond));
                assert!(!c.invalidate(beyond));
            }
        };
        refused(&mut c);
        let mask = Cbm::full(2);
        for i in 0..sets {
            let top = LineAddr(65_534 * sets + i);
            assert!(!c.access_as(top, mask, 1).is_hit());
            assert!(c.probe(top));
            c.access_as(LineAddr(i), mask, 0);
            match c.access_as(LineAddr(sets + i), mask, 0) {
                AccessOutcome::Miss {
                    evicted: Some(gone),
                } => assert_eq!((gone.line, gone.owner), (top, 1)),
                other => panic!("expected {top:?} to leave, got {other:?}"),
            }
        }
        refused(&mut c);
        assert_eq!(c.occupancy(), 2 * sets);
        c.access_as(LineAddr(65_535 * sets), mask, 0);
    }

    #[test]
    fn flush_resets_occupancy() {
        let mut c = small();
        for i in 0..50u64 {
            c.access_as(LineAddr(i), Cbm::full(4), 0);
        }
        assert!(c.occupancy() > 0);
        c.flush();
        assert_eq!(c.occupancy(), 0);
    }
}
