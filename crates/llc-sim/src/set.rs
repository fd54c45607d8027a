//! A single cache set: tag store, LRU ordering, and mask-restricted fill.
//!
//! The set is the unit where CAT semantics live. A lookup may hit in *any*
//! way (CAT restricts allocation, not lookup), while a fill may only claim a
//! way permitted by the requesting core's fill mask, evicting the
//! least-recently-used line among the permitted ways when they are all
//! occupied.
//!
//! # Packed representation
//!
//! The set stores its state in a run of `u16` tags, a block of `u16`s and
//! a `u32` occupancy bitmask instead of a `Vec` of optional line records:
//!
//! ```text
//! occ:   u32 bitmask, bit w set = way w holds a valid line
//! tags:  [ tag_0 .. tag_{n-1} ]            (u16 each; empty slots hold
//!         INVALID_TAG so the lookup scan needs no per-way validity test)
//! meta:  [ meta_0 .. meta_{n-1} | clock ]  (u16 each)
//!         — 4 bytes a line, and a clock and an occupancy word a set
//! tag:   line / sets, the bits of the line its set's index does not give
//! meta:  [ filler id (15..11) | shared (10) | spare (9) | stamp (8..0) ]
//! clock: the last stamp the set handed out
//! ```
//!
//! A set knows its place in its cache (`SetPos`: its index and the
//! cache's set count), so a line that leaves it — evicted, removed,
//! drained or listed — is rebuilt as `tag × sets + index`. A standalone
//! [`CacheSet`] is a one-set cache: its tag is the line. A line whose tag
//! would reach `INVALID_TAG` cannot be stored; a fill of one panics (the
//! engine sizes physical memory so that none exists).
//!
//! [`PackedSet`] is that triple with the storage left open: a
//! [`CacheSet`] owns its tags and block, and a [`crate::SetAssocCache`]
//! keeps all its sets' tags in one allocation, their blocks in a second
//! and their occupancy words in a third, and lends one set's slice of
//! each to the same code per access.
//!
//! The meta word's low 9 bits are the line's last-use stamp, read only by
//! victim selection and only against stamps of the same set, so each set
//! keeps its own clock: every lookup and fill advances it by one (a
//! [`crate::SetAssocCache`] access, lookup and fill together, by one).
//! When it reaches [`MAX_STAMP`] the set re-ranks its own stamps
//! ([`PackedSet::renormalise_stamps`]) and restarts the clock at `ways`,
//! which no decision can observe. The high five bits are the requestor
//! that filled the line (the CMT tag), and the bit below them says whether
//! any other requestor has hit it since ([`CacheSet::note_hit`]) — a
//! one-pointer directory with a broadcast bit, Dir₁B in Agarwal et al.
//! (ISCA 1988). An inclusive LLC reads from it which cores may hold the
//! line privately: the filler alone while the line is unshared, any core
//! once it is shared. Both leave with the victim in [`Evicted`].
//!
//! The layout buys three things on the hot path:
//!
//! * **lookup** is a branch-light equality scan over a contiguous `u16`
//!   run (the set's tags), which the compiler vectorizes;
//! * **victim selection** walks the set bits of `occ & mask` — no
//!   per-fill candidate `Vec` allocation (the seed implementation
//!   malloc'd one per miss, which dominated fill-churn profiles);
//! * **occupancy queries** are `count_ones` on the bitmask instead of an
//!   `Option` scan.
//!
//! Every replacement decision is the one the seed's layout made — whole
//! line records with 64-bit stamps and exact sharer sets — which lives on
//! as the reference model in `tests/support/reference.rs`:
//! `tests/machine_differential.rs` holds the whole hierarchy to it.

use std::borrow::{Borrow, BorrowMut};

use cbm::Cbm;

use crate::address::LineAddr;
use crate::replacement::ReplacementPolicy;

/// Sentinel stored in empty tag slots; no stored tag may equal it.
pub(crate) const INVALID_TAG: u16 = u16::MAX;

/// Requestors a line's filler id can name: ids `0..MAX_FILLERS`.
pub const MAX_FILLERS: u32 = 32;

/// Width of the stamp field, the low bits of the meta word.
const STAMP_BITS: u32 = 9;

/// The last stamp a set's clock hands out before it re-ranks the set.
pub const MAX_STAMP: u32 = (1 << STAMP_BITS) - 1;

/// The stamp field of a meta word.
const STAMP_MASK: u16 = MAX_STAMP as u16;

/// The shared bit sits a spare bit above the stamp, the filler id above it.
const SHARED_SHIFT: u32 = STAMP_BITS + 1;
const OWNER_SHIFT: u32 = SHARED_SHIFT + 1;

// Every filler id fills the bits above the shared bit, and a clock
// restarted at any way count has room to run before the set re-ranks again.
const _: () = assert!(MAX_FILLERS == 1 << (u16::BITS - OWNER_SHIFT));
const _: () = assert!(32 < MAX_STAMP);

/// `u16`s in the meta block of a `ways`-way set: a meta word a line,
/// then the set's clock.
#[inline(always)]
pub(crate) fn block_len(ways: u32) -> usize {
    ways as usize + 1
}

/// The filler id in a meta word.
#[inline(always)]
fn owner_of(meta: u16) -> u32 {
    u32::from(meta >> OWNER_SHIFT)
}

/// A line that left a set (evicted by a fill, or invalidated) or would
/// leave it ([`PackedSet::residents`]), with what its meta word carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The departed line.
    pub line: LineAddr,
    /// Requestor that had filled it.
    pub owner: u32,
    /// Whether a requestor other than `owner` hit it through
    /// [`CacheSet::note_hit`] while it was resident.
    pub shared: bool,
}

/// Result of a fill into a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillResult {
    /// Way index that received the line.
    pub way: u32,
    /// Line that was evicted to make room, if any.
    pub evicted: Option<Evicted>,
}

/// Where a set sits in its cache: set `index` of `sets`. A line of this
/// set is `tag × sets + index`, so the set stores only the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SetPos {
    pub(crate) index: u32,
    pub(crate) sets: u32,
}

impl SetPos {
    /// A standalone set: a one-set cache, whose tag is the line.
    const ALONE: SetPos = SetPos { index: 0, sets: 1 };

    /// `line`'s tag, if `line` maps to this set and its tag fits beside
    /// the sentinel. A standalone set divides by nothing.
    #[inline(always)]
    fn tag_of(self, line: LineAddr) -> Option<u16> {
        let tag = if self.sets == 1 {
            line.0
        } else {
            let sets = u64::from(self.sets);
            if line.0 % sets != u64::from(self.index) {
                return None;
            }
            line.0 / sets
        };
        u16::try_from(tag).ok().filter(|&tag| tag != INVALID_TAG)
    }

    /// The line a tag of this set stands for.
    #[inline(always)]
    fn line_of(self, tag: u16) -> LineAddr {
        LineAddr(u64::from(tag) * u64::from(self.sets) + u64::from(self.index))
    }
}

/// One set's packed state — an occupancy word, `ways` tags and a
/// `ways + 1` meta block — and the only implementation of the set logic.
/// The storage is a parameter so the same code runs over a set that owns
/// its words ([`CacheSet`]) and over one set's slice of a cache's flat
/// arrays ([`SetRef`], `SetMut`).
#[derive(Debug, Clone)]
pub struct PackedSet<O, T, D> {
    /// Occupancy bitmask: bit `w` set means way `w` holds a valid line.
    occ: O,
    /// One tag a way; `INVALID_TAG` in an empty one.
    tags: T,
    /// One meta word a way, then the set's clock.
    meta: D,
    /// Where the set sits, to turn lines into tags and back.
    pos: SetPos,
}

/// A single set that owns its storage.
pub type CacheSet = PackedSet<u32, Box<[u16]>, Box<[u16]>>;

/// Read-only view of one set of a [`crate::SetAssocCache`].
pub type SetRef<'a> = PackedSet<u32, &'a [u16], &'a [u16]>;

/// Mutable view of one set of a [`crate::SetAssocCache`].
pub(crate) type SetMut<'a> = PackedSet<&'a mut u32, &'a mut [u16], &'a mut [u16]>;

/// Whether a fill inserts at MRU (stamp `now`) rather than LRU (stamp 0):
/// BIP one fill in `mru_one_in`, every other policy always.
#[inline]
fn inserts_at_mru(policy: ReplacementPolicy, draw: u64) -> bool {
    match policy {
        ReplacementPolicy::Bip { mru_one_in } => {
            mru_one_in <= 1 || draw.is_multiple_of(u64::from(mru_one_in))
        }
        _ => true,
    }
}

impl CacheSet {
    /// Creates an empty set with the given associativity.
    pub fn new(ways: u32) -> Self {
        debug_assert!((1..=32).contains(&ways), "way masks are 32-bit");
        let mut set = PackedSet {
            occ: 0,
            tags: vec![0u16; ways as usize].into_boxed_slice(),
            meta: vec![0u16; block_len(ways)].into_boxed_slice(),
            pos: SetPos::ALONE,
        };
        set.flush();
        set
    }
}

impl<O, T, D> PackedSet<O, T, D> {
    /// A set at `pos` over an occupancy word, `ways` tags and a `ways + 1`
    /// meta block kept elsewhere. Zeroed tags are not an empty set:
    /// [`PackedSet::flush`] makes one.
    #[inline(always)]
    pub(crate) fn over(occ: O, tags: T, meta: D, pos: SetPos) -> Self {
        PackedSet {
            occ,
            tags,
            meta,
            pos,
        }
    }
}

impl<O: Borrow<u32>, T: Borrow<[u16]>, D: Borrow<[u16]>> PackedSet<O, T, D> {
    #[inline(always)]
    fn occ(&self) -> u32 {
        *self.occ.borrow()
    }

    /// Ways in the set: one tag each.
    #[inline(always)]
    fn n(&self) -> usize {
        self.tags.borrow().len()
    }

    /// Number of ways in this set.
    #[inline]
    pub fn way_count(&self) -> u32 {
        self.n() as u32
    }

    /// Bitmask of the ways that actually exist in this set.
    #[inline(always)]
    fn way_range_bits(&self) -> u32 {
        let n = self.way_count();
        if n >= 32 {
            u32::MAX
        } else {
            (1u32 << n) - 1
        }
    }

    /// What way `way` holds, as it leaves the set.
    #[inline(always)]
    fn departing(&self, way: u32) -> Evicted {
        let w = way as usize;
        let meta = self.meta.borrow()[w];
        Evicted {
            line: self.pos.line_of(self.tags.borrow()[w]),
            owner: owner_of(meta),
            shared: meta & (1 << SHARED_SHIFT) != 0,
        }
    }

    /// The way holding `tag`, if any.
    #[inline(always)]
    pub(crate) fn probe_tag(&self, tag: u16) -> Option<u32> {
        self.tags
            .borrow()
            .iter()
            .position(|&t| t == tag)
            .map(|w| w as u32)
    }

    /// Checks residency without perturbing LRU state (a *probe*).
    #[inline]
    pub fn probe(&self, line: LineAddr) -> Option<u32> {
        self.probe_tag(self.pos.tag_of(line)?)
    }

    /// Number of valid lines currently resident.
    #[inline]
    pub fn occupancy(&self) -> u32 {
        self.occ().count_ones()
    }

    /// Number of valid lines resident in ways permitted by `mask`.
    #[inline]
    pub fn occupancy_in(&self, mask: Cbm) -> u32 {
        (self.occ() & mask.0).count_ones()
    }

    /// Iterates over the occupied ways in ascending order, each with what
    /// would leave it: its line, filler and shared bit.
    pub fn residents(&self) -> impl Iterator<Item = (u32, Evicted)> + '_ {
        let occ = self.occ();
        (0..self.way_count())
            .filter(move |&w| occ & (1 << w) != 0)
            .map(|w| (w, self.departing(w)))
    }

    /// Iterates over resident lines (ascending way order).
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.residents().map(|(_, gone)| gone.line)
    }

    /// Number of valid lines filled by `owner`.
    pub fn occupancy_of(&self, owner: u32) -> u32 {
        let metas = self.meta.borrow();
        let mut count = 0;
        let mut bits = self.occ();
        while bits != 0 {
            let w = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if owner_of(metas[w]) == owner {
                count += 1;
            }
        }
        count
    }
}

// The mutating half sits on the simulator's per-reference path. The hot
// methods are `inline(always)`: left to the inliner, `fill_with` stayed a
// call inside the cache's fill and its `FillResult` travelled through
// memory.
impl<O: BorrowMut<u32>, T: BorrowMut<[u16]>, D: BorrowMut<[u16]>> PackedSet<O, T, D> {
    #[inline(always)]
    fn set_entry(&mut self, way: u32, tag: u16, stamp: u16, owner: u32) {
        let w = way as usize;
        self.tags.borrow_mut()[w] = tag;
        self.meta.borrow_mut()[w] = (owner as u16) << OWNER_SHIFT | stamp;
        *self.occ.borrow_mut() |= 1 << way;
    }

    /// Empties way `way`, which holds a valid line.
    #[inline(always)]
    fn clear_way(&mut self, way: u32) {
        self.tags.borrow_mut()[way as usize] = INVALID_TAG;
        *self.occ.borrow_mut() &= !(1 << way);
    }

    /// The stamp of the set's next access. At [`MAX_STAMP`] the set first
    /// re-ranks its stamps, which restarts the clock at `ways`: every stamp
    /// handed out from here on is newer than every stamp stored, as on a
    /// clock that never wrapped.
    #[inline(always)]
    pub(crate) fn tick(&mut self) -> u16 {
        let slot = self.n();
        if self.meta.borrow()[slot] == STAMP_MASK {
            self.renormalise_stamps();
        }
        let clock = &mut self.meta.borrow_mut()[slot];
        *clock += 1;
        debug_assert!(*clock <= STAMP_MASK, "stamp beyond the 9-bit field");
        *clock
    }

    /// Looks up a line; on a hit, refreshes its LRU stamp (unless the
    /// policy does not promote on hits) and returns the way.
    pub fn lookup(&mut self, line: LineAddr) -> Option<u32> {
        self.lookup_with(line, ReplacementPolicy::Lru)
    }

    /// Policy-aware lookup.
    #[inline(always)]
    pub fn lookup_with(&mut self, line: LineAddr, policy: ReplacementPolicy) -> Option<u32> {
        let now = self.tick();
        self.lookup_tag(self.pos.tag_of(line)?, now, policy)
    }

    /// [`PackedSet::lookup_with`] for a line already turned into its tag,
    /// at a stamp the caller took from [`PackedSet::tick`].
    #[inline(always)]
    pub(crate) fn lookup_tag(
        &mut self,
        tag: u16,
        now: u16,
        policy: ReplacementPolicy,
    ) -> Option<u32> {
        // Empty slots hold INVALID_TAG, which no stored tag equals, so the
        // scan runs over the contiguous tag run with no validity tests.
        let way = self.probe_tag(tag)?;
        if policy.promotes_on_hit() {
            // The filler id and the shared bit stay as they are.
            let meta = &mut self.meta.borrow_mut()[way as usize];
            *meta = *meta & !STAMP_MASK | now;
        }
        Some(way)
    }

    /// Records a hit by `requestor` on the line held by `way` (the way a
    /// lookup just returned): a requestor other than its filler marks the
    /// line shared.
    #[inline(always)]
    pub fn note_hit(&mut self, way: u32, requestor: u32) {
        let meta = &mut self.meta.borrow_mut()[way as usize];
        *meta |= u16::from(owner_of(*meta) != requestor) << SHARED_SHIFT;
    }

    /// Fills `line` into a way permitted by `mask`, evicting the LRU line
    /// among the permitted ways if none is free. The line is tagged with
    /// `owner` for occupancy attribution.
    ///
    /// # Panics
    ///
    /// Panics if `mask` permits no way within this set's associativity;
    /// CAT forbids empty masks (Intel x86 does not allow a zero-way COS) and
    /// upper layers validate masks before they reach the set. Panics if
    /// `owner >= MAX_FILLERS`, and if `line`'s tag does not fit 16 bits
    /// beside the empty-way sentinel.
    pub fn fill(&mut self, line: LineAddr, mask: Cbm, owner: u32) -> FillResult {
        self.fill_with(line, mask, owner, ReplacementPolicy::Lru, 0)
    }

    /// Policy-aware fill. `draw` is a pseudo-random value supplied by the
    /// cache (used by Random victim selection and BIP insertion); passing
    /// any constant degrades those policies but stays correct.
    ///
    /// # Panics
    ///
    /// As [`PackedSet::fill`]: on an empty `mask`, on `owner >= MAX_FILLERS`
    /// and on a line whose tag reaches the sentinel — the fields cannot
    /// hold them.
    #[inline(always)]
    pub fn fill_with(
        &mut self,
        line: LineAddr,
        mask: Cbm,
        owner: u32,
        policy: ReplacementPolicy,
        draw: u64,
    ) -> FillResult {
        let tag = self
            .pos
            .tag_of(line)
            .expect("line beyond the 16-bit tag field, or of another set");
        let now = self.tick();
        self.fill_tag(tag, mask, now, owner, policy, draw)
    }

    /// [`PackedSet::fill_with`] for a line already turned into its tag,
    /// at a stamp the caller took from [`PackedSet::tick`].
    #[inline(always)]
    pub(crate) fn fill_tag(
        &mut self,
        tag: u16,
        mask: Cbm,
        now: u16,
        owner: u32,
        policy: ReplacementPolicy,
        draw: u64,
    ) -> FillResult {
        debug_assert!(
            self.probe_tag(tag).is_none(),
            "fill of a line that is already resident"
        );
        debug_assert_ne!(tag, INVALID_TAG, "tag collides with the sentinel");
        assert!(owner < MAX_FILLERS, "filler id beyond its 5-bit field");
        let insert_stamp = if inserts_at_mru(policy, draw) { now } else { 0 };

        // Prefer an invalid (empty) permitted way: the lowest-index free
        // bit, matching the seed's ascending-way scan.
        let permitted = mask.0 & self.way_range_bits();
        let free = !self.occ() & permitted;
        if free != 0 {
            let way = free.trailing_zeros();
            self.set_entry(way, tag, insert_stamp, owner);
            return FillResult { way, evicted: None };
        }

        // All permitted ways are occupied: pick a victim among them.
        let candidates = self.occ() & permitted;
        assert!(candidates != 0, "fill mask must permit at least one way");
        let way = match policy {
            ReplacementPolicy::Random => {
                let k = (draw % u64::from(candidates.count_ones())) as u32;
                nth_set_bit(candidates, k)
            }
            // LRU, FIFO, and BIP all evict the oldest stamp; they differ
            // in when stamps are refreshed (lookup) or assigned (insert).
            // Ties break toward the lowest way index (strict-less scan in
            // ascending way order), as in the seed implementation.
            _ => {
                let metas = self.meta.borrow();
                let mut victim = 0u32;
                let mut victim_stamp = u16::MAX;
                let mut bits = candidates;
                while bits != 0 {
                    let w = bits.trailing_zeros();
                    bits &= bits - 1;
                    let s = metas[w as usize] & STAMP_MASK;
                    if s < victim_stamp {
                        victim_stamp = s;
                        victim = w;
                    }
                }
                victim
            }
        };
        let evicted = self.departing(way);
        self.set_entry(way, tag, insert_stamp, owner);
        FillResult {
            way,
            evicted: Some(evicted),
        }
    }

    /// Invalidates `line` if resident (used for inclusive back-invalidation).
    ///
    /// Returns `true` when a line was actually dropped.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        self.remove(line).is_some()
    }

    /// Invalidates `line` if resident, returning what its way held.
    #[inline(always)]
    pub fn remove(&mut self, line: LineAddr) -> Option<Evicted> {
        self.remove_tag(self.pos.tag_of(line)?)
    }

    /// [`PackedSet::remove`] for a line already turned into its tag.
    #[inline(always)]
    pub(crate) fn remove_tag(&mut self, tag: u16) -> Option<Evicted> {
        let way = self.probe_tag(tag)?;
        let gone = self.departing(way);
        self.clear_way(way);
        Some(gone)
    }

    /// Clears every way of the set.
    pub fn flush(&mut self) {
        self.tags.borrow_mut().fill(INVALID_TAG);
        *self.occ.borrow_mut() = 0;
    }

    /// Invalidates every line resident in the ways permitted by `mask`,
    /// handing each to `on_drop` in ascending way order.
    #[inline]
    pub fn drain_lines_in(&mut self, mask: Cbm, mut on_drop: impl FnMut(Evicted)) {
        let mut bits = self.occ() & mask.0;
        while bits != 0 {
            let way = bits.trailing_zeros();
            bits &= bits - 1;
            on_drop(self.departing(way));
            self.clear_way(way);
        }
    }

    /// Rewrites the resident lines' non-zero stamps as their ranks
    /// `1..=k`, oldest first, leaves BIP's LRU-insert zeros zero and
    /// restarts the clock at `ways`: the order among this set's stamps —
    /// all a victim scan reads — is kept, and every later stamp is above
    /// every stamp here. Emptied ways keep a stale meta word and are not
    /// ranked. Stamps that tie (the clock writes none: each is a different
    /// access's) rank in way order, the way the victim scan breaks the
    /// tie. `PackedSet::tick` calls it at [`MAX_STAMP`]; at any other
    /// time it changes no decision either.
    #[cold]
    pub fn renormalise_stamps(&mut self) {
        let n = self.n();
        let mut order = [(0u16, 0usize); 32];
        let mut k = 0;
        let mut bits = self.occ();
        let metas = self.meta.borrow_mut();
        while bits != 0 {
            let w = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let stamp = metas[w] & STAMP_MASK;
            if stamp != 0 {
                order[k] = (stamp, w);
                k += 1;
            }
        }
        order[..k].sort_unstable();
        for (rank, &(_, w)) in (1u16..).zip(&order[..k]) {
            metas[w] = metas[w] & !STAMP_MASK | rank;
        }
        metas[n] = n as u16;
    }
}

/// Index of the `k`-th (0-based) set bit of `bits`, ascending.
///
/// # Panics
///
/// Debug-asserts that `bits` has more than `k` set bits; callers guard.
#[inline]
fn nth_set_bit(mut bits: u32, k: u32) -> u32 {
    debug_assert!(bits.count_ones() > k, "nth_set_bit out of range");
    for _ in 0..k {
        bits &= bits - 1;
    }
    bits.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_mask(ways: u32) -> Cbm {
        Cbm::from_way_range(0, ways)
    }

    #[test]
    fn fill_then_lookup_hits() {
        let mut set = CacheSet::new(4);
        set.fill(LineAddr(7), full_mask(4), 0);
        assert!(set.lookup(LineAddr(7)).is_some());
        assert!(set.lookup(LineAddr(8)).is_none());
    }

    #[test]
    fn fill_prefers_empty_way() {
        let mut set = CacheSet::new(2);
        let r1 = set.fill(LineAddr(1), full_mask(2), 0);
        let r2 = set.fill(LineAddr(2), full_mask(2), 0);
        assert_eq!(r1.evicted, None);
        assert_eq!(r2.evicted, None);
        assert_ne!(r1.way, r2.way);
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut set = CacheSet::new(2);
        set.fill(LineAddr(1), full_mask(2), 0);
        set.fill(LineAddr(2), full_mask(2), 0);
        // Touch line 1 so line 2 becomes LRU.
        set.lookup(LineAddr(1));
        let r = set.fill(LineAddr(3), full_mask(2), 0);
        assert_eq!(r.evicted.map(|e| e.line), Some(LineAddr(2)));
        assert!(set.probe(LineAddr(1)).is_some());
    }

    #[test]
    fn masked_fill_only_claims_permitted_ways() {
        let mut set = CacheSet::new(4);
        let low = Cbm::from_way_range(0, 2);
        for i in 0..8 {
            set.fill(LineAddr(i), low, 0);
        }
        // Only the two permitted ways are ever occupied.
        assert_eq!(set.occupancy(), 2);
        assert_eq!(set.occupancy_in(low), 2);
        assert_eq!(set.occupancy_in(Cbm::from_way_range(2, 2)), 0);
    }

    #[test]
    fn masked_fill_does_not_evict_other_partition() {
        let mut set = CacheSet::new(4);
        let low = Cbm::from_way_range(0, 2);
        let high = Cbm::from_way_range(2, 2);
        set.fill(LineAddr(100), high, 0);
        for i in 0..10 {
            set.fill(LineAddr(i), low, 0);
        }
        // The high-partition line survives low-partition thrashing: that is
        // exactly the isolation CAT provides.
        assert!(set.probe(LineAddr(100)).is_some());
    }

    #[test]
    fn hit_possible_outside_fill_mask() {
        let mut set = CacheSet::new(4);
        let high = Cbm::from_way_range(2, 2);
        set.fill(LineAddr(5), high, 0);
        // A core whose mask excludes ways 2-3 still *hits* on the line.
        assert!(set.lookup(LineAddr(5)).is_some());
    }

    #[test]
    fn invalidate_removes_line() {
        let mut set = CacheSet::new(2);
        set.fill(LineAddr(9), full_mask(2), 0);
        assert!(set.invalidate(LineAddr(9)));
        assert!(!set.invalidate(LineAddr(9)));
        assert_eq!(set.occupancy(), 0);
    }

    #[test]
    fn flush_empties_set() {
        let mut set = CacheSet::new(4);
        for i in 0..4 {
            set.fill(LineAddr(i), full_mask(4), 0);
        }
        set.flush();
        assert_eq!(set.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn empty_mask_fill_panics_when_full() {
        let mut set = CacheSet::new(2);
        // A mask outside the set's associativity behaves like an empty mask.
        let bad = Cbm::from_way_range(2, 2);
        set.fill(LineAddr(1), bad, 0);
    }

    #[test]
    fn occupancy_of_attributes_by_filling_owner() {
        let mut set = CacheSet::new(4);
        set.fill(LineAddr(1), full_mask(4), 7);
        set.fill(LineAddr(2), full_mask(4), 7);
        set.fill(LineAddr(3), full_mask(4), 9);
        assert_eq!(set.occupancy_of(7), 2);
        assert_eq!(set.occupancy_of(9), 1);
        assert_eq!(set.occupancy_of(0), 0);
    }

    #[test]
    fn a_hit_by_another_requestor_marks_the_line_shared_and_the_fillers_does_not() {
        let mut set = CacheSet::new(2);
        let a = set.fill(LineAddr(1), full_mask(2), 5);
        set.note_hit(a.way, 5);
        let b = set.fill(LineAddr(2), full_mask(2), 6);
        set.note_hit(b.way, 6);
        set.note_hit(a.way, 17);
        assert_eq!(set.occupancy_of(5), 1, "a hit is not a fill");
        assert_eq!(set.occupancy_of(17), 0);
        let r = set.fill(LineAddr(3), full_mask(2), 7);
        assert_eq!(
            r.evicted,
            Some(Evicted {
                line: LineAddr(1),
                owner: 5,
                shared: true,
            })
        );
        // The refilled way starts unshared; the filler's own hits left
        // line 2 unshared.
        assert_eq!(r.way, a.way);
        assert_eq!(set.remove(LineAddr(3)).map(|e| e.shared), Some(false));
        let gone = set.remove(LineAddr(2)).expect("line 2 is resident");
        assert_eq!((gone.owner, gone.shared, b.way), (6, false, 1));
        assert_eq!(set.remove(LineAddr(2)), None);
    }

    /// The top filler id fills the field beside the shared bit: it must
    /// leave whole, and neither its hits nor another's may carry into it.
    #[test]
    fn requestor_31_fills_and_leaves_as_owner_31() {
        let top = MAX_FILLERS - 1;
        let mut set = CacheSet::new(2);
        let a = set.fill(LineAddr(1), full_mask(2), top);
        set.note_hit(a.way, top);
        assert_eq!(set.occupancy_of(top), 1);
        let gone = set.remove(LineAddr(1)).expect("line 1 is resident");
        assert_eq!((gone.owner, gone.shared), (top, false));
        let b = set.fill(LineAddr(2), full_mask(2), top);
        set.note_hit(b.way, 0);
        assert_eq!(set.occupancy_of(top), 1);
        let gone = set.remove(LineAddr(2)).expect("line 2 is resident");
        assert_eq!((gone.owner, gone.shared), (top, true));
    }

    #[test]
    fn the_clock_re_ranks_the_set_and_restarts_at_ways() {
        let mut set = CacheSet::new(4);
        for line in 0..4 {
            set.fill(LineAddr(line), full_mask(4), 0);
        }
        // Four fills and 511 lookups: tick 512 re-ranks and restarts the
        // clock at 4, ticks 512..=515 take it to 8.
        for k in 0..u64::from(MAX_STAMP) {
            set.lookup(LineAddr(3 - k % 4));
        }
        assert_eq!(set.meta[4], 8);
        // Lines 0, 3, 2, 1 were touched last, in that order.
        let next = set.fill(LineAddr(9), full_mask(4), 0);
        assert_eq!(next.evicted.map(|e| e.line), Some(LineAddr(0)));
        let next = set.fill(LineAddr(10), full_mask(4), 0);
        assert_eq!(next.evicted.map(|e| e.line), Some(LineAddr(3)));
    }

    #[test]
    #[should_panic(expected = "filler id beyond its 5-bit field")]
    fn filler_beyond_the_field_is_rejected() {
        let mut set = CacheSet::new(2);
        set.fill(LineAddr(1), full_mask(2), MAX_FILLERS);
    }

    #[test]
    fn resident_lines_iterates_in_way_order() {
        let mut set = CacheSet::new(4);
        set.fill(LineAddr(30), full_mask(4), 0);
        set.fill(LineAddr(10), full_mask(4), 0);
        set.invalidate(LineAddr(30));
        set.fill(LineAddr(20), Cbm::from_way_range(2, 2), 0);
        let lines: Vec<LineAddr> = set.resident_lines().collect();
        assert_eq!(lines, vec![LineAddr(10), LineAddr(20)]);
    }

    #[test]
    fn invalidate_ways_reports_dropped_lines_ascending() {
        let mut set = CacheSet::new(4);
        for i in 0..4u64 {
            set.fill(LineAddr(i), full_mask(4), 0);
        }
        let mut dropped = Vec::new();
        set.drain_lines_in(Cbm::from_way_range(1, 2), |gone| dropped.push(gone.line));
        assert_eq!(dropped, vec![LineAddr(1), LineAddr(2)]);
        assert_eq!(set.occupancy(), 2);
    }

    #[test]
    fn nth_set_bit_selects_ascending() {
        assert_eq!(nth_set_bit(0b1011, 0), 0);
        assert_eq!(nth_set_bit(0b1011, 1), 1);
        assert_eq!(nth_set_bit(0b1011, 2), 3);
    }

    #[test]
    fn thirty_two_way_set_works_at_the_mask_edge() {
        let mut set = CacheSet::new(32);
        let mask = Cbm::full(32);
        for i in 0..32u64 {
            assert_eq!(set.fill(LineAddr(i), mask, 0).evicted, None);
        }
        assert_eq!(set.occupancy(), 32);
        let r = set.fill(LineAddr(99), mask, 0);
        assert_eq!(
            r.evicted.map(|e| e.line),
            Some(LineAddr(0)),
            "way 0 held the oldest stamp"
        );
    }
}
