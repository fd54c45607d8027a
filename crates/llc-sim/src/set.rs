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
//! The set stores its state in one contiguous block of `u32`s plus a `u32`
//! occupancy bitmask instead of a `Vec<Option<LineEntry>>`:
//!
//! ```text
//! occ:  u32 bitmask, bit w set = way w holds a valid line
//! data: [ tag_0 .. tag_{n-1} | meta_0 .. meta_{n-1} | sharers_0 .. sharers_{n-1} ]
//!        (u32 each, three words — 12 bytes — a line; empty tag slots hold
//!         INVALID_TAG so the lookup scan needs no per-way validity test)
//! tag:     line / sets, the bits of the line its set's index does not give
//! meta:    [ filler id (bits 31..27) | stamp (bits 26..0) ]
//! sharers: bit r set = requestor r reached the line
//! ```
//!
//! A set knows its place in its cache ([`SetPos`]: its index and the
//! cache's set count), so a line that leaves it — evicted, removed,
//! drained or listed — is rebuilt as `tag × sets + index`. A standalone
//! [`CacheSet`] is a one-set cache: its tag is the line. A line whose tag
//! would reach `INVALID_TAG` cannot be stored; a fill of one panics (the
//! engine sizes physical memory so that none exists).
//!
//! [`PackedSet`] is that pair with the storage left open: a [`CacheSet`]
//! owns its block, and a [`crate::SetAssocCache`] keeps all its sets'
//! blocks in one allocation (and their occupancy words in another) and
//! lends one set's slice of each to the same code per access.
//!
//! The meta word's low 27 bits are the line's last-use stamp, read only
//! by victim selection and only against stamps of the same set; a caller
//! keeps `now` at or below [`MAX_STAMP`] (a [`crate::SetAssocCache`]
//! re-ranks its sets' stamps when its clock gets there, which no decision
//! can observe). The high five bits are the requestor that filled the
//! line (the CMT tag). The third word is a **sharer mask**, one bit per
//! requestor that reached this line through [`CacheSet::add_sharer`]. An
//! inclusive LLC records there which cores may hold the line privately,
//! so an eviction back-invalidates those cores only — the mask leaves
//! with the victim in [`Evicted::sharers`].
//!
//! The layout buys three things on the hot path:
//!
//! * **lookup** is a branch-light equality scan over a contiguous `u32`
//!   run (the tag region), which the compiler vectorizes;
//! * **victim selection** walks the set bits of `occ & mask` — no
//!   per-fill candidate `Vec` allocation (the seed implementation
//!   malloc'd one per miss, which dominated fill-churn profiles);
//! * **occupancy queries** are `count_ones` on the bitmask instead of an
//!   `Option` scan.
//!
//! Every replacement decision is bit-identical to the seed
//! `Vec<Option<LineEntry>>` implementation, which is retained as
//! [`legacy::LegacyCacheSet`] — it keeps whole line addresses, and is the
//! oracle for the equivalence property test and the reference side of the
//! `dcat-perfbench` speedup measurement.

use std::borrow::{Borrow, BorrowMut};

use crate::address::LineAddr;
use crate::cache::WayMask;
use crate::replacement::ReplacementPolicy;

/// Sentinel stored in empty tag slots; no stored tag may equal it.
pub(crate) const INVALID_TAG: u32 = u32::MAX;

/// Requestors a line's sharer mask can name: ids `0..MAX_SHARERS`.
pub const MAX_SHARERS: u32 = 32;

/// Width of the stamp field, the low bits of the meta word.
const STAMP_BITS: u32 = 27;

/// Largest `now` a set can store: [`PackedSet::lookup_with`] and
/// [`PackedSet::fill_with`] reject a later one.
pub const MAX_STAMP: u64 = (1 << STAMP_BITS) - 1;

/// The stamp field of a meta word.
const STAMP_MASK: u32 = MAX_STAMP as u32;

/// Width of the filler-id field, above the stamp.
const OWNER_BITS: u32 = 5;

/// `u32`s a line takes in a set's block: its tag, its meta word and its
/// sharer mask.
pub(crate) const WORDS_PER_LINE: usize = 3;

// The filler id has exactly one value per sharer bit, and the two fields
// fill the meta word.
const _: () = assert!(MAX_SHARERS == 1 << OWNER_BITS);
const _: () = assert!(STAMP_BITS + OWNER_BITS == u32::BITS);

/// The filler id in a meta word.
#[inline(always)]
fn owner_of(meta: u32) -> u32 {
    meta >> STAMP_BITS
}

/// One resident line: its address tag, an LRU timestamp, and the id of
/// the requestor that filled it (the analogue of Intel CMT's RMID tag,
/// which is how real hardware attributes LLC occupancy to tenants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineEntry {
    /// Full line address. The packed set stores only the line's tag (the
    /// bits its set index does not give) and rebuilds this when the line
    /// leaves; the legacy oracle keeps it whole.
    pub line: LineAddr,
    /// Monotonic last-use stamp; larger means more recently used. A field
    /// of [`legacy::LegacyCacheSet`] only: the packed set exposes no
    /// stamp, so rewriting stamps in an order-preserving way is invisible.
    pub last_use: u64,
    /// Requestor (core) that brought the line in.
    pub owner: u32,
}

/// A line that left a set (evicted by a fill, or invalidated), with what
/// its meta word and sharer mask carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The departed line.
    pub line: LineAddr,
    /// Requestor that had filled it.
    pub owner: u32,
    /// Sharer mask: bit `r` set if requestor `r` was recorded through
    /// [`CacheSet::add_sharer`] while the line was resident.
    pub sharers: u32,
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
    fn tag_of(self, line: LineAddr) -> Option<u32> {
        let tag = if self.sets == 1 {
            line.0
        } else {
            let sets = u64::from(self.sets);
            if line.0 % sets != u64::from(self.index) {
                return None;
            }
            line.0 / sets
        };
        u32::try_from(tag).ok().filter(|&tag| tag != INVALID_TAG)
    }

    /// The line a tag of this set stands for.
    #[inline(always)]
    fn line_of(self, tag: u32) -> LineAddr {
        LineAddr(u64::from(tag) * u64::from(self.sets) + u64::from(self.index))
    }
}

/// One set's packed state — an occupancy word and a `3 × ways` block —
/// and the only implementation of the set logic beside
/// [`legacy::LegacyCacheSet`]. The storage is a parameter so the same
/// code runs over a set that owns its words ([`CacheSet`]) and over one
/// set's slice of a cache's flat arrays ([`SetRef`], `SetMut`).
#[derive(Debug, Clone)]
pub struct PackedSet<O, D> {
    /// Occupancy bitmask: bit `w` set means way `w` holds a valid line.
    occ: O,
    /// Packed per-way state: `ways` tags, `ways` meta words, then `ways`
    /// sharer masks.
    data: D,
    /// Where the set sits, to turn lines into tags and back.
    pos: SetPos,
}

/// A single set that owns its storage.
pub type CacheSet = PackedSet<u32, Box<[u32]>>;

/// Read-only view of one set of a [`crate::SetAssocCache`].
pub type SetRef<'a> = PackedSet<u32, &'a [u32]>;

/// Mutable view of one set of a [`crate::SetAssocCache`].
pub(crate) type SetMut<'a> = PackedSet<&'a mut u32, &'a mut [u32]>;

/// BIP insertion stamp: MRU (`now`) one fill in `mru_one_in`, LRU-position
/// (stamp 0) otherwise; every other policy inserts at MRU. Shared by the
/// packed and legacy implementations so they cannot drift.
#[inline]
fn insertion_stamp(policy: ReplacementPolicy, now: u64, draw: u64) -> u64 {
    match policy {
        ReplacementPolicy::Bip { mru_one_in } => {
            if mru_one_in <= 1 || draw.is_multiple_of(u64::from(mru_one_in)) {
                now
            } else {
                0
            }
        }
        _ => now,
    }
}

impl CacheSet {
    /// Creates an empty set with the given associativity.
    pub fn new(ways: u32) -> Self {
        debug_assert!((1..=32).contains(&ways), "way masks are 32-bit");
        let mut set = PackedSet {
            occ: 0,
            data: vec![0u32; WORDS_PER_LINE * ways as usize].into_boxed_slice(),
            pos: SetPos::ALONE,
        };
        set.flush();
        set
    }
}

impl<O, D> PackedSet<O, D> {
    /// A set at `pos` over an occupancy word and a `3 × ways` block kept
    /// elsewhere. A zeroed block is not an empty set: [`PackedSet::flush`]
    /// makes one.
    #[inline(always)]
    pub(crate) fn over(occ: O, data: D, pos: SetPos) -> Self {
        PackedSet { occ, data, pos }
    }
}

impl<O: Borrow<u32>, D: Borrow<[u32]>> PackedSet<O, D> {
    #[inline(always)]
    fn occ(&self) -> u32 {
        *self.occ.borrow()
    }

    #[inline(always)]
    fn n(&self) -> usize {
        self.data.borrow().len() / WORDS_PER_LINE
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

    #[inline(always)]
    fn tags(&self) -> &[u32] {
        &self.data.borrow()[..self.n()]
    }

    /// What way `way` holds, as it leaves the set.
    #[inline(always)]
    fn departing(&self, way: u32) -> Evicted {
        let data = self.data.borrow();
        let (n, w) = (self.n(), way as usize);
        Evicted {
            line: self.pos.line_of(data[w]),
            owner: owner_of(data[n + w]),
            sharers: data[2 * n + w],
        }
    }

    /// The way holding `tag`, if any.
    #[inline(always)]
    pub(crate) fn probe_tag(&self, tag: u32) -> Option<u32> {
        self.tags().iter().position(|&t| t == tag).map(|w| w as u32)
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
    pub fn occupancy_in(&self, mask: WayMask) -> u32 {
        (self.occ() & mask.0).count_ones()
    }

    /// Iterates over resident lines (ascending way order).
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        let occ = self.occ();
        self.tags()
            .iter()
            .enumerate()
            .filter(move |(w, _)| occ & (1 << *w) != 0)
            .map(|(_, &tag)| self.pos.line_of(tag))
    }

    /// Number of valid lines filled by `owner`.
    pub fn occupancy_of(&self, owner: u32) -> u32 {
        let metas = &self.data.borrow()[self.n()..];
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
impl<O: BorrowMut<u32>, D: BorrowMut<[u32]>> PackedSet<O, D> {
    #[inline(always)]
    fn set_entry(&mut self, way: u32, tag: u32, stamp: u64, owner: u32) {
        let (n, w) = (self.n(), way as usize);
        let data = self.data.borrow_mut();
        data[w] = tag;
        data[n + w] = owner << STAMP_BITS | stamp as u32;
        data[2 * n + w] = 0;
        *self.occ.borrow_mut() |= 1 << way;
    }

    /// Empties way `way`, which holds a valid line.
    #[inline(always)]
    fn clear_way(&mut self, way: u32) {
        self.data.borrow_mut()[way as usize] = INVALID_TAG;
        *self.occ.borrow_mut() &= !(1 << way);
    }

    /// Looks up a line; on a hit, refreshes its LRU stamp (unless the
    /// policy does not promote on hits) and returns the way.
    ///
    /// # Panics
    ///
    /// Panics if `now > MAX_STAMP`.
    pub fn lookup(&mut self, line: LineAddr, now: u64) -> Option<u32> {
        self.lookup_with(line, now, ReplacementPolicy::Lru)
    }

    /// Policy-aware lookup.
    ///
    /// # Panics
    ///
    /// Panics if `now > MAX_STAMP`: the stamp field cannot hold it.
    #[inline(always)]
    pub fn lookup_with(
        &mut self,
        line: LineAddr,
        now: u64,
        policy: ReplacementPolicy,
    ) -> Option<u32> {
        assert!(now <= MAX_STAMP, "stamp beyond the 27-bit field");
        self.lookup_tag(self.pos.tag_of(line)?, now, policy)
    }

    /// [`PackedSet::lookup_with`] for a line already turned into its tag.
    #[inline(always)]
    pub(crate) fn lookup_tag(
        &mut self,
        tag: u32,
        now: u64,
        policy: ReplacementPolicy,
    ) -> Option<u32> {
        assert!(now <= MAX_STAMP, "stamp beyond the 27-bit field");
        let n = self.n();
        let data = self.data.borrow_mut();
        // Empty slots hold INVALID_TAG, which no stored tag equals, so the
        // scan runs over the contiguous tag region with no validity tests.
        for w in 0..n {
            if data[w] == tag {
                if policy.promotes_on_hit() {
                    // The filler id stays as it is.
                    data[n + w] = data[n + w] & !STAMP_MASK | now as u32;
                }
                return Some(w as u32);
            }
        }
        None
    }

    /// Records `requestor` in the sharer mask of the line held by `way`
    /// (the way a lookup or fill just returned).
    ///
    /// # Panics
    ///
    /// Panics if `requestor >= MAX_SHARERS`: the mask has no bit for it.
    #[inline(always)]
    pub fn add_sharer(&mut self, way: u32, requestor: u32) {
        assert!(requestor < MAX_SHARERS, "sharer mask holds 32 requestors");
        let slot = 2 * self.n() + way as usize;
        self.data.borrow_mut()[slot] |= 1 << requestor;
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
    /// `now > MAX_STAMP` or `owner >= MAX_SHARERS`, and if `line`'s tag
    /// does not fit 32 bits beside the empty-way sentinel.
    pub fn fill(&mut self, line: LineAddr, mask: WayMask, now: u64, owner: u32) -> FillResult {
        self.fill_with(line, mask, now, owner, ReplacementPolicy::Lru, 0)
    }

    /// Policy-aware fill. `draw` is a pseudo-random value supplied by the
    /// cache (used by Random victim selection and BIP insertion); passing
    /// any constant degrades those policies but stays correct.
    ///
    /// # Panics
    ///
    /// As [`PackedSet::fill`]: on an empty `mask`, on `now > MAX_STAMP`,
    /// on `owner >= MAX_SHARERS` and on a line whose tag reaches the
    /// sentinel — the fields cannot hold them.
    #[inline(always)]
    pub fn fill_with(
        &mut self,
        line: LineAddr,
        mask: WayMask,
        now: u64,
        owner: u32,
        policy: ReplacementPolicy,
        draw: u64,
    ) -> FillResult {
        let tag = self
            .pos
            .tag_of(line)
            .expect("line beyond the 32-bit tag field, or of another set");
        self.fill_tag(tag, mask, now, owner, policy, draw)
    }

    /// [`PackedSet::fill_with`] for a line already turned into its tag.
    #[inline(always)]
    pub(crate) fn fill_tag(
        &mut self,
        tag: u32,
        mask: WayMask,
        now: u64,
        owner: u32,
        policy: ReplacementPolicy,
        draw: u64,
    ) -> FillResult {
        debug_assert!(
            self.probe_tag(tag).is_none(),
            "fill of a line that is already resident"
        );
        debug_assert_ne!(tag, INVALID_TAG, "tag collides with the sentinel");
        assert!(now <= MAX_STAMP, "stamp beyond the 27-bit field");
        assert!(owner < MAX_SHARERS, "filler id beyond the 5-bit field");
        let insert_stamp = insertion_stamp(policy, now, draw);

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
                let metas = &self.data.borrow()[self.n()..];
                let mut victim = 0u32;
                let mut victim_stamp = u32::MAX;
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
    pub(crate) fn remove_tag(&mut self, tag: u32) -> Option<Evicted> {
        let way = self.probe_tag(tag)?;
        let gone = self.departing(way);
        self.clear_way(way);
        Some(gone)
    }

    /// Clears every way of the set.
    pub fn flush(&mut self) {
        let n = self.n();
        self.data.borrow_mut()[..n].fill(INVALID_TAG);
        *self.occ.borrow_mut() = 0;
    }

    /// Invalidates every line resident in the ways permitted by `mask`,
    /// handing each to `on_drop` in ascending way order.
    #[inline]
    pub fn drain_lines_in(&mut self, mask: WayMask, mut on_drop: impl FnMut(Evicted)) {
        let mut bits = self.occ() & mask.0;
        while bits != 0 {
            let way = bits.trailing_zeros();
            bits &= bits - 1;
            on_drop(self.departing(way));
            self.clear_way(way);
        }
    }

    /// Rewrites the resident lines' non-zero stamps as their ranks
    /// `1..=k`, oldest first, and leaves BIP's LRU-insert zeros zero: the
    /// order among this set's stamps — all a victim scan reads — is kept,
    /// and a caller that goes on from any `now` above `ways` stays above
    /// every stamp here. Emptied ways keep a stale meta word and are not
    /// ranked. Stamps that tie (a [`crate::SetAssocCache`] writes none:
    /// each is the clock of a different access) rank in way order, the
    /// way the victim scan breaks the tie.
    pub(crate) fn renormalise_stamps(&mut self) {
        let n = self.n();
        let mut order = [(0u32, 0usize); 32];
        let mut k = 0;
        let mut bits = self.occ();
        let metas = &mut self.data.borrow_mut()[n..2 * n];
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
        for (rank, &(_, w)) in (1u32..).zip(&order[..k]) {
            metas[w] = metas[w] & !STAMP_MASK | rank;
        }
    }

    /// [`PackedSet::drain_lines_in`] collecting the dropped lines.
    pub fn invalidate_ways(&mut self, mask: WayMask) -> Vec<LineAddr> {
        let mut dropped = Vec::with_capacity(self.occupancy_in(mask) as usize);
        self.drain_lines_in(mask, |gone| dropped.push(gone.line));
        dropped
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

/// The seed `Vec<Option<LineEntry>>` set implementation, byte-for-byte.
///
/// Kept compiled (not `#[cfg(test)]`) for two consumers: the equivalence
/// property test uses it as the decision oracle, and `dcat-perfbench`
/// measures the packed representation's speedup against it — the ratio
/// recorded in `BENCH_micro.json`. Not part of the supported API.
#[doc(hidden)]
pub mod legacy {
    use super::{insertion_stamp, Evicted, FillResult, LineEntry};
    use crate::address::LineAddr;
    use crate::cache::WayMask;
    use crate::replacement::ReplacementPolicy;

    /// A single set of a set-associative cache (seed representation).
    #[derive(Debug, Clone)]
    pub struct LegacyCacheSet {
        ways: Vec<Option<LineEntry>>,
    }

    impl LegacyCacheSet {
        /// Creates an empty set with the given associativity.
        pub fn new(ways: u32) -> Self {
            LegacyCacheSet {
                ways: vec![None; ways as usize],
            }
        }

        /// Number of ways in this set.
        pub fn way_count(&self) -> u32 {
            self.ways.len() as u32
        }

        /// Policy-aware lookup; see [`super::CacheSet::lookup_with`].
        pub fn lookup_with(
            &mut self,
            line: LineAddr,
            now: u64,
            policy: ReplacementPolicy,
        ) -> Option<u32> {
            for (idx, slot) in self.ways.iter_mut().enumerate() {
                if let Some(entry) = slot {
                    if entry.line == line {
                        if policy.promotes_on_hit() {
                            entry.last_use = now;
                        }
                        return Some(idx as u32);
                    }
                }
            }
            None
        }

        /// Checks residency without perturbing LRU state.
        pub fn probe(&self, line: LineAddr) -> Option<u32> {
            self.ways
                .iter()
                .position(|slot| slot.map(|e| e.line) == Some(line))
                .map(|idx| idx as u32)
        }

        /// Policy-aware fill; see [`super::CacheSet::fill_with`].
        pub fn fill_with(
            &mut self,
            line: LineAddr,
            mask: WayMask,
            now: u64,
            owner: u32,
            policy: ReplacementPolicy,
            draw: u64,
        ) -> FillResult {
            debug_assert!(
                self.probe(line).is_none(),
                "fill of a line that is already resident"
            );
            let insert_stamp = insertion_stamp(policy, now, draw);

            // Prefer an invalid (empty) permitted way; collect candidates.
            let mut candidates: Vec<u32> = Vec::new();
            let mut victim: Option<u32> = None;
            let mut victim_stamp = u64::MAX;
            for way in 0..self.way_count() {
                if !mask.contains(way) {
                    continue;
                }
                match self.ways[way as usize] {
                    None => {
                        self.ways[way as usize] = Some(LineEntry {
                            line,
                            last_use: insert_stamp,
                            owner,
                        });
                        return FillResult { way, evicted: None };
                    }
                    Some(entry) => {
                        candidates.push(way);
                        if entry.last_use < victim_stamp {
                            victim_stamp = entry.last_use;
                            victim = Some(way);
                        }
                    }
                }
            }
            let way = match policy {
                ReplacementPolicy::Random => *candidates
                    .get((draw % candidates.len().max(1) as u64) as usize)
                    .expect("fill mask must permit at least one way"),
                _ => victim.expect("fill mask must permit at least one way"),
            };
            let evicted = self.ways[way as usize].map(|e| Evicted {
                line: e.line,
                owner: e.owner,
                sharers: 0,
            });
            self.ways[way as usize] = Some(LineEntry {
                line,
                last_use: insert_stamp,
                owner,
            });
            FillResult { way, evicted }
        }

        /// Invalidates `line` if resident; returns whether it was.
        pub fn invalidate(&mut self, line: LineAddr) -> bool {
            for slot in self.ways.iter_mut() {
                if slot.map(|e| e.line) == Some(line) {
                    *slot = None;
                    return true;
                }
            }
            false
        }

        /// Clears every way of the set.
        pub fn flush(&mut self) {
            for slot in self.ways.iter_mut() {
                *slot = None;
            }
        }

        /// Number of valid lines currently resident.
        pub fn occupancy(&self) -> u32 {
            self.ways.iter().filter(|s| s.is_some()).count() as u32
        }

        /// Number of valid lines resident in ways permitted by `mask`.
        pub fn occupancy_in(&self, mask: WayMask) -> u32 {
            self.ways
                .iter()
                .enumerate()
                .filter(|(idx, slot)| slot.is_some() && mask.contains(*idx as u32))
                .count() as u32
        }

        /// Number of valid lines filled by `owner`.
        pub fn occupancy_of(&self, owner: u32) -> u32 {
            self.ways
                .iter()
                .filter(|s| s.map(|e| e.owner) == Some(owner))
                .count() as u32
        }

        /// Iterates over resident lines (ascending way order).
        pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
            self.ways.iter().filter_map(|s| s.map(|e| e.line))
        }

        /// Invalidates every line in the ways permitted by `mask`.
        pub fn invalidate_ways(&mut self, mask: WayMask) -> Vec<LineAddr> {
            let mut dropped = Vec::new();
            for (way, slot) in self.ways.iter_mut().enumerate() {
                if mask.contains(way as u32) {
                    if let Some(entry) = slot.take() {
                        dropped.push(entry.line);
                    }
                }
            }
            dropped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_mask(ways: u32) -> WayMask {
        WayMask::from_way_range(0, ways)
    }

    #[test]
    fn fill_then_lookup_hits() {
        let mut set = CacheSet::new(4);
        set.fill(LineAddr(7), full_mask(4), 1, 0);
        assert!(set.lookup(LineAddr(7), 2).is_some());
        assert!(set.lookup(LineAddr(8), 3).is_none());
    }

    #[test]
    fn fill_prefers_empty_way() {
        let mut set = CacheSet::new(2);
        let r1 = set.fill(LineAddr(1), full_mask(2), 1, 0);
        let r2 = set.fill(LineAddr(2), full_mask(2), 2, 0);
        assert_eq!(r1.evicted, None);
        assert_eq!(r2.evicted, None);
        assert_ne!(r1.way, r2.way);
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut set = CacheSet::new(2);
        set.fill(LineAddr(1), full_mask(2), 1, 0);
        set.fill(LineAddr(2), full_mask(2), 2, 0);
        // Touch line 1 so line 2 becomes LRU.
        set.lookup(LineAddr(1), 3);
        let r = set.fill(LineAddr(3), full_mask(2), 4, 0);
        assert_eq!(r.evicted.map(|e| e.line), Some(LineAddr(2)));
        assert!(set.probe(LineAddr(1)).is_some());
    }

    #[test]
    fn masked_fill_only_claims_permitted_ways() {
        let mut set = CacheSet::new(4);
        let low = WayMask::from_way_range(0, 2);
        for i in 0..8 {
            set.fill(LineAddr(i), low, i, 0);
        }
        // Only the two permitted ways are ever occupied.
        assert_eq!(set.occupancy(), 2);
        assert_eq!(set.occupancy_in(low), 2);
        assert_eq!(set.occupancy_in(WayMask::from_way_range(2, 2)), 0);
    }

    #[test]
    fn masked_fill_does_not_evict_other_partition() {
        let mut set = CacheSet::new(4);
        let low = WayMask::from_way_range(0, 2);
        let high = WayMask::from_way_range(2, 2);
        set.fill(LineAddr(100), high, 1, 0);
        for i in 0..10 {
            set.fill(LineAddr(i), low, 2 + i, 0);
        }
        // The high-partition line survives low-partition thrashing: that is
        // exactly the isolation CAT provides.
        assert!(set.probe(LineAddr(100)).is_some());
    }

    #[test]
    fn hit_possible_outside_fill_mask() {
        let mut set = CacheSet::new(4);
        let high = WayMask::from_way_range(2, 2);
        set.fill(LineAddr(5), high, 1, 0);
        // A core whose mask excludes ways 2-3 still *hits* on the line.
        assert!(set.lookup(LineAddr(5), 2).is_some());
    }

    #[test]
    fn invalidate_removes_line() {
        let mut set = CacheSet::new(2);
        set.fill(LineAddr(9), full_mask(2), 1, 0);
        assert!(set.invalidate(LineAddr(9)));
        assert!(!set.invalidate(LineAddr(9)));
        assert_eq!(set.occupancy(), 0);
    }

    #[test]
    fn flush_empties_set() {
        let mut set = CacheSet::new(4);
        for i in 0..4 {
            set.fill(LineAddr(i), full_mask(4), i, 0);
        }
        set.flush();
        assert_eq!(set.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn empty_mask_fill_panics_when_full() {
        let mut set = CacheSet::new(2);
        // A mask outside the set's associativity behaves like an empty mask.
        let bad = WayMask::from_way_range(2, 2);
        set.fill(LineAddr(1), bad, 1, 0);
    }

    #[test]
    fn occupancy_of_attributes_by_filling_owner() {
        let mut set = CacheSet::new(4);
        set.fill(LineAddr(1), full_mask(4), 1, 7);
        set.fill(LineAddr(2), full_mask(4), 2, 7);
        set.fill(LineAddr(3), full_mask(4), 3, 9);
        assert_eq!(set.occupancy_of(7), 2);
        assert_eq!(set.occupancy_of(9), 1);
        assert_eq!(set.occupancy_of(0), 0);
    }

    #[test]
    fn sharer_mask_leaves_with_the_line_and_never_disturbs_the_owner() {
        let mut set = CacheSet::new(2);
        let a = set.fill(LineAddr(1), full_mask(2), 1, 5);
        set.add_sharer(a.way, 5);
        set.add_sharer(a.way, 31);
        let b = set.fill(LineAddr(2), full_mask(2), 2, 6);
        assert_eq!(set.occupancy_of(5), 1, "sharer bits are not the owner");
        let r = set.fill(LineAddr(3), full_mask(2), 3, 7);
        assert_eq!(
            r.evicted,
            Some(Evicted {
                line: LineAddr(1),
                owner: 5,
                sharers: (1 << 5) | (1 << 31),
            })
        );
        // The refilled way starts with no sharers; an untouched line has none.
        assert_eq!(r.way, a.way);
        assert_eq!(set.remove(LineAddr(3)).map(|e| e.sharers), Some(0));
        let gone = set.remove(LineAddr(2)).expect("line 2 is resident");
        assert_eq!((gone.owner, gone.sharers, b.way), (6, 0, 1));
        assert_eq!(set.remove(LineAddr(2)), None);
    }

    #[test]
    #[should_panic(expected = "32 requestors")]
    fn sharer_beyond_the_mask_is_rejected() {
        let mut set = CacheSet::new(2);
        let r = set.fill(LineAddr(1), full_mask(2), 1, 0);
        set.add_sharer(r.way, MAX_SHARERS);
    }

    #[test]
    #[should_panic(expected = "27-bit field")]
    fn stamp_beyond_the_field_is_rejected() {
        let mut set = CacheSet::new(2);
        set.fill(LineAddr(1), full_mask(2), MAX_STAMP, 0);
        set.lookup(LineAddr(1), MAX_STAMP + 1);
    }

    #[test]
    #[should_panic(expected = "5-bit field")]
    fn filler_beyond_the_field_is_rejected() {
        let mut set = CacheSet::new(2);
        set.fill(LineAddr(1), full_mask(2), 1, MAX_SHARERS);
    }

    #[test]
    fn resident_lines_iterates_in_way_order() {
        let mut set = CacheSet::new(4);
        set.fill(LineAddr(30), full_mask(4), 1, 0);
        set.fill(LineAddr(10), full_mask(4), 2, 0);
        set.invalidate(LineAddr(30));
        set.fill(LineAddr(20), WayMask::from_way_range(2, 2), 3, 0);
        let lines: Vec<LineAddr> = set.resident_lines().collect();
        assert_eq!(lines, vec![LineAddr(10), LineAddr(20)]);
    }

    #[test]
    fn invalidate_ways_reports_dropped_lines_ascending() {
        let mut set = CacheSet::new(4);
        for i in 0..4u64 {
            set.fill(LineAddr(i), full_mask(4), i, 0);
        }
        let dropped = set.invalidate_ways(WayMask::from_way_range(1, 2));
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
        let mask = WayMask::all(32);
        for i in 0..32u64 {
            assert_eq!(set.fill(LineAddr(i), mask, i + 1, 0).evicted, None);
        }
        assert_eq!(set.occupancy(), 32);
        let r = set.fill(LineAddr(99), mask, 100, 0);
        assert_eq!(
            r.evicted.map(|e| e.line),
            Some(LineAddr(0)),
            "way 0 held the oldest stamp"
        );
    }
}
