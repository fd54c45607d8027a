//! A private (single-requestor, unpartitioned, LRU) cache as per-set
//! recency lists.
//!
//! CAT partitions the shared LLC only. A core's L1 and L2 have one
//! requestor, the full fill mask and plain LRU, and for that case the
//! machinery of [`crate::SetAssocCache`] — a clock, a stamp per line, an
//! occupancy word, an owner word, a victim scan — only ever encodes one
//! thing: the order in which a set's lines were last used. This type
//! stores that order directly:
//!
//! ```text
//! set s: [ tag_0 (MRU) .. tag_k (LRU) | EMPTY .. EMPTY ]     `ways` u64 slots
//! ```
//!
//! A hit moves the tag to the front, a fill shifts the set down one slot
//! and drops the tail, an invalidate closes the gap. Empty slots hold
//! `EMPTY` and always sit at the tail, so a fill consumes a free way
//! before it evicts a line, exactly as the stamped set does. *Which way*
//! holds a line is the only thing the two representations disagree on, and
//! nothing can observe it: there is no mask and no per-way query, only
//! residency. `tests/machine_differential.rs` holds it to a plain model.
//!
//! An 8-way set is 64 bytes, one host cache line: 8 bytes a simulated
//! line. The LLC's stamped layout spends 4 a line and 6 a set on its
//! 16-bit tags, filler id, shared bit and stamps, but every hit there
//! writes a stamp and every fill scans them.

use crate::address::LineAddr;
use crate::geometry::CacheGeometry;

/// Tag of an empty slot. Line numbers are physical addresses shifted right
/// by the line offset, so none reaches `u64::MAX`.
const EMPTY: u64 = u64::MAX;

/// One core's L1 or L2: set-associative, LRU, filled anywhere.
#[derive(Debug, Clone)]
pub struct PrivateCache {
    geometry: CacheGeometry,
    // `sets × ways` tags, each set's run in recency order.
    tags: Vec<u64>,
}

impl PrivateCache {
    /// Creates an empty cache of the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        PrivateCache {
            geometry,
            tags: vec![EMPTY; geometry.sets as usize * geometry.ways as usize],
        }
    }

    /// The tag array, borrowed for as long as the caller holds it: what a
    /// [`crate::CoreSlice`] keeps of its core's L1 and L2, so that a
    /// reference reaches its set without going through the cache. The
    /// shape is read once, here, instead of once per reference.
    #[inline(always)]
    pub(crate) fn hold(&mut self) -> HeldCache<'_> {
        let geometry = self.geometry;
        if geometry.ways == 8 && geometry.sets.is_power_of_two() {
            HeldCache::EightWays {
                set_mask: u64::from(geometry.sets - 1),
                sets: self.tags.as_chunks_mut().0,
            }
        } else {
            HeldCache::AnyShape {
                geometry,
                tags: &mut self.tags,
            }
        }
    }

    /// Looks `line` up and, if resident, makes it the set's most recently
    /// used. A miss changes nothing. Returns whether the line was resident.
    #[inline(always)]
    pub fn touch(&mut self, line: LineAddr) -> bool {
        self.hold().touch(line)
    }

    /// Fills a line the caller knows is absent (it just missed a
    /// [`PrivateCache::touch`]) as the most recently used, and returns the
    /// least recently used line if the set had no free way.
    #[inline(always)]
    pub fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.hold().fill(line)
    }

    /// One access: a hit refreshes recency, a miss fills the line (the
    /// displaced line, if any, is simply gone). Returns whether it hit.
    #[inline(always)]
    pub fn access(&mut self, line: LineAddr) -> bool {
        self.hold().access(line)
    }

    /// Checks residency without updating recency.
    pub fn probe(&self, line: LineAddr) -> bool {
        self.tags[run_of(self.geometry, line)].contains(&line.0)
    }

    /// Drops `line` if resident; returns whether it was.
    #[inline]
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        self.hold().invalidate(line)
    }

    /// Empties the whole cache.
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
    }
}

/// A [`PrivateCache`]'s tag array on loan: the same four operations on the
/// same sets, reached through a slice the holder keeps instead of through
/// the cache.
#[derive(Debug)]
pub(crate) enum HeldCache<'a> {
    /// 8 ways and a power-of-two set count — every L1 and L2 the
    /// experiments build: a set is one `[u64; 8]`, found by a mask.
    EightWays {
        set_mask: u64,
        sets: &'a mut [[u64; 8]],
    },
    /// Any other shape.
    AnyShape {
        geometry: CacheGeometry,
        tags: &'a mut [u64],
    },
}

impl HeldCache<'_> {
    /// The same array, lent on for a shorter while.
    #[inline(always)]
    pub(crate) fn reborrow(&mut self) -> HeldCache<'_> {
        match self {
            HeldCache::EightWays { set_mask, sets } => HeldCache::EightWays {
                set_mask: *set_mask,
                sets,
            },
            HeldCache::AnyShape { geometry, tags } => HeldCache::AnyShape {
                geometry: *geometry,
                tags,
            },
        }
    }

    /// Runs `op` on `line`'s set, its length known to the compiler when it
    /// is 8.
    #[inline(always)]
    fn with_set<R>(&mut self, line: LineAddr, op: impl Fn(&mut [u64]) -> R) -> R {
        match self {
            HeldCache::EightWays { set_mask, sets } => op(&mut sets[(line.0 & *set_mask) as usize]),
            HeldCache::AnyShape { geometry, tags } => {
                with_known_length(&mut tags[run_of(*geometry, line)], op)
            }
        }
    }

    /// [`PrivateCache::touch`].
    #[inline(always)]
    pub(crate) fn touch(&mut self, line: LineAddr) -> bool {
        self.with_set(line, |set| promote(set, line.0))
    }

    /// [`PrivateCache::fill`].
    #[inline(always)]
    pub(crate) fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        debug_assert!(
            !self.with_set(line, |set| set.contains(&line.0)),
            "fill of a line that is already resident"
        );
        self.with_set(line, |set| push_front(set, line.0))
    }

    /// [`PrivateCache::access`].
    #[inline(always)]
    pub(crate) fn access(&mut self, line: LineAddr) -> bool {
        self.with_set(line, |set| {
            let hit = promote(set, line.0);
            if !hit {
                push_front(set, line.0);
            }
            hit
        })
    }

    /// [`PrivateCache::invalidate`].
    #[inline]
    pub(crate) fn invalidate(&mut self, line: LineAddr) -> bool {
        self.with_set(line, |set| remove(set, line.0))
    }
}

/// Where `line`'s set sits in a tag array of this geometry.
#[inline(always)]
fn run_of(geometry: CacheGeometry, line: LineAddr) -> std::ops::Range<usize> {
    let ways = geometry.ways as usize;
    let start = geometry.set_index(line) as usize * ways;
    start..start + ways
}

/// Runs `op` on one set, telling the compiler the length when it is 8 ways:
/// the shifts below are then a few vector moves instead of a `memmove` call
/// or a loop.
#[inline(always)]
fn with_known_length<R>(set: &mut [u64], op: impl Fn(&mut [u64]) -> R) -> R {
    match <&mut [u64; 8]>::try_from(&mut *set) {
        Ok(eight) => op(eight),
        Err(_) => op(set),
    }
}

/// Moves `tag` to the front if the set holds it; says whether it did.
#[inline(always)]
fn promote(set: &mut [u64], tag: u64) -> bool {
    let Some(at) = set.iter().position(|&t| t == tag) else {
        return false;
    };
    if at != 0 {
        // Slots `..at` move down one. A select per slot, not
        // `copy_within(..at, 1)`: the copy's length is only known at run
        // time, the loop's is the set's.
        for i in (1..set.len()).rev() {
            set[i] = if i <= at { set[i - 1] } else { set[i] };
        }
        set[0] = tag;
    }
    true
}

/// Puts `tag`, which the set does not hold, at the front; returns the
/// line that fell off the tail.
#[inline(always)]
fn push_front(set: &mut [u64], tag: u64) -> Option<LineAddr> {
    debug_assert_ne!(tag, EMPTY, "line address collides with the sentinel");
    let last = set.len() - 1;
    let tail = set[last];
    set.copy_within(..last, 1);
    set[0] = tag;
    (tail != EMPTY).then_some(LineAddr(tail))
}

/// Drops `tag` if the set holds it, closing the gap so that the empty
/// slot is at the tail; says whether it did.
#[inline(always)]
fn remove(set: &mut [u64], tag: u64) -> bool {
    let Some(at) = set.iter().position(|&t| t == tag) else {
        return false;
    };
    let last = set.len() - 1;
    for i in 0..last {
        set[i] = if i >= at { set[i + 1] } else { set[i] };
    }
    set[last] = EMPTY;
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_set(ways: u32) -> PrivateCache {
        PrivateCache::new(CacheGeometry::new(1, ways, 64))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = PrivateCache::new(CacheGeometry::new(16, 4, 64));
        assert!(!c.access(LineAddr(1)));
        assert!(c.access(LineAddr(1)));
        assert!(c.probe(LineAddr(1)));
        assert!(!c.probe(LineAddr(17)), "same set, another line");
    }

    #[test]
    fn fill_evicts_the_least_recently_used_once_the_set_is_full() {
        let mut c = one_set(2);
        assert_eq!(c.fill(LineAddr(1)), None);
        assert_eq!(c.fill(LineAddr(2)), None);
        // Touch line 1 so line 2 becomes LRU.
        assert!(c.touch(LineAddr(1)));
        assert_eq!(c.fill(LineAddr(3)), Some(LineAddr(2)));
        assert!(c.probe(LineAddr(1)) && c.probe(LineAddr(3)));
    }

    #[test]
    fn a_missed_touch_changes_nothing() {
        let mut c = one_set(2);
        c.fill(LineAddr(1));
        c.fill(LineAddr(2));
        assert!(!c.touch(LineAddr(9)));
        assert_eq!(c.fill(LineAddr(3)), Some(LineAddr(1)));
    }

    #[test]
    fn invalidate_frees_a_way_the_next_fill_takes() {
        let mut c = one_set(3);
        for l in 1..=3 {
            c.fill(LineAddr(l));
        }
        assert!(c.invalidate(LineAddr(2)));
        assert!(!c.invalidate(LineAddr(2)));
        assert_eq!(c.fill(LineAddr(4)), None, "the freed way comes first");
        assert_eq!(c.fill(LineAddr(5)), Some(LineAddr(1)));
    }

    #[test]
    fn flush_empties_every_set() {
        let mut c = PrivateCache::new(CacheGeometry::new(3, 2, 64));
        for l in 0..6 {
            c.access(LineAddr(l));
        }
        c.flush();
        assert!((0..6).all(|l| !c.probe(LineAddr(l))));
        assert_eq!(c.fill(LineAddr(0)), None);
    }
}
