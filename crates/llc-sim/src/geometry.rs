//! Cache geometry: sets, ways, line size, and indexing.
//!
//! Real Xeon LLCs are sliced and use a hash of the physical address to pick
//! a slice; within a slice, indexing is a simple bit-field extraction. We
//! model the whole LLC as one array and index with `line_number % sets`,
//! which reduces to bit extraction for power-of-two set counts and is a
//! faithful-enough spread for the non-power-of-two LLCs of the paper's
//! machines (the Xeon-E5 v4 has 45 MiB / 20 ways / 64 B = 36 864 sets).

use crate::address::{LineAddr, LINE_SIZE};

/// Static shape of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets.
    pub sets: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes. Always 64 in this simulator, kept explicit so
    /// capacity arithmetic is self-describing.
    pub(crate) line_size: u32,
}

impl CacheGeometry {
    /// Creates a geometry, panicking on degenerate shapes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or if `ways > 32` (way masks are
    /// 32-bit; no CAT-capable part exceeds 20 ways).
    pub fn new(sets: u32, ways: u32, line_size: u32) -> Self {
        assert!(sets > 0, "cache must have at least one set");
        assert!(ways > 0, "cache must have at least one way");
        assert!(ways <= 32, "way masks are 32-bit");
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        CacheGeometry {
            sets,
            ways,
            line_size,
        }
    }

    /// Builds a geometry from a total capacity in bytes and an associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of `ways * 64`.
    pub fn from_capacity(capacity_bytes: u64, ways: u32) -> Self {
        let per_way = capacity_bytes / u64::from(ways);
        assert_eq!(
            per_way * u64::from(ways),
            capacity_bytes,
            "capacity must divide evenly into ways"
        );
        let sets = per_way / LINE_SIZE;
        assert_eq!(
            sets * LINE_SIZE,
            per_way,
            "way capacity must divide into lines"
        );
        CacheGeometry::new(sets as u32, ways, LINE_SIZE as u32)
    }

    /// Capacity of a single way in bytes.
    #[inline]
    pub(crate) fn way_bytes(&self) -> u64 {
        u64::from(self.sets) * u64::from(self.line_size)
    }

    /// Maps a line address to its set index: `line % sets`, computed as a
    /// mask for power-of-two set counts (every L1/L2 here) and as a 32-bit
    /// remainder whenever the line number fits — the 36 864-set LLC over a
    /// 4 GiB pool always does — since a 64-bit `div` costs several times
    /// a 32-bit one. All three forms give the same index.
    #[inline]
    pub fn set_index(&self, line: LineAddr) -> u32 {
        if self.sets.is_power_of_two() {
            (line.0 & u64::from(self.sets - 1)) as u32
        } else if let Ok(narrow) = u32::try_from(line.0) {
            narrow % self.sets
        } else {
            (line.0 % u64::from(self.sets)) as u32
        }
    }

    /// The 8-way 32 KiB L1 data cache used by both evaluation machines.
    pub fn l1d() -> Self {
        CacheGeometry::from_capacity(32 * 1024, 8)
    }

    /// The 8-way 256 KiB private L2 used by both evaluation machines.
    pub fn l2() -> Self {
        CacheGeometry::from_capacity(256 * 1024, 8)
    }

    /// The Xeon-D LLC from the paper: 12-way, 12 MiB.
    pub fn xeon_d_llc() -> Self {
        CacheGeometry::from_capacity(12 * 1024 * 1024, 12)
    }

    /// The Xeon-E5 v4 LLC from the paper: 20-way, 45 MiB (2.25 MiB per way).
    pub fn xeon_e5_llc() -> Self {
        CacheGeometry::from_capacity(45 * 1024 * 1024, 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_round_trips() {
        let g = CacheGeometry::from_capacity(45 * 1024 * 1024, 20);
        assert_eq!(g.way_bytes() * u64::from(g.ways), 45 * 1024 * 1024);
        assert_eq!(g.sets, 36_864);
        assert_eq!(g.way_bytes(), 45 * 1024 * 1024 / 20);
    }

    #[test]
    fn xeon_presets_match_paper() {
        // "a 20-way 45 MB LLC. The capacity of each cache way is 2.25 MB."
        let e5 = CacheGeometry::xeon_e5_llc();
        assert_eq!(e5.ways, 20);
        assert_eq!(e5.way_bytes(), 2_359_296); // 2.25 MiB
        let d = CacheGeometry::xeon_d_llc();
        assert_eq!(d.ways, 12);
        assert_eq!(d.way_bytes() * u64::from(d.ways), 12 * 1024 * 1024);
    }

    #[test]
    fn set_index_wraps_modulo() {
        let g = CacheGeometry::new(100, 4, 64);
        assert_eq!(g.set_index(LineAddr(0)), 0);
        assert_eq!(g.set_index(LineAddr(99)), 99);
        assert_eq!(g.set_index(LineAddr(100)), 0);
        assert_eq!(g.set_index(LineAddr(250)), 50);
    }

    #[test]
    fn power_of_two_index_matches_bit_extraction() {
        let g = CacheGeometry::new(1024, 8, 64);
        for line in [0u64, 1, 1023, 1024, 123_456_789] {
            assert_eq!(u64::from(g.set_index(LineAddr(line))), line & 1023);
        }
    }

    #[test]
    fn every_index_path_agrees_with_the_plain_remainder() {
        let lines = [
            0u64,
            1,
            36_863,
            36_864,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            (1 << 40) + 12_345,
            u64::MAX - 1,
        ];
        for sets in [1u32, 2, 64, 100, 36_864, 1 << 31, u32::MAX] {
            let g = CacheGeometry::new(sets, 4, 64);
            for line in lines {
                assert_eq!(
                    u64::from(g.set_index(LineAddr(line))),
                    line % u64::from(sets),
                    "sets={sets} line={line}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "way masks are 32-bit")]
    fn rejects_excessive_associativity() {
        let _ = CacheGeometry::new(64, 33, 64);
    }

    #[test]
    #[should_panic(expected = "capacity must divide evenly")]
    fn rejects_non_dividing_capacity() {
        let _ = CacheGeometry::from_capacity(1000, 3);
    }
}
