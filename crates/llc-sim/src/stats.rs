//! Mapping statistics used by the paper's conflict-miss analysis.
//!
//! Figure 3 of the paper plots, for a fixed working set, the histogram of
//! how many of the working set's cache lines land in each LLC set. With
//! randomized 4 KiB frames the distribution has a heavy tail: even when the
//! partition's *capacity* equals the working set, ~30% of sets receive more
//! lines than the partition has ways, producing conflict misses.

use std::collections::BTreeMap;

use crate::address::PhysAddr;
use crate::geometry::CacheGeometry;

/// Histogram of lines-per-set for a collection of physical lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetOccupancyHistogram {
    /// `buckets[k]` = number of sets with exactly `k` lines mapped to them.
    pub buckets: Vec<u64>,
    /// Total number of sets in the cache.
    pub total_sets: u64,
}

impl SetOccupancyHistogram {
    /// Builds the histogram for the lines of `addrs` under `geometry`.
    ///
    /// Duplicate lines are counted once — the histogram describes the
    /// working set, not the access stream.
    pub fn from_lines<I>(geometry: CacheGeometry, addrs: I) -> Self
    where
        I: IntoIterator<Item = PhysAddr>,
    {
        // BTreeMap, not HashMap: the histogram fill below iterates the
        // map, and iteration order must not depend on the hasher seed.
        let mut per_set: BTreeMap<u32, u64> = BTreeMap::new();
        let mut seen = std::collections::BTreeSet::new();
        for addr in addrs {
            let line = addr.line();
            if seen.insert(line) {
                *per_set.entry(geometry.set_index(line)).or_insert(0) += 1;
            }
        }
        let max = per_set.values().copied().max().unwrap_or(0) as usize;
        let mut buckets = vec![0u64; max + 1];
        for &count in per_set.values() {
            buckets[count as usize] += 1;
        }
        let occupied: u64 = buckets.iter().skip(1).sum();
        buckets[0] = u64::from(geometry.sets) - occupied;
        SetOccupancyHistogram {
            buckets,
            total_sets: u64::from(geometry.sets),
        }
    }

    /// Fraction of sets with at least `k` lines mapped.
    ///
    /// The paper's headline statistic is "sets with 3 or more lines" for a
    /// 2-way partition — sets guaranteed to conflict.
    pub fn fraction_with_at_least(&self, k: usize) -> f64 {
        if self.total_sets == 0 {
            return 0.0;
        }
        let n: u64 = self.buckets.iter().skip(k).sum();
        n as f64 / self.total_sets as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(4, 2, 64)
    }

    #[test]
    fn uniform_mapping_has_no_conflicts() {
        // 8 consecutive lines over 4 sets: exactly 2 per set.
        let addrs = (0..8u64).map(|i| PhysAddr(i * 64));
        let h = SetOccupancyHistogram::from_lines(geom(), addrs);
        assert_eq!(h.buckets, vec![0, 0, 4]);
    }

    #[test]
    fn skewed_mapping_counts_conflicts() {
        // 4 lines all in set 0 (stride = sets * line).
        let addrs = (0..4u64).map(|i| PhysAddr(i * 4 * 64));
        let h = SetOccupancyHistogram::from_lines(geom(), addrs);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets[0], 3);
        assert!((h.fraction_with_at_least(3) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn duplicate_lines_counted_once() {
        let addrs = vec![PhysAddr(0), PhysAddr(8), PhysAddr(32)]; // same line
        let h = SetOccupancyHistogram::from_lines(geom(), addrs);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[0], 3);
    }

    #[test]
    fn empty_working_set() {
        let h = SetOccupancyHistogram::from_lines(geom(), std::iter::empty());
        assert_eq!(h.buckets, vec![4]);
        assert_eq!(h.fraction_with_at_least(1), 0.0);
    }
}
