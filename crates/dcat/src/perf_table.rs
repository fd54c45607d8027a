//! Per-phase performance tables (paper Section 3.5, Table 1).
//!
//! For each workload phase dCat records the normalized IPC (relative to
//! the baseline IPC at the reserved allocation) observed at each way
//! count. The table serves three purposes:
//!
//! * when the same phase recurs, the workload is granted its **preferred**
//!   allocation immediately instead of re-discovering it one way per
//!   interval (Figure 12),
//! * the **max-performance** allocation policy searches the tables of all
//!   workloads for the way split maximizing total normalized IPC, and
//! * it documents whether growth ever helped, feeding the
//!   Unknown → Receiver/Streaming determination.

// Counter math: no silent truncation or sign change (DESIGN.md §12).
#![cfg_attr(not(test), deny(clippy::as_conversions))]

/// Widens a way count for indexing. `u32 -> usize` cannot truncate on any
/// supported target; routing through `try_from` keeps the conversion
/// explicit and the cast-safety lint clean. The fallback is unreachable
/// and merely keeps the tick path panic-free.
fn widen(ways: u32) -> usize {
    usize::try_from(ways).unwrap_or(usize::MAX)
}

/// Narrows a table index back to a way count. Table sizes are bounded by
/// `max_ways: u32`, so the conversion cannot fail for in-table indices;
/// the saturating fallback keeps the tick path panic-free regardless.
fn narrow(index: usize) -> u32 {
    u32::try_from(index).unwrap_or(u32::MAX)
}

/// Normalized-IPC-per-way-count table for one workload phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceTable {
    /// `entries[w]` = normalized IPC at `w` ways (index 0 unused).
    entries: Vec<Option<f64>>,
}

impl PerformanceTable {
    /// Creates an empty table for caches of up to `max_ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `max_ways` is zero.
    pub fn new(max_ways: u32) -> Self {
        assert!(max_ways >= 1, "table needs at least one way");
        PerformanceTable {
            entries: vec![None; widen(max_ways) + 1],
        }
    }

    /// Maximum way count the table covers.
    pub fn max_ways(&self) -> u32 {
        narrow(self.entries.len() - 1)
    }

    /// Records an observation of `norm_ipc` at `ways`, blending with any
    /// existing entry (equal-weight EWMA smooths interval noise).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or beyond the table.
    #[expect(
        clippy::indexing_slicing,
        reason = "the assert bounds `ways` by `max_ways()`, and `entries` holds `max_ways() + 1` slots"
    )]
    pub fn record(&mut self, ways: u32, norm_ipc: f64) {
        assert!(
            ways >= 1 && ways <= self.max_ways(),
            "ways {ways} out of table range"
        );
        let slot = &mut self.entries[widen(ways)];
        *slot = Some(match *slot {
            None => norm_ipc,
            Some(prev) => 0.5 * prev + 0.5 * norm_ipc,
        });
    }

    /// The recorded normalized IPC at `ways`, if any.
    #[expect(
        clippy::indexing_slicing,
        reason = "the early return bounds `ways` by `max_ways()`, and `entries` holds `max_ways() + 1` slots"
    )]
    pub fn get(&self, ways: u32) -> Option<f64> {
        if ways == 0 || ways > self.max_ways() {
            return None;
        }
        self.entries[widen(ways)]
    }

    /// Whether no observation has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(Option::is_none)
    }

    /// Number of recorded entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// The *preferred* allocation: the smallest way count whose normalized
    /// IPC is within `tolerance` of the table's maximum (the paper's
    /// Table 1 marks 6 ways preferred because 7 and 8 add nothing).
    pub(crate) fn preferred_ways(&self, tolerance: f64) -> Option<u32> {
        let max = self
            .entries
            .iter()
            .flatten()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        // Still at the seed: the table has no finite entries.
        if max.is_infinite() {
            return None;
        }
        self.entries
            .iter()
            .enumerate()
            .find(|(_, e)| matches!(e, Some(v) if *v >= max - tolerance))
            .map(|(w, _)| narrow(w))
    }

    /// Iterates over `(ways, norm_ipc)` pairs in ascending way order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(w, e)| e.map(|v| (narrow(w), v)))
    }
}

/// Finds the way split across workloads maximizing the sum of normalized
/// IPCs, subject to a total way budget (paper Section 3.5:
/// `Max(Σ norm_IPC_i)` s.t. `Σ ways_i ≤ m`).
///
/// Each workload contributes its table's recorded `(ways, value)` options;
/// workloads must take exactly one option. Returns the chosen way count per
/// workload, or `None` when some workload has an empty table or no
/// combination fits the budget.
#[expect(
    clippy::indexing_slicing,
    reason = "loop-bounded: `used <= total` indexes the `total + 1` budget points, and `i` one entry per table; `.get()` would cost the tick (DESIGN.md §12)"
)]
pub fn max_performance_split(tables: &[&PerformanceTable], total_ways: u32) -> Option<Vec<u32>> {
    let total = widen(total_ways);
    // dp[w] = best total value using exactly the workloads processed so
    // far and w ways; choice[i][w] = ways given to workload i in that
    // optimum.
    let mut dp = vec![f64::NEG_INFINITY; total + 1];
    if let Some(base) = dp.first_mut() {
        *base = 0.0;
    }
    let mut choices: Vec<Vec<u32>> = Vec::with_capacity(tables.len());
    for table in tables {
        if table.is_empty() {
            return None;
        }
        let mut next = vec![f64::NEG_INFINITY; total + 1];
        let mut choice = vec![0u32; total + 1];
        for (ways, value) in table.iter() {
            let w = widen(ways);
            for used in w..=total {
                let Some(&prev) = dp.get(used - w) else {
                    continue;
                };
                // Unreachable budget point (still the -inf seed).
                if prev.is_infinite() {
                    continue;
                }
                let cand = prev + value;
                if cand > next[used] {
                    next[used] = cand;
                    choice[used] = ways;
                }
            }
        }
        dp = next;
        choices.push(choice);
    }
    // Best budget point.
    let (mut used, best) = dp.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
    if best.is_infinite() {
        return None;
    }
    // Walk back through the per-workload choices.
    let mut result = vec![0u32; tables.len()];
    for i in (0..tables.len()).rev() {
        let ways = choices[i][used];
        result[i] = ways;
        used -= widen(ways);
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's Table 1.
    fn paper_table() -> PerformanceTable {
        let mut t = PerformanceTable::new(8);
        t.record(2, 0.9);
        t.record(3, 1.0); // baseline
        t.record(4, 1.15);
        t.record(5, 1.25);
        t.record(6, 1.3); // preferred
        t.record(7, 1.3);
        t.record(8, 1.3);
        t
    }

    #[test]
    fn record_and_get() {
        let mut t = PerformanceTable::new(4);
        assert!(t.is_empty());
        t.record(2, 1.1);
        assert_eq!(t.get(2), Some(1.1));
        assert_eq!(t.get(3), None);
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(9), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn repeated_records_blend() {
        let mut t = PerformanceTable::new(4);
        t.record(2, 1.0);
        t.record(2, 2.0);
        assert_eq!(t.get(2), Some(1.5));
    }

    #[test]
    fn preferred_ways_matches_paper_table_1() {
        // Table 1 marks 6 ways as preferred: the smallest allocation
        // reaching the maximum normalized IPC (1.3).
        assert_eq!(paper_table().preferred_ways(1e-9), Some(6));
    }

    #[test]
    fn preferred_ways_with_tolerance() {
        // With a 5% tolerance, 5 ways (1.25) is close enough to 1.3.
        assert_eq!(paper_table().preferred_ways(0.05), Some(5));
        assert_eq!(PerformanceTable::new(8).preferred_ways(0.0), None);
    }

    #[test]
    fn split_reproduces_paper_example() {
        // Paper Section 3.5: A = (3:1.05) (4:1.08) (5:1.12),
        // B = (3:1.1) (4:1.2) (5:1.25), both with (2:1.0); budget 8 ways
        // after C reclaims 2. Optimal: A=3, B=5 (sum 2.3).
        let mut a = PerformanceTable::new(10);
        a.record(2, 1.0);
        a.record(3, 1.05);
        a.record(4, 1.08);
        a.record(5, 1.12);
        let mut b = PerformanceTable::new(10);
        b.record(2, 1.0);
        b.record(3, 1.1);
        b.record(4, 1.2);
        b.record(5, 1.25);
        let split = max_performance_split(&[&a, &b], 8).unwrap();
        assert_eq!(split, vec![3, 5]);
    }

    #[test]
    fn split_respects_budget() {
        let mut a = PerformanceTable::new(10);
        a.record(4, 2.0);
        a.record(2, 1.0);
        let mut b = PerformanceTable::new(10);
        b.record(4, 2.0);
        b.record(2, 1.0);
        // Budget 6: cannot give both 4; best is 4+2 (value 3.0).
        let split = max_performance_split(&[&a, &b], 6).unwrap();
        assert_eq!(split.iter().sum::<u32>(), 6);
        assert!(split.contains(&4) && split.contains(&2));
    }

    #[test]
    fn split_fails_on_empty_table_or_impossible_budget() {
        let empty = PerformanceTable::new(10);
        let mut full = PerformanceTable::new(10);
        full.record(5, 1.0);
        assert!(max_performance_split(&[&empty, &full], 10).is_none());
        // Both need 5 ways but the budget is 4.
        assert!(max_performance_split(&[&full, &full], 4).is_none());
    }

    #[test]
    #[should_panic(expected = "out of table range")]
    fn record_beyond_range_panics() {
        let mut t = PerformanceTable::new(4);
        t.record(5, 1.0);
    }
}
