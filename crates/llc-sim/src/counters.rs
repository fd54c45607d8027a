//! Per-core event counters mirroring the paper's Table 2 MSR events.
//!
//! dCat reads five events per core: L1 references, LLC references, LLC
//! misses, retired instructions, and unhalted cycles. The simulator
//! maintains exactly those (plus L2 figures used by the latency model) and
//! the `perf-events` crate turns raw counts into the derived metrics the
//! controller consumes.

// Counter math: no silent truncation or sign change (DESIGN.md §12).
#![cfg_attr(not(test), deny(clippy::as_conversions))]

/// Monotonic per-core event counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// L1 data-cache references. Every load/store counts, hit or miss;
    /// the paper uses this to estimate memory accesses per instruction.
    pub l1_ref: u64,
    /// L1 misses (therefore L2 references).
    pub l1_miss: u64,
    /// L2 misses (therefore LLC references). This is the paper's `llc_ref`.
    pub llc_ref: u64,
    /// LLC misses (DRAM accesses). This is the paper's `llc_miss`.
    pub llc_miss: u64,
    /// Retired instructions.
    pub ret_ins: u64,
    /// Unhalted core cycles.
    pub cycles: u64,
}

impl CoreCounters {
    /// Component-wise difference `self - earlier`, for interval metrics.
    ///
    /// Saturates at zero so a reset (counter wrap, workload swap) cannot
    /// produce nonsense negative intervals.
    pub fn delta_since(&self, earlier: &CoreCounters) -> CoreCounters {
        CoreCounters {
            l1_ref: self.l1_ref.saturating_sub(earlier.l1_ref),
            l1_miss: self.l1_miss.saturating_sub(earlier.l1_miss),
            llc_ref: self.llc_ref.saturating_sub(earlier.llc_ref),
            llc_miss: self.llc_miss.saturating_sub(earlier.llc_miss),
            ret_ins: self.ret_ins.saturating_sub(earlier.ret_ins),
            cycles: self.cycles.saturating_sub(earlier.cycles),
        }
    }

    /// Component-wise sum, for aggregating the cores of a multi-core VM.
    pub fn merged_with(&self, other: &CoreCounters) -> CoreCounters {
        CoreCounters {
            l1_ref: self.l1_ref.saturating_add(other.l1_ref),
            l1_miss: self.l1_miss.saturating_add(other.l1_miss),
            llc_ref: self.llc_ref.saturating_add(other.llc_ref),
            llc_miss: self.llc_miss.saturating_add(other.llc_miss),
            ret_ins: self.ret_ins.saturating_add(other.ret_ins),
            cycles: self.cycles.saturating_add(other.cycles),
        }
    }

    /// Resets every counter to zero.
    pub(crate) fn reset(&mut self) {
        *self = CoreCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoreCounters {
        CoreCounters {
            l1_ref: 100,
            l1_miss: 40,
            llc_ref: 30,
            llc_miss: 10,
            ret_ins: 400,
            cycles: 1000,
        }
    }

    #[test]
    fn delta_is_componentwise() {
        let a = sample();
        let mut b = a;
        b.l1_ref += 5;
        b.llc_miss += 2;
        b.cycles += 100;
        let d = b.delta_since(&a);
        assert_eq!(d.l1_ref, 5);
        assert_eq!(d.llc_miss, 2);
        assert_eq!(d.cycles, 100);
        assert_eq!(d.ret_ins, 0);
    }

    #[test]
    fn delta_saturates_on_reset() {
        let a = sample();
        let d = CoreCounters::default().delta_since(&a);
        assert_eq!(d, CoreCounters::default());
    }

    #[test]
    fn merge_sums_counts() {
        let m = sample().merged_with(&sample());
        assert_eq!(m.l1_ref, 200);
        assert_eq!(m.cycles, 2000);
    }

    #[test]
    fn merge_saturates_at_counter_width() {
        let mut a = sample();
        a.cycles = u64::MAX - 1;
        let mut b = sample();
        b.cycles = 2;
        let m = a.merged_with(&b);
        assert_eq!(m.cycles, u64::MAX);
        assert_eq!(m.l1_ref, 200, "non-saturating components still add");
    }

    #[test]
    fn reset_zeroes() {
        let mut c = sample();
        c.reset();
        assert_eq!(c, CoreCounters::default());
    }
}
