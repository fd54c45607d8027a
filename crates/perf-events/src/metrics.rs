//! Derived per-interval metrics — the quantities dCat's five-step loop
//! actually reasons about.

use crate::convert::counter_to_f64;
use crate::snapshot::CounterSnapshot;

/// Metrics of one controller interval, derived from a counter delta.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalMetrics {
    /// Instructions retired during the interval.
    pub instructions: u64,
    /// Unhalted cycles during the interval.
    pub(crate) cycles: u64,
    /// L1 references (the paper's estimate of LOAD+STORE count).
    pub(crate) l1_ref: u64,
    /// LLC references.
    pub llc_ref: u64,
    /// LLC misses.
    pub(crate) llc_miss: u64,
    /// Instructions per cycle. Zero for an idle interval.
    pub ipc: f64,
    /// `llc_miss / llc_ref`. Zero when there were no LLC references.
    pub llc_miss_rate: f64,
    /// Memory accesses per instruction, `l1_ref / ret_ins` — the paper's
    /// phase signature. Zero for an idle interval.
    pub mem_access_per_instr: f64,
}

impl IntervalMetrics {
    /// Computes the metrics of an interval delta.
    pub fn from_delta(delta: &CounterSnapshot) -> Self {
        let ipc = if delta.cycles == 0 {
            0.0
        } else {
            counter_to_f64(delta.ret_ins) / counter_to_f64(delta.cycles)
        };
        let llc_miss_rate = if delta.llc_ref == 0 {
            0.0
        } else {
            counter_to_f64(delta.llc_miss) / counter_to_f64(delta.llc_ref)
        };
        let mem_access_per_instr = if delta.ret_ins == 0 {
            0.0
        } else {
            counter_to_f64(delta.l1_ref) / counter_to_f64(delta.ret_ins)
        };
        IntervalMetrics {
            instructions: delta.ret_ins,
            cycles: delta.cycles,
            l1_ref: delta.l1_ref,
            llc_ref: delta.llc_ref,
            llc_miss: delta.llc_miss,
            ipc,
            llc_miss_rate,
            mem_access_per_instr,
        }
    }

    /// Computes the metrics between two monotonic snapshots.
    pub fn between(earlier: &CounterSnapshot, later: &CounterSnapshot) -> Self {
        IntervalMetrics::from_delta(&later.delta_since(earlier))
    }

    /// Whether the interval saw essentially no activity (an idle VM).
    pub fn is_idle(&self) -> bool {
        self.instructions == 0
    }

    /// LLC references per retired instruction, used with the paper's
    /// `llc_ref_thr` to spot workloads that do not use the LLC at all.
    pub fn llc_ref_per_instr(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            counter_to_f64(self.llc_ref) / counter_to_f64(self.instructions)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(l1: u64, llc_r: u64, llc_m: u64, ins: u64, cyc: u64) -> CounterSnapshot {
        CounterSnapshot {
            l1_ref: l1,
            llc_ref: llc_r,
            llc_miss: llc_m,
            ret_ins: ins,
            cycles: cyc,
        }
    }

    #[test]
    fn basic_ratios() {
        let m = IntervalMetrics::from_delta(&delta(300, 100, 25, 1000, 2000));
        assert!((m.ipc - 0.5).abs() < 1e-9);
        assert!((m.llc_miss_rate - 0.25).abs() < 1e-9);
        assert!((m.mem_access_per_instr - 0.3).abs() < 1e-9);
        assert!((m.llc_ref_per_instr() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn idle_interval_is_all_zero() {
        let m = IntervalMetrics::from_delta(&CounterSnapshot::default());
        assert!(m.is_idle());
        assert_eq!(m.ipc, 0.0);
        assert_eq!(m.llc_miss_rate, 0.0);
        assert_eq!(m.mem_access_per_instr, 0.0);
    }

    #[test]
    fn no_llc_refs_gives_zero_miss_rate() {
        let m = IntervalMetrics::from_delta(&delta(100, 0, 0, 500, 600));
        assert_eq!(m.llc_miss_rate, 0.0);
        assert!(!m.is_idle());
    }

    #[test]
    fn between_uses_monotonic_difference() {
        let a = delta(100, 50, 10, 1000, 1000);
        let b = delta(400, 150, 30, 3000, 5000);
        let m = IntervalMetrics::between(&a, &b);
        assert_eq!(m.instructions, 2000);
        assert!((m.ipc - 0.5).abs() < 1e-9);
    }
}
