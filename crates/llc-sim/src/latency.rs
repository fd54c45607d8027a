//! Latency and cycle-count model.
//!
//! The simulator is trace-driven, not cycle-accurate: it counts how many
//! accesses were served at each level of the hierarchy and converts those
//! counts into cycles with a simple analytic model,
//!
//! ```text
//! cycles = instructions * cpi_exec
//!        + (sum over levels: hits_at_level * extra_penalty(level)) / mlp
//! ```
//!
//! where `cpi_exec` is the workload's compute-bound CPI (L1 hits are assumed
//! pipelined into it) and `mlp` is the workload's memory-level parallelism —
//! how many outstanding misses it sustains. A dependent pointer chase (the
//! paper's MLR) has `mlp ~= 1`; a hardware-prefetched sequential stream
//! (MLOAD) overlaps many misses and has a high effective `mlp`.
//!
//! The same level counts also yield the *average data access latency* that
//! the paper's Figures 1, 2, 8, 11, and 16 report.

use crate::counters::CoreCounters;
use crate::hierarchy::HitLevel;

/// Absolute load-to-use latency of each hierarchy level, in cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// L1 hit latency.
    pub(crate) l1: f64,
    /// L2 hit latency.
    pub(crate) l2: f64,
    /// LLC hit latency.
    pub(crate) llc: f64,
    /// DRAM access latency.
    pub(crate) dram: f64,
}

impl Default for LatencyModel {
    /// Broadwell-era figures: 4 / 12 / 42 / 200 cycles.
    fn default() -> Self {
        LatencyModel {
            l1: 4.0,
            l2: 12.0,
            llc: 42.0,
            dram: 200.0,
        }
    }
}

impl LatencyModel {
    /// Absolute latency of a hit at `level`.
    pub fn latency_of(&self, level: HitLevel) -> f64 {
        match level {
            HitLevel::L1 => self.l1,
            HitLevel::L2 => self.l2,
            HitLevel::Llc => self.llc,
            HitLevel::Dram => self.dram,
        }
    }

    /// Extra penalty of a hit at `level` over an L1 hit.
    pub(crate) fn penalty_over_l1(&self, level: HitLevel) -> f64 {
        (self.latency_of(level) - self.l1).max(0.0)
    }

    /// Average data-access latency given per-level counts.
    ///
    /// Returns the L1 latency when there were no accesses at all (an idle
    /// interval), so callers never divide by zero.
    pub fn average_access_latency(&self, counters: &CoreCounters) -> f64 {
        let l1_hits = counters.l1_ref.saturating_sub(counters.l1_miss);
        let l2_hits = counters.l1_miss.saturating_sub(counters.llc_ref);
        let llc_hits = counters.llc_ref.saturating_sub(counters.llc_miss);
        let dram = counters.llc_miss;
        let total = counters.l1_ref;
        if total == 0 {
            return self.l1;
        }
        let sum = l1_hits as f64 * self.l1
            + l2_hits as f64 * self.l2
            + llc_hits as f64 * self.llc
            + dram as f64 * self.dram;
        sum / total as f64
    }
}

/// Converts level counts into elapsed cycles for one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CyclesModel {
    /// Latency parameters.
    pub(crate) latency: LatencyModel,
    /// Compute-bound cycles per instruction (covers pipelined L1 hits).
    pub(crate) cpi_exec: f64,
    /// Effective memory-level parallelism dividing miss penalties.
    pub(crate) mlp: f64,
}

impl CyclesModel {
    /// Creates a model, clamping `mlp` to at least 1.
    pub fn new(latency: LatencyModel, cpi_exec: f64, mlp: f64) -> Self {
        CyclesModel {
            latency,
            cpi_exec,
            mlp: mlp.max(1.0),
        }
    }

    /// Cycles consumed by an interval with the given counts.
    ///
    /// `counters.cycles` is ignored; this function is what *produces* the
    /// cycle count the simulator stores there.
    pub fn cycles_for(&self, counters: &CoreCounters) -> u64 {
        let l2_hits = counters.l1_miss.saturating_sub(counters.llc_ref);
        let llc_hits = counters.llc_ref.saturating_sub(counters.llc_miss);
        let dram = counters.llc_miss;
        let stall = (l2_hits as f64 * self.latency.penalty_over_l1(HitLevel::L2)
            + llc_hits as f64 * self.latency.penalty_over_l1(HitLevel::Llc)
            + dram as f64 * self.latency.penalty_over_l1(HitLevel::Dram))
            / self.mlp;
        let exec = counters.ret_ins as f64 * self.cpi_exec;
        (exec + stall).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(l1_ref: u64, l1_miss: u64, llc_ref: u64, llc_miss: u64, ins: u64) -> CoreCounters {
        CoreCounters {
            l1_ref,
            l1_miss,
            llc_ref,
            llc_miss,
            ret_ins: ins,
            cycles: 0,
        }
    }

    #[test]
    fn all_l1_hits_average_latency_is_l1() {
        let m = LatencyModel::default();
        let c = counters(100, 0, 0, 0, 400);
        assert!((m.average_access_latency(&c) - m.l1).abs() < 1e-9);
    }

    #[test]
    fn all_dram_average_latency_is_dram() {
        let m = LatencyModel::default();
        let c = counters(100, 100, 100, 100, 400);
        assert!((m.average_access_latency(&c) - m.dram).abs() < 1e-9);
    }

    #[test]
    fn idle_interval_reports_l1_latency() {
        let m = LatencyModel::default();
        assert!((m.average_access_latency(&CoreCounters::default()) - m.l1).abs() < 1e-9);
    }

    #[test]
    fn mixed_latency_between_extremes() {
        let m = LatencyModel::default();
        let c = counters(100, 50, 20, 10, 400);
        let lat = m.average_access_latency(&c);
        assert!(lat > m.l1 && lat < m.dram, "latency {lat} out of bounds");
    }

    #[test]
    fn cycles_grow_with_misses() {
        let cm = CyclesModel::new(LatencyModel::default(), 0.8, 1.0);
        let fast = counters(100, 0, 0, 0, 400);
        let slow = counters(100, 100, 100, 100, 400);
        assert!(cm.cycles_for(&slow) > cm.cycles_for(&fast));
    }

    #[test]
    fn higher_mlp_hides_miss_latency() {
        let c = counters(100, 100, 100, 100, 400);
        let serial = CyclesModel::new(LatencyModel::default(), 0.8, 1.0);
        let overlapped = CyclesModel::new(LatencyModel::default(), 0.8, 8.0);
        assert!(overlapped.cycles_for(&c) < serial.cycles_for(&c));
    }

    #[test]
    fn ipc_of_compute_bound_is_reciprocal_cpi() {
        let cm = CyclesModel::new(LatencyModel::default(), 2.0, 1.0);
        let c = counters(0, 0, 0, 0, 1000);
        // No stall: 1000 instructions at CPI 2 take 2000 cycles, IPC 0.5.
        assert_eq!(cm.cycles_for(&c), 2000);
    }

    #[test]
    fn mlp_clamped_to_one() {
        let cm = CyclesModel::new(LatencyModel::default(), 1.0, 0.0);
        assert_eq!(cm.mlp, 1.0);
    }
}
