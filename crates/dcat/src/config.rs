//! Controller configuration: the paper's tunable thresholds.

/// How the free pool is distributed among cache-hungry workloads
/// (paper Section 3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// Distribute available ways evenly across beneficiaries, ignoring the
    /// magnitude of their IPC improvements.
    MaxFairness,
    /// Search the per-phase performance tables for the way split maximizing
    /// the sum of normalized IPCs.
    MaxPerformance,
}

/// dCat's thresholds and knobs. Defaults are the values the paper selects
/// in its sensitivity study (Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcatConfig {
    /// LLC references per instruction below which a workload is considered
    /// to not use the LLC at all (the paper's `llc_ref_thr`) and donates
    /// down to the minimum allocation.
    pub llc_ref_per_instr_thr: f64,
    /// LLC miss rate above which a workload may benefit from more cache
    /// (`llc_miss_rate_thr`). The paper picks 3%.
    pub llc_miss_rate_thr: f64,
    /// Relative IPC improvement per added way required to keep Receiver
    /// status (`ipc_imp_thr`). The paper picks 5%.
    pub ipc_imp_thr: f64,
    /// LLC miss rate below which a cache-using workload is treated as
    /// having "no cache misses" (the paper's Figure-6 Keeper → Donor edge)
    /// and donates one way per interval. Must be well below
    /// `llc_miss_rate_thr` or a workload sitting at its preferred size
    /// would oscillate between donating and re-growing.
    pub donor_miss_rate_thr: f64,
    /// Relative change in memory accesses per instruction that signals a
    /// phase change. The paper uses 10%.
    pub phase_change_thr: f64,
    /// An Unknown workload whose allocation reaches
    /// `streaming_multiplier * reserved_ways` without IPC improvement is
    /// declared Streaming. The paper uses 3.
    pub streaming_multiplier: u32,
    /// Minimum ways any workload keeps (Intel x86 cannot allocate zero).
    /// The controller raises it to the hardware's `min_cbm_bits`.
    pub min_ways: u32,
    /// Intervals to wait after a ways change before judging its effect
    /// (cache refill is not instantaneous; judging too early would
    /// misclassify receivers as streaming).
    pub settle_intervals: u32,
    /// Free-pool distribution policy.
    pub policy: AllocationPolicy,
    /// Whether per-phase performance tables are archived and restored so a
    /// recurring phase jumps straight to its preferred allocation
    /// (paper Figure 12). Disable to ablate the feature.
    pub enable_perf_table_reuse: bool,
}

impl Default for DcatConfig {
    fn default() -> Self {
        DcatConfig {
            llc_ref_per_instr_thr: 0.001,
            llc_miss_rate_thr: 0.03,
            ipc_imp_thr: 0.05,
            donor_miss_rate_thr: 0.005,
            phase_change_thr: 0.10,
            streaming_multiplier: 3,
            min_ways: 1,
            settle_intervals: 2,
            policy: AllocationPolicy::MaxFairness,
            enable_perf_table_reuse: true,
        }
    }
}

impl DcatConfig {
    /// The default configuration with the max-performance policy.
    pub fn max_performance() -> Self {
        DcatConfig {
            policy: AllocationPolicy::MaxPerformance,
            ..DcatConfig::default()
        }
    }

    /// Validates threshold sanity.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.llc_miss_rate_thr) {
            return Err("llc_miss_rate_thr must be in [0,1)".to_string());
        }
        if self.ipc_imp_thr < 0.0 {
            return Err("ipc_imp_thr must be non-negative".to_string());
        }
        if self.donor_miss_rate_thr >= self.llc_miss_rate_thr {
            return Err("donor_miss_rate_thr must be below llc_miss_rate_thr".to_string());
        }
        if self.phase_change_thr <= 0.0 {
            return Err("phase_change_thr must be positive".to_string());
        }
        if self.streaming_multiplier == 0 {
            return Err("streaming_multiplier must be at least 1".to_string());
        }
        if self.min_ways == 0 {
            return Err("min_ways must be at least 1 (Intel CAT)".to_string());
        }
        if self.settle_intervals == 0 {
            return Err("settle_intervals must be at least 1".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_choices() {
        let c = DcatConfig::default();
        assert!((c.llc_miss_rate_thr - 0.03).abs() < 1e-9, "paper picks 3%");
        assert!((c.ipc_imp_thr - 0.05).abs() < 1e-9, "paper picks 5%");
        assert!((c.phase_change_thr - 0.10).abs() < 1e-9, "paper uses 10%");
        assert_eq!(c.streaming_multiplier, 3, "paper uses 3x baseline");
        assert_eq!(c.min_ways, 1, "Intel x86 does not allow 0 ways");
        assert!(c.donor_miss_rate_thr < c.llc_miss_rate_thr);
        assert_eq!(c.policy, AllocationPolicy::MaxFairness);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn max_performance_preset() {
        assert_eq!(
            DcatConfig::max_performance().policy,
            AllocationPolicy::MaxPerformance
        );
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad = [
            DcatConfig {
                min_ways: 0,
                ..DcatConfig::default()
            },
            DcatConfig {
                llc_miss_rate_thr: 1.5,
                ..DcatConfig::default()
            },
            DcatConfig {
                streaming_multiplier: 0,
                ..DcatConfig::default()
            },
            DcatConfig {
                settle_intervals: 0,
                ..DcatConfig::default()
            },
            DcatConfig {
                phase_change_thr: 0.0,
                ..DcatConfig::default()
            },
            DcatConfig {
                ipc_imp_thr: -0.1,
                ..DcatConfig::default()
            },
            DcatConfig {
                donor_miss_rate_thr: 0.5,
                ..DcatConfig::default()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "accepted invalid {cfg:?}");
        }
    }
}
