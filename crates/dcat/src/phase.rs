//! Phase-change detection (paper Section 3.3).
//!
//! dCat's phase signature is **memory accesses per instruction**, estimated
//! as `l1_ref / ret_ins`. The paper verifies (its Figure 5) that the value
//! depends only on the workload's code, not on its cache allocation, which
//! makes it a safe signal: an allocation change never masquerades as a
//! phase change. A relative shift beyond the threshold (10% in the paper's
//! prototype) declares a new phase, invalidating the baseline IPC and the
//! current performance table.

// Counter math: no silent truncation or sign change (DESIGN.md §12).
#![cfg_attr(not(test), deny(clippy::as_conversions))]

/// Outcome of feeding one interval's signature to the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseChange {
    /// First observation ever (a freshly started workload).
    Initial,
    /// Signature within the threshold of the current phase.
    Unchanged,
    /// A new phase began.
    Changed {
        /// Signature of the phase being left.
        previous: f64,
        /// Signature of the new phase.
        current: f64,
    },
}

impl PhaseChange {
    /// Whether the baseline must be re-established.
    pub fn requires_rebaseline(self) -> bool {
        matches!(self, PhaseChange::Initial | PhaseChange::Changed { .. })
    }
}

/// Tracks one workload's phase signature.
#[derive(Debug, Clone)]
pub struct PhaseDetector {
    threshold: f64,
    signature: Option<f64>,
}

impl PhaseDetector {
    /// Creates a detector with the given relative-change threshold.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not positive.
    pub fn new(threshold: f64) -> Self {
        assert!(threshold > 0.0, "phase threshold must be positive");
        PhaseDetector {
            threshold,
            signature: None,
        }
    }

    /// Current phase signature, if any phase has been observed.
    pub fn signature(&self) -> Option<f64> {
        self.signature
    }

    /// Feeds the signature of the latest interval.
    pub fn observe(&mut self, mem_access_per_instr: f64) -> PhaseChange {
        match self.signature {
            None => {
                self.signature = Some(mem_access_per_instr);
                PhaseChange::Initial
            }
            Some(previous) => {
                let denom = previous.abs().max(1e-12);
                // A hair of tolerance keeps exact-threshold shifts (and
                // float rounding) from counting as changes.
                if (mem_access_per_instr - previous).abs() / denom > self.threshold + 1e-9 {
                    self.signature = Some(mem_access_per_instr);
                    PhaseChange::Changed {
                        previous,
                        current: mem_access_per_instr,
                    }
                } else {
                    PhaseChange::Unchanged
                }
            }
        }
    }

    /// Forgets the current phase (used when a workload goes idle, so its
    /// next activity is treated as a fresh phase).
    pub fn reset(&mut self) {
        self.signature = None;
    }

    /// Quantizes a signature for keying stored per-phase performance
    /// tables: signatures in the same bucket are "the same phase seen
    /// again" (paper Figure 12).
    #[allow(
        clippy::as_conversions,
        reason = "f64-to-u64 `as` saturates and maps NaN to 0; any stable bucket id works for keying"
    )]
    pub fn bucket(signature: f64) -> u64 {
        /// Width of one bucket, in memory accesses per instruction.
        const QUANTUM: f64 = 0.02;
        (signature / QUANTUM).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_is_initial() {
        let mut d = PhaseDetector::new(0.1);
        assert_eq!(d.observe(0.34), PhaseChange::Initial);
        assert_eq!(d.signature(), Some(0.34));
        assert!(PhaseChange::Initial.requires_rebaseline());
    }

    #[test]
    fn small_drift_is_unchanged() {
        let mut d = PhaseDetector::new(0.1);
        d.observe(0.30);
        assert_eq!(d.observe(0.32), PhaseChange::Unchanged);
        assert_eq!(d.observe(0.28), PhaseChange::Unchanged);
        // Signature is not dragged by drift within the phase.
        assert_eq!(d.signature(), Some(0.30));
    }

    #[test]
    fn large_shift_is_a_phase_change() {
        let mut d = PhaseDetector::new(0.1);
        d.observe(0.34);
        match d.observe(0.50) {
            PhaseChange::Changed { previous, current } => {
                assert!((previous - 0.34).abs() < 1e-12);
                assert!((current - 0.50).abs() < 1e-12);
            }
            other => panic!("expected change, got {other:?}"),
        }
        assert_eq!(d.signature(), Some(0.50));
    }

    #[test]
    fn exactly_threshold_is_not_a_change() {
        let mut d = PhaseDetector::new(0.1);
        d.observe(1.0);
        assert_eq!(d.observe(1.1), PhaseChange::Unchanged);
        assert_ne!(d.observe(1.12), PhaseChange::Unchanged);
    }

    #[test]
    fn reset_forgets_phase() {
        let mut d = PhaseDetector::new(0.1);
        d.observe(0.3);
        d.reset();
        assert_eq!(d.observe(0.3), PhaseChange::Initial);
    }

    #[test]
    fn buckets_group_similar_signatures() {
        assert_eq!(PhaseDetector::bucket(0.34), PhaseDetector::bucket(0.345));
        assert_ne!(PhaseDetector::bucket(0.34), PhaseDetector::bucket(0.50));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = PhaseDetector::new(0.0);
    }
}
