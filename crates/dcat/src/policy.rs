//! The [`CachePolicy`] trait: a common face for dCat and the baselines.
//!
//! The paper compares three configurations throughout its evaluation:
//! an unmanaged **shared cache**, **static CAT** partitioning at the
//! reserved sizes, and **dCat**. Experiment harnesses drive all three
//! through this trait so scenarios are written once, and
//! [`crate::control::ControlLoop`] drives any of them once per interval.

use dcat_obs::Tracer;
use perf_events::CounterSnapshot;
use resctrl::{CacheController, ResctrlError};

use crate::controller::DomainReport;
use crate::invariants::InvariantViolation;

/// One interval's input to [`CachePolicy::decide`].
pub struct TickInput<'a> {
    /// Monotonic counter totals, one per domain.
    pub snapshots: &'a [CounterSnapshot],
    /// `valid[i] == false`: domain `i`'s interval cannot be trusted (its
    /// sample was missing, stale, or a counter reset). The lane is
    /// **held** under every policy: its totals resync to `snapshots[i]`,
    /// it contributes a zero delta, it keeps its class / cluster / credit
    /// and its ways, and its report says `skipped`.
    pub valid: &'a [bool],
    /// Receives one span per pipeline stage the policy has (dCat: the six
    /// Figure-4 steps; the baselines have none).
    pub tracer: &'a mut Tracer,
}

impl TickInput<'_> {
    /// A wrong-length input is a malformed sample: the interval degrades,
    /// with nothing judged or programmed, like any other unreadable one.
    pub(crate) fn check_len(&self, domains: usize) -> Result<(), ResctrlError> {
        if self.snapshots.len() == domains && self.valid.len() == domains {
            return Ok(());
        }
        Err(ResctrlError::Parse(format!(
            "tick needs one snapshot and one verdict per domain: \
             {domains} domains, {} snapshots, {} verdicts",
            self.snapshots.len(),
            self.valid.len()
        )))
    }
}

/// A cache-management policy ticked once per interval.
pub trait CachePolicy {
    /// Short policy name for reports ("shared", "static-cat", "dcat").
    fn name(&self) -> &'static str;

    /// The decision: observes the interval's counters, (possibly)
    /// reprograms CAT, and lends the per-domain reports out of the
    /// policy's own buffers.
    fn decide(
        &mut self,
        input: TickInput<'_>,
        cat: &mut dyn CacheController,
    ) -> Result<&[DomainReport], ResctrlError>;

    /// The reports of the last decision that completed (empty before the
    /// first): what a degraded tick holds.
    fn reports(&self) -> &[DomainReport];

    /// [`Self::decide`] with every lane valid and no tracing, the reports
    /// copied out.
    fn tick(
        &mut self,
        snapshots: &[CounterSnapshot],
        cat: &mut dyn CacheController,
    ) -> Result<Vec<DomainReport>, ResctrlError> {
        let input = TickInput {
            snapshots,
            valid: &vec![true; snapshots.len()],
            tracer: &mut Tracer::disabled(),
        };
        self.decide(input, cat).map(<[DomainReport]>::to_vec)
    }

    /// Audits the recorded allocation against the policy's invariants.
    /// The loop runs it after every decision, completed or not: holding
    /// must never leave overlapping masks or starve a domain.
    fn audit(&mut self) -> Result<(), InvariantViolation> {
        Ok(())
    }

    /// Policy decision summary for the current tick's frame
    /// (`dcat-frames/v1`): COS in use, plus the LFOC clustering / Memshare
    /// ledger when those policies are active. The default reports no COS
    /// bookkeeping, which is right for the shared baseline.
    fn frame_ext(&self) -> dcat_obs::PolicyExt {
        dcat_obs::PolicyExt::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DcatConfig, DcatController, WorkloadHandle};
    use resctrl::{CatCapabilities, InMemoryController};

    #[test]
    fn dcat_decision_records_one_span_per_pipeline_stage() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 2);
        let handles = vec![WorkloadHandle::new("w", vec![0, 1], 4)];
        let ctl = DcatController::new(DcatConfig::default(), handles, &mut cat).unwrap();
        let mut tracer = Tracer::new();
        // Through the box, as the scenario and fleet drivers hold it.
        let mut policy: Box<dyn CachePolicy> = Box::new(ctl);
        assert_eq!(policy.name(), "dcat");
        let input = TickInput {
            snapshots: &[CounterSnapshot::default()],
            valid: &[true],
            tracer: &mut tracer,
        };
        assert_eq!(policy.decide(input, &mut cat).unwrap().len(), 1);
        assert_eq!(policy.reports().len(), 1);
        let names: Vec<_> = tracer.completed().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "collect",
                "phase_detect",
                "baseline",
                "categorize",
                "allocate",
                "apply"
            ]
        );
    }
}
