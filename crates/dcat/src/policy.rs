//! The [`CachePolicy`] trait: a common face for dCat and the baselines.
//!
//! The paper compares three configurations throughout its evaluation:
//! an unmanaged **shared cache**, **static CAT** partitioning at the
//! reserved sizes, and **dCat**. Experiment harnesses drive all three
//! through this trait so scenarios are written once.

use perf_events::CounterSnapshot;
use resctrl::{CacheController, ResctrlError};

use crate::controller::DomainReport;

/// A cache-management policy ticked once per interval.
pub trait CachePolicy {
    /// Short policy name for reports ("shared", "static-cat", "dcat").
    fn name(&self) -> &'static str;

    /// Observes the interval's counters and (possibly) reprograms CAT.
    fn tick(
        &mut self,
        snapshots: &[CounterSnapshot],
        cat: &mut dyn CacheController,
    ) -> Result<Vec<DomainReport>, ResctrlError>;

    /// [`Self::tick`] with pipeline-stage tracing. Policies without
    /// internal stages (the shared/static baselines) ignore the tracer;
    /// dCat records one span per Figure-4 step.
    fn tick_traced(
        &mut self,
        snapshots: &[CounterSnapshot],
        cat: &mut dyn CacheController,
        tracer: &mut dcat_obs::Tracer,
    ) -> Result<Vec<DomainReport>, ResctrlError> {
        let _ = tracer;
        self.tick(snapshots, cat)
    }

    /// Policy decision summary for the current tick's frame
    /// (`dcat-frames/v1`): COS in use, plus the LFOC clustering / Memshare
    /// ledger when those policies are active. The default reports no COS
    /// bookkeeping, which is right for the shared baseline.
    fn frame_ext(&self) -> dcat_obs::PolicyExt {
        dcat_obs::PolicyExt::default()
    }
}

impl CachePolicy for crate::DcatController {
    fn name(&self) -> &'static str {
        "dcat"
    }

    fn tick(
        &mut self,
        snapshots: &[CounterSnapshot],
        cat: &mut dyn CacheController,
    ) -> Result<Vec<DomainReport>, ResctrlError> {
        // The inherent method; path syntax picks the inherent impl.
        crate::DcatController::tick(self, snapshots, cat)
    }

    fn tick_traced(
        &mut self,
        snapshots: &[CounterSnapshot],
        cat: &mut dyn CacheController,
        tracer: &mut dcat_obs::Tracer,
    ) -> Result<Vec<DomainReport>, ResctrlError> {
        let valid = vec![true; snapshots.len()];
        self.tick_observed(snapshots, &valid, cat, tracer)
    }

    fn frame_ext(&self) -> dcat_obs::PolicyExt {
        dcat_obs::PolicyExt {
            // dCat pins one COS per domain.
            cos: self.domain_count() as u32,
            ..dcat_obs::PolicyExt::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DcatConfig, DcatController, WorkloadHandle};
    use resctrl::{CatCapabilities, InMemoryController};

    #[test]
    fn dcat_is_usable_through_the_trait() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 2);
        let handles = vec![WorkloadHandle::new("w", vec![0, 1], 4)];
        let mut ctl = DcatController::new(DcatConfig::default(), handles, &mut cat).unwrap();
        let policy: &mut dyn CachePolicy = &mut ctl;
        assert_eq!(policy.name(), "dcat");
        let reports = policy
            .tick(&[CounterSnapshot::default()], &mut cat)
            .unwrap();
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn dcat_tick_traced_records_one_span_per_pipeline_stage() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 2);
        let handles = vec![WorkloadHandle::new("w", vec![0, 1], 4)];
        let mut ctl = DcatController::new(DcatConfig::default(), handles, &mut cat).unwrap();
        let mut tracer = dcat_obs::Tracer::new();
        let policy: &mut dyn CachePolicy = &mut ctl;
        policy
            .tick_traced(&[CounterSnapshot::default()], &mut cat, &mut tracer)
            .unwrap();
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
