//! The [`CachePolicy`] trait: a common face for dCat and the baselines.
//!
//! The paper compares three configurations throughout its evaluation:
//! an unmanaged **shared cache**, **static CAT** partitioning at the
//! reserved sizes, and **dCat**. Experiment harnesses drive all three
//! through this trait so scenarios are written once, and
//! [`crate::control::ControlLoop`] drives any of them once per interval.
//!
//! A policy decides; [`apply`], the one apply, programs what it decided,
//! commits or holds its reports, and `audit` checks what the backend
//! holds — the same code for every policy.

use dcat_obs::Tracer;
use perf_events::CounterSnapshot;
use resctrl::{
    CacheController, CatCapabilities, Cbm, CosId, DefaultClass, Programmed, ResctrlError,
};

use crate::controller::{check_cores, DomainReport, WorkloadHandle};
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
    /// Figure-4 steps, the last of them the apply; the baselines have none).
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

    /// The decision: observes the interval's counters and leaves its plan
    /// in the policy's [`Allocation`] — the whole layout it wants held
    /// (static CAT's staged once), and the interval's reports. It reads
    /// what the backend holds and writes nothing: [`apply`] programs it.
    fn decide(&mut self, input: &mut TickInput<'_>) -> &mut Allocation;

    /// The plan, what the backend holds, and the committed reports.
    fn allocation(&self) -> &Allocation;

    /// The reports of the last decision that completed (empty before the
    /// first): what a degraded tick holds, with `ways` and `cbm` the
    /// backend's once an apply was cut short.
    fn reports(&self) -> &[DomainReport] {
        &self.allocation().reports
    }

    /// [`apply`] with every lane valid and no tracing, the reports copied
    /// out.
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
        apply(self, input, cat)?;
        debug_assert_eq!(audit(self), Ok(()), "{}: audit failed", self.name());
        Ok(self.reports().to_vec())
    }

    /// The policy's own invariants, which `audit` checks beside the
    /// record's (dCat: each domain's grant against its floor).
    fn invariants(&self) -> Result<(), InvariantViolation> {
        Ok(())
    }

    /// Policy decision summary for the current tick's frame
    /// (`dcat-frames/v2`): COS in use, plus the LFOC clustering / Memshare
    /// ledger when those policies are active. The default reports no COS
    /// bookkeeping, which is right for the shared baseline.
    fn frame_ext(&self) -> dcat_obs::PolicyExt {
        dcat_obs::PolicyExt::default()
    }
}

/// The one apply: `policy` decides the interval and the plan is
/// programmed; a steady plan writes nothing. An error fails the interval:
/// a wrong-length input before anything is judged, a cut-short write with
/// the reports held.
pub fn apply<P: CachePolicy + ?Sized>(
    policy: &mut P,
    mut input: TickInput<'_>,
    cat: &mut dyn CacheController,
) -> Result<(), ResctrlError> {
    input.check_len(policy.allocation().staged.len())?;
    policy.decide(&mut input).apply(cat, input.tracer)
}

/// Audits what the backend holds — the one check of the recorded masks —
/// then the policy's own invariants. The loop runs it after every
/// decision, completed or not: holding must never leave overlapping masks
/// or starve a domain.
pub(crate) fn audit<P: CachePolicy + ?Sized>(policy: &P) -> Result<(), InvariantViolation> {
    let record = &policy.allocation().record;
    record.audit().map_err(InvariantViolation::Layout)?;
    policy.invariants()
}

/// What the one apply does beside programming the classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// The baselines: COS 0 is left alone and nothing is flushed.
    Plain,
    /// dCat's step 5: COS 0 is confined to the free run, the ways a class
    /// gave up are flushed (the paper's flush pass: lines filled under the
    /// old mask would keep hitting in ways their owner can no longer fill),
    /// and the apply is the pipeline's `apply` span.
    FlushPass,
}

/// A policy's side of the one apply. The decision stages the plan; only
/// the apply writes the record of what the backend holds and commits the
/// reports.
#[derive(Debug)]
pub struct Allocation {
    kind: Kind,
    /// What the backend holds, and the plan's classes, staged into it.
    record: Programmed,
    /// The domains, in report order.
    handles: Vec<WorkloadHandle>,
    /// The plan's reports, one per domain (their names cloned once), and
    /// the committed ones.
    staged: Vec<DomainReport>,
    reports: Vec<DomainReport>,
}

impl Allocation {
    /// An empty record and plan over `handles`' domains.
    pub(crate) fn new(caps: CatCapabilities, kind: Kind, handles: Vec<WorkloadHandle>) -> Self {
        let default = match kind {
            Kind::Plain => DefaultClass::Untouched,
            Kind::FlushPass => DefaultClass::FreeRun,
        };
        let named = |h: &WorkloadHandle| DomainReport {
            name: h.name.clone(),
            ..DomainReport::default()
        };
        Allocation {
            kind,
            record: Programmed::new(caps, default),
            staged: handles.iter().map(named).collect(),
            reports: Vec::new(),
            handles,
        }
    }

    /// Stages and programs dCat's first plan and static CAT's only one:
    /// each domain's reservation. Refused before anything is written when
    /// the domains need more classes than the backend has, or one
    /// reserves fewer ways than its narrowest mask (the planner refuses
    /// more ways than the cache has, also before writing), or as
    /// [`Allocation::start`] refuses.
    pub(crate) fn reserve(&mut self, cat: &mut dyn CacheController) -> Result<(), ResctrlError> {
        let (caps, handles) = (cat.capabilities(), &self.handles);
        if handles.len() + 1 > caps.num_closids as usize {
            return Err(ResctrlError::Refused(format!(
                "{} workloads exceed {} classes of service",
                handles.len(),
                caps.num_closids
            )));
        }
        if let Some(h) = handles.iter().find(|h| h.reserved_ways < caps.min_cbm_bits) {
            return Err(ResctrlError::InvalidCbm {
                cbm: Cbm::from_way_range(0, h.reserved_ways),
                reason: format!(
                    "tenant {} reserves {} ways, fewer than min_cbm_bits={}",
                    h.name, h.reserved_ways, caps.min_cbm_bits
                ),
            });
        }
        let reserved: Vec<u32> = handles.iter().map(|h| h.reserved_ways).collect();
        self.stage_domains(reserved);
        self.start(cat)
    }

    /// Programs a constructor's first plan. Refused before anything is
    /// written unless every domain owns cores of its own
    /// ([`check_cores`]): two domains sharing a core would read one class's
    /// mask as both their grants, and a domain with no core has a grant
    /// with no mask.
    pub(crate) fn start(&mut self, cat: &mut dyn CacheController) -> Result<(), ResctrlError> {
        check_cores(&self.handles).map_err(ResctrlError::Refused)?;
        self.program(cat)
    }

    /// The domains, in report order.
    pub(crate) fn handles(&self) -> &[WorkloadHandle] {
        &self.handles
    }

    /// The mask of the class domain `i`'s first core sits in, as far as
    /// the apply wrote it.
    pub(crate) fn domain_mask(&self, i: usize) -> Option<Cbm> {
        let core = *self.handles.get(i)?.cores.first()?;
        self.record.core_mask(core)
    }

    /// Stages the plan, replacing the last: per class its COS, ways,
    /// anchor and member domains, whose cores it holds.
    pub(crate) fn stage<M: IntoIterator<Item = usize>>(
        &mut self,
        classes: impl IntoIterator<Item = (CosId, u32, Option<usize>, M)>,
    ) {
        let handles = &self.handles;
        let classes = classes.into_iter().map(|(cos, ways, anchor, members)| {
            let members = members.into_iter().filter_map(|d| handles.get(d));
            let cores = members.flat_map(|h| h.cores.iter().copied());
            (cos, ways, anchor, cores)
        });
        self.record.stage(classes);
    }

    /// Stages domain `i` alone in COS `i + 1`, anchored under `i`, with
    /// the `i`-th of `ways`.
    pub(crate) fn stage_domains(&mut self, ways: impl IntoIterator<Item = u32>) {
        let classes = ways.into_iter().enumerate();
        self.stage(classes.map(|(i, ways)| (CosId((i + 1) as u8), ways, Some(i), [i])));
    }

    /// The plan's reports, to be written in full.
    pub(crate) fn staged(&mut self) -> &mut [DomainReport] {
        &mut self.staged
    }

    /// Programs the plan, then commits its reports or, cut short, holds
    /// the last committed ones, their `ways` rewritten from the record.
    /// Each report's `cbm` is the record's for its domain.
    fn apply(
        &mut self,
        cat: &mut dyn CacheController,
        tracer: &mut Tracer,
    ) -> Result<(), ResctrlError> {
        let written = match self.kind {
            Kind::Plain => self.program(cat),
            Kind::FlushPass => tracer.scope("apply", |_| self.program(cat)),
        };
        if written.is_ok() {
            std::mem::swap(&mut self.reports, &mut self.staged);
            if self.staged.is_empty() {
                self.staged.clone_from(&self.reports);
            }
        }
        for (r, h) in self.reports.iter_mut().zip(&self.handles) {
            if let Some(mask) = h.cores.first().and_then(|&c| self.record.core_mask(c)) {
                r.cbm = Some(u64::from(mask.0));
                if written.is_err() {
                    r.ways = mask.ways();
                }
            }
        }
        written
    }

    /// Programs the plan without committing its reports.
    fn program(&mut self, cat: &mut dyn CacheController) -> Result<(), ResctrlError> {
        let lost = self.record.apply(cat)?;
        if self.kind == Kind::FlushPass && !lost.is_empty() {
            cat.flush_cbm(lost)?;
        }
        Ok(())
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
        apply(&mut *policy, input, &mut cat).unwrap();
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
