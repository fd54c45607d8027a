//! The paper's two comparison policies: unmanaged shared cache and static
//! CAT partitioning.

use perf_events::{CounterSnapshot, IntervalMetrics};
use resctrl::{CacheController, Cbm, Class, CosId, DefaultClass, Programmed, ResctrlError};

use crate::controller::{DomainReport, WorkloadHandle};
use crate::invariants::InvariantViolation;
use crate::policy::{CachePolicy, TickInput};
use crate::state::WorkloadClass;

/// Shared metric bookkeeping for the non-dCat policies (the static
/// baselines here, and the clustering/share-accounting policies in
/// [`crate::lfoc`] and [`crate::memshare`]).
pub(crate) struct MetricsTracker {
    handles: Vec<WorkloadHandle>,
    last: Vec<CounterSnapshot>,
    baseline_ipc: Vec<Option<f64>>,
    /// The current interval, per domain, as [`MetricsTracker::advance`]
    /// left it: its metrics (zero filler on a held lane) and whether the
    /// lane was valid.
    pub(crate) interval: Vec<(IntervalMetrics, bool)>,
    /// The reports of the last completed decision, which the policy lends;
    /// the names are cloned once, by its first [`MetricsTracker::report`].
    pub(crate) reports: Vec<DomainReport>,
}

impl MetricsTracker {
    pub(crate) fn new(handles: Vec<WorkloadHandle>) -> Self {
        let n = handles.len();
        MetricsTracker {
            handles,
            last: vec![CounterSnapshot::default(); n],
            baseline_ipc: vec![None; n],
            interval: Vec::with_capacity(n),
            reports: Vec::new(),
        }
    }

    /// The tracked domains, in report order.
    pub(crate) fn handles(&self) -> &[WorkloadHandle] {
        &self.handles
    }

    /// Consumes one tick's snapshots: computes each domain's interval
    /// delta, advances the stored counters, and latches the first active
    /// interval's IPC as that domain's baseline. An invalid lane resyncs
    /// its totals and contributes a zero delta, as under dCat. A
    /// wrong-length input is a malformed sample: nothing advances.
    pub(crate) fn advance(&mut self, input: &TickInput<'_>) -> Result<(), ResctrlError> {
        input.check_len(self.handles.len())?;
        self.interval.clear();
        let lanes = self.last.iter_mut().zip(self.baseline_ipc.iter_mut());
        for ((last, baseline), (snap, &ok)) in lanes.zip(input.snapshots.iter().zip(input.valid)) {
            let delta = if ok {
                snap.delta_since(last)
            } else {
                CounterSnapshot::default()
            };
            *last = *snap;
            let m = IntervalMetrics::from_delta(&delta);
            if baseline.is_none() && m.ipc > 0.0 {
                *baseline = Some(m.ipc);
            }
            self.interval.push((m, ok));
        }
        Ok(())
    }

    /// [`DomainReport::hold_mask`] of every report.
    pub(crate) fn hold_masks(&mut self, programmed: &Programmed) {
        for (r, h) in self.reports.iter_mut().zip(&self.handles) {
            r.hold_mask(h, programmed);
        }
    }

    /// Writes domain `i`'s report from the interval
    /// [`MetricsTracker::advance`] computed. Call it once the decision can
    /// no longer fail: what is written is what a later degraded tick holds.
    pub(crate) fn report(&mut self, i: usize, ways: u32, class: WorkloadClass, cbm: Option<u64>) {
        if self.reports.is_empty() {
            self.reports = self.handles.iter().map(DomainReport::named).collect();
        }
        let (Some(r), Some(&(m, ok))) = (self.reports.get_mut(i), self.interval.get(i)) else {
            return;
        };
        let baseline = self.baseline_ipc.get(i).copied().flatten();
        r.class = class;
        r.ways = ways;
        r.cbm = cbm;
        r.ipc = m.ipc;
        r.norm_ipc = baseline
            .filter(|_| ok)
            .map(|b| if b > 0.0 { m.ipc / b } else { 0.0 });
        r.llc_miss_rate = m.llc_miss_rate;
        r.baseline_ipc = baseline;
        r.skipped = !ok;
    }
}

/// Integer largest-remainder apportionment, shared by the clustering and
/// share-accounting policies: adds to each `out[i]` its truncated share of
/// `remaining` by `weights[i]`, then the ways left over one each, largest
/// remainder first and ties to the lower index. All-zero weights add
/// nothing.
pub(crate) fn largest_remainder(remaining: u32, weights: &[u64], out: &mut [u32]) {
    let sum: u64 = weights.iter().sum();
    if sum == 0 {
        return;
    }
    let mut left = remaining;
    let mut remainders: Vec<(u64, usize)> = Vec::with_capacity(weights.len());
    for (i, (&w, slot)) in weights.iter().zip(out.iter_mut()).enumerate() {
        let exact = u64::from(remaining) * w;
        let share = exact.checked_div(sum).unwrap_or(0) as u32;
        *slot += share;
        left -= share;
        remainders.push((exact.checked_rem(sum).unwrap_or(0), i));
    }
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in remainders.iter().take(left as usize) {
        if let Some(slot) = out.get_mut(i) {
            *slot += 1;
        }
    }
}

/// The unmanaged configuration: every core keeps the full LLC mask.
///
/// This is the "shared cache" column of the paper's figures — maximum
/// capacity for everyone, zero isolation.
pub struct SharedCachePolicy {
    tracker: MetricsTracker,
    total_ways: u32,
    /// The fully shared mask every domain effectively holds.
    full_cbm: u64,
}

impl SharedCachePolicy {
    /// Creates the policy; nothing is programmed (the hardware reset state
    /// is already fully shared).
    pub fn new(handles: Vec<WorkloadHandle>, cat: &mut dyn CacheController) -> Self {
        let total_ways = cat.capabilities().cbm_len;
        SharedCachePolicy {
            tracker: MetricsTracker::new(handles),
            total_ways,
            full_cbm: u64::from(Cbm::full(total_ways).0),
        }
    }
}

impl CachePolicy for SharedCachePolicy {
    fn name(&self) -> &'static str {
        "shared"
    }

    fn decide(
        &mut self,
        input: TickInput<'_>,
        _cat: &mut dyn CacheController,
    ) -> Result<&[DomainReport], ResctrlError> {
        self.tracker.advance(&input)?;
        for i in 0..input.snapshots.len() {
            let (ways, cbm) = (self.total_ways, Some(self.full_cbm));
            self.tracker.report(i, ways, WorkloadClass::Keeper, cbm);
        }
        Ok(&self.tracker.reports)
    }

    fn reports(&self) -> &[DomainReport] {
        &self.tracker.reports
    }
}

/// Static CAT partitioning: each workload is pinned to its reserved ways
/// forever (the paper's "static partition" configuration).
pub struct StaticCatPolicy {
    tracker: MetricsTracker,
    /// Domain `i`'s partition is COS `i + 1`, laid out once.
    programmed: Programmed,
}

impl StaticCatPolicy {
    /// Programs the reserved, non-overlapping partitions once.
    pub fn new(
        handles: Vec<WorkloadHandle>,
        cat: &mut dyn CacheController,
    ) -> Result<Self, ResctrlError> {
        let mut programmed = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
        let classes = handles.iter().enumerate().map(|(i, h)| Class {
            cos: CosId((i + 1) as u8),
            ways: h.reserved_ways,
            anchor: None,
            cores: h.cores.iter().copied(),
        });
        programmed.apply(classes, cat)?;
        Ok(StaticCatPolicy {
            tracker: MetricsTracker::new(handles),
            programmed,
        })
    }
}

impl CachePolicy for StaticCatPolicy {
    fn name(&self) -> &'static str {
        "static-cat"
    }

    fn decide(
        &mut self,
        input: TickInput<'_>,
        _cat: &mut dyn CacheController,
    ) -> Result<&[DomainReport], ResctrlError> {
        self.tracker.advance(&input)?;
        for i in 0..self.tracker.handles().len() {
            let mask = self.programmed.mask(CosId((i + 1) as u8));
            let ways = mask.map_or(0, Cbm::ways);
            let mask = mask.map(|c| u64::from(c.0));
            self.tracker.report(i, ways, WorkloadClass::Keeper, mask);
        }
        Ok(&self.tracker.reports)
    }

    fn reports(&self) -> &[DomainReport] {
        &self.tracker.reports
    }

    fn audit(&mut self) -> Result<(), InvariantViolation> {
        self.programmed.audit().map_err(InvariantViolation::Layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resctrl::{CatCapabilities, InMemoryController};

    fn handles() -> Vec<WorkloadHandle> {
        vec![
            WorkloadHandle::new("a", vec![0, 1], 3),
            WorkloadHandle::new("b", vec![2, 3], 5),
        ]
    }

    #[expect(
        clippy::integer_division,
        reason = "fixture arithmetic: the truncated quotient is the intended value"
    )]
    fn snapshot(ins: u64, cyc: u64) -> CounterSnapshot {
        CounterSnapshot {
            l1_ref: ins / 3,
            llc_ref: 10,
            llc_miss: 5,
            ret_ins: ins,
            cycles: cyc,
        }
    }

    #[test]
    fn static_policy_programs_reserved_partitions() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 4);
        let mut p = StaticCatPolicy::new(handles(), &mut cat).unwrap();
        assert_eq!(cat.cos_mask(CosId(1)).unwrap().ways(), 3);
        assert_eq!(cat.cos_mask(CosId(2)).unwrap().ways(), 5);
        assert!(!cat.has_overlapping_active_masks());
        let r = p
            .tick(&[snapshot(100, 200), snapshot(300, 300)], &mut cat)
            .unwrap();
        assert_eq!(r[0].ways, 3);
        assert_eq!(r[1].ways, 5);
        assert!((r[1].ipc - 1.0).abs() < 1e-9);
        assert_eq!(p.name(), "static-cat");
    }

    #[test]
    fn static_policy_never_reprograms() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 4);
        let mut p = StaticCatPolicy::new(handles(), &mut cat).unwrap();
        let log_len = cat.log.len();
        for _ in 0..5 {
            p.tick(&[snapshot(100, 100), snapshot(100, 100)], &mut cat)
                .unwrap();
        }
        assert_eq!(cat.log.len(), log_len, "static policy must not mutate CAT");
    }

    #[test]
    fn shared_policy_reports_full_ways_and_never_programs() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 4);
        let mut p = SharedCachePolicy::new(handles(), &mut cat);
        let r = p
            .tick(&[snapshot(100, 100), snapshot(100, 100)], &mut cat)
            .unwrap();
        assert_eq!(r[0].ways, 20);
        assert!(cat.log.is_empty());
        assert_eq!(p.name(), "shared");
    }

    #[test]
    fn normalized_ipc_tracks_first_active_interval() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 4);
        let mut p = SharedCachePolicy::new(handles(), &mut cat);
        p.tick(&[snapshot(100, 200), snapshot(0, 0)], &mut cat)
            .unwrap();
        // Second interval: double the IPC of the first.
        let r = p
            .tick(
                &[
                    snapshot(100, 200).merged_with(&snapshot(100, 100)),
                    snapshot(0, 0),
                ],
                &mut cat,
            )
            .unwrap();
        assert!((r[0].norm_ipc.unwrap() - 2.0).abs() < 1e-9);
    }
}
