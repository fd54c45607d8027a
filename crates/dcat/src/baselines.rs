//! The paper's two comparison policies: unmanaged shared cache and static
//! CAT partitioning.

use perf_events::{CounterSnapshot, IntervalMetrics};
use resctrl::{CacheController, CatCapabilities, Cbm, ResctrlError};

use crate::controller::WorkloadHandle;
use crate::policy::{Allocation, CachePolicy, Kind, TickInput};
use crate::state::WorkloadClass;

/// Shared metric bookkeeping for the non-dCat policies (the static
/// baselines here, and the clustering/share-accounting policies in
/// [`crate::lfoc`] and [`crate::memshare`]).
pub(crate) struct MetricsTracker {
    last: Vec<CounterSnapshot>,
    baseline_ipc: Vec<Option<f64>>,
    /// The current interval, per domain, as [`MetricsTracker::advance`]
    /// left it: its metrics (zero filler on a held lane) and whether the
    /// lane was valid.
    pub(crate) interval: Vec<(IntervalMetrics, bool)>,
    /// The policy's side of the one apply, and its domains.
    pub(crate) allocation: Allocation,
}

impl MetricsTracker {
    pub(crate) fn new(handles: Vec<WorkloadHandle>, caps: CatCapabilities) -> Self {
        let n = handles.len();
        MetricsTracker {
            allocation: Allocation::new(caps, Kind::Plain, handles),
            last: vec![CounterSnapshot::default(); n],
            baseline_ipc: vec![None; n],
            interval: Vec::with_capacity(n),
        }
    }

    /// Consumes one tick's snapshots: computes each domain's interval
    /// delta, advances the stored counters, and latches the first active
    /// interval's IPC as that domain's baseline. An invalid lane resyncs
    /// its totals and contributes a zero delta, as under dCat.
    pub(crate) fn advance(&mut self, input: &TickInput<'_>) {
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
    }

    /// Writes domain `i`'s staged report from the interval
    /// [`MetricsTracker::advance`] computed.
    pub(crate) fn report(&mut self, i: usize, ways: u32, class: WorkloadClass) {
        let r = self.allocation.staged().get_mut(i);
        let (Some(r), Some(&(m, ok))) = (r, self.interval.get(i)) else {
            return;
        };
        let baseline = self.baseline_ipc.get(i).copied().flatten();
        r.class = class;
        r.ways = ways;
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
    /// Its plan never has a class; its reports keep the full mask.
    tracker: MetricsTracker,
    total_ways: u32,
}

impl SharedCachePolicy {
    /// Creates the policy; nothing is programmed (the hardware reset state
    /// is already fully shared).
    pub fn new(handles: Vec<WorkloadHandle>, cat: &mut dyn CacheController) -> Self {
        let caps = cat.capabilities();
        let mut tracker = MetricsTracker::new(handles, caps);
        for r in tracker.allocation.staged() {
            r.cbm = Some(u64::from(Cbm::full(caps.cbm_len).0));
        }
        SharedCachePolicy {
            tracker,
            total_ways: caps.cbm_len,
        }
    }
}

impl CachePolicy for SharedCachePolicy {
    fn name(&self) -> &'static str {
        "shared"
    }

    fn decide(&mut self, input: &mut TickInput<'_>) -> &mut Allocation {
        self.tracker.advance(input);
        for i in 0..input.snapshots.len() {
            self.tracker
                .report(i, self.total_ways, WorkloadClass::Keeper);
        }
        &mut self.tracker.allocation
    }

    fn allocation(&self) -> &Allocation {
        &self.tracker.allocation
    }
}

/// Static CAT partitioning: each workload is pinned to its reserved ways
/// forever (the paper's "static partition" configuration).
pub struct StaticCatPolicy {
    /// Its plan, staged once: domain `i`'s reservation in COS `i + 1`.
    tracker: MetricsTracker,
}

impl StaticCatPolicy {
    /// Programs the reserved, non-overlapping partitions.
    pub fn new(
        handles: Vec<WorkloadHandle>,
        cat: &mut dyn CacheController,
    ) -> Result<Self, ResctrlError> {
        let mut tracker = MetricsTracker::new(handles, cat.capabilities());
        tracker.allocation.reserve(cat)?;
        Ok(StaticCatPolicy { tracker })
    }
}

impl CachePolicy for StaticCatPolicy {
    fn name(&self) -> &'static str {
        "static-cat"
    }

    fn decide(&mut self, input: &mut TickInput<'_>) -> &mut Allocation {
        let t = &mut self.tracker;
        t.advance(input);
        for i in 0..input.snapshots.len() {
            let ways = t.allocation.handles().get(i).map_or(0, |h| h.reserved_ways);
            t.report(i, ways, WorkloadClass::Keeper);
        }
        &mut t.allocation
    }

    fn allocation(&self) -> &Allocation {
        &self.tracker.allocation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resctrl::{CatCapabilities, CosId, InMemoryController};

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
