//! The dCat controller: the five-step loop of the paper's Figure 4.

use std::collections::BTreeMap;

use dcat_obs::Tracer;
use perf_events::{CounterSnapshot, IntervalMetrics};
use resctrl::{CacheController, Cbm, ResctrlError};

use crate::config::{AllocationPolicy, DcatConfig};
use crate::invariants::{self, InvariantViolation};
use crate::perf_table::{max_performance_split, PerformanceTable};
use crate::phase::{PhaseChange, PhaseDetector};
use crate::policy::{Allocation, CachePolicy, Kind, TickInput};
use crate::state::WorkloadClass;
use crate::transitions;

/// Static description of one managed workload (a tenant's VM/container).
#[derive(Debug, Clone)]
pub struct WorkloadHandle {
    /// Display name.
    pub name: String,
    /// Cores owned exclusively by the workload: every policy that
    /// programs refuses, where it is built, handles that share a core or
    /// have none.
    pub cores: Vec<u32>,
    /// Contracted LLC ways — the baseline allocation.
    pub reserved_ways: u32,
}

impl WorkloadHandle {
    /// Creates a handle.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no cores or zero reserved ways.
    pub fn new(name: impl Into<String>, cores: Vec<u32>, reserved_ways: u32) -> Self {
        assert!(!cores.is_empty(), "workload needs at least one core");
        assert!(reserved_ways >= 1, "reserved ways must be at least 1");
        WorkloadHandle {
            name: name.into(),
            cores,
            reserved_ways,
        }
    }
}

/// Checks that every domain owns at least one core and that no core is
/// listed twice, by two domains or by one: what [`WorkloadHandle::cores`]
/// promises and its `pub` fields cannot enforce. The message names the
/// domains.
pub(crate) fn check_cores(handles: &[WorkloadHandle]) -> Result<(), String> {
    let mut owner: BTreeMap<u32, usize> = BTreeMap::new();
    for (i, h) in handles.iter().enumerate() {
        if h.cores.is_empty() {
            return Err(format!("domain {:?} has no cores", h.name));
        }
        for &core in &h.cores {
            let Some(other) = owner.insert(core, i) else {
                continue;
            };
            return Err(match handles.get(other).filter(|_| other != i) {
                Some(o) => format!(
                    "domains {:?} and {:?} both claim core {core}",
                    o.name, h.name
                ),
                None => format!("domain {:?} lists core {core} twice", h.name),
            });
        }
    }
    Ok(())
}

/// What dCat decided about one workload this interval.
#[derive(Debug, Clone, Default)]
pub struct DomainReport {
    /// Workload name.
    pub name: String,
    /// Class after this interval's categorization.
    pub class: WorkloadClass,
    /// Ways granted for the *next* interval.
    pub ways: u32,
    /// Raw capacity bitmask currently programmed for the domain, when the
    /// policy tracks one (the frame stream renders it for operators).
    pub cbm: Option<u64>,
    /// IPC measured this interval.
    pub ipc: f64,
    /// IPC normalized to the phase baseline, if a baseline exists.
    pub norm_ipc: Option<f64>,
    /// LLC miss rate this interval.
    pub llc_miss_rate: f64,
    /// Whether a phase change was detected this interval.
    pub phase_changed: bool,
    /// The phase's baseline IPC, once established.
    pub baseline_ipc: Option<f64>,
    /// Whether this domain's interval was skipped (invalid telemetry):
    /// the metrics fields are zero filler, not measurements, and the
    /// allocation was held.
    pub skipped: bool,
}

/// How a Donor releases capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DonorMode {
    /// Idle / no LLC use: drop straight to the minimum.
    Fast,
    /// Uses the LLC but misses are negligible: release one way per
    /// interval until misses become non-trivial.
    Gradual,
}

struct Domain {
    /// Contracted ways, the handle's.
    reserved: u32,
    class: WorkloadClass,
    donor_mode: DonorMode,
    /// Way count as of the last decision; the apply's outcome reaches it
    /// at the start of the next ([`DcatController::sync`]).
    ways: u32,
    last_snapshot: CounterSnapshot,
    detector: PhaseDetector,
    /// Active phase's table.
    table: PerformanceTable,
    /// Tables of previously seen phases, keyed by quantized signature.
    archived: BTreeMap<u64, PerformanceTable>,
    /// Whether the active table was restored from the archive (a recurring
    /// phase: jump straight to the preferred allocation).
    recurring: bool,
    baseline_ipc: Option<f64>,
    /// Waiting to measure the baseline at the reserved allocation.
    pending_baseline: bool,
    /// Intervals left before the last ways change is judged.
    settle: u32,
    /// IPC at the previous decision point, for improvement comparisons.
    prev_ipc: Option<f64>,
    /// Ways at the previous decision point.
    prev_ways: u32,
    /// The allocator could not grant a requested grow (pool empty).
    grow_denied: bool,
    /// An added way was observed to yield no meaningful IPC improvement
    /// (qualifies the workload for a Streaming verdict once growth stops).
    saw_no_improvement: bool,
    /// The workload was once misclassified Streaming and suffered below
    /// its baseline; it is pinned at its reserved allocation for the rest
    /// of the phase to honor the baseline guarantee without oscillating.
    capped: bool,
    /// Way count at which a growth probe last stalled (no improvement).
    /// Keeper does not re-enter Unknown at this size, preventing an
    /// endless probe-stall-probe cycle on workloads with heavy miss tails.
    stalled_at: Option<u32>,
    /// Smallest allocation donation may reach this phase. Raised when a
    /// donated-down workload fell below its baseline (it provably needs
    /// more than it had), preventing a donate/suffer/reclaim loop whose
    /// every iteration pays a cold-start.
    donor_floor: u32,
}

/// One interval's working buffers. The controller owns them across ticks
/// so a steady tick allocates none of them; every entry is rewritten
/// before it is read, nothing carries over from the previous interval.
#[derive(Default)]
struct TickScratch {
    metrics: Vec<IntervalMetrics>,
    phase_changed: Vec<bool>,
    /// Domains whose classification is finished for this interval.
    classified: Vec<bool>,
    norms: Vec<Option<f64>>,
    targets: Vec<u32>,
    /// Growth candidates, Unknown before Receiver.
    grow_order: Vec<usize>,
}

/// The dynamic cache-allocation controller.
pub struct DcatController {
    config: DcatConfig,
    domains: Vec<Domain>,
    /// Domain `i`'s class is COS `i + 1`, anchored under key `i`; COS 0
    /// is confined to the free run.
    allocation: Allocation,
    total_ways: u32,
    interval: u64,
    scratch: TickScratch,
}

impl DcatController {
    /// Creates the controller and programs the initial (reserved) static
    /// partitioning — the same state a static-CAT deployment would use.
    ///
    /// Domain `i` is bound to COS `i + 1` (COS 0 stays the default class
    /// for unmanaged cores).
    pub fn new(
        mut config: DcatConfig,
        handles: Vec<WorkloadHandle>,
        cat: &mut dyn CacheController,
    ) -> Result<Self, ResctrlError> {
        config
            .validate()
            .map_err(|e| ResctrlError::Refused(format!("invalid DcatConfig: {e}")))?;
        let caps = cat.capabilities();
        config.min_ways = config.min_ways.max(caps.min_cbm_bits);
        let total_ways = caps.cbm_len;
        let mut allocation = Allocation::new(caps, Kind::FlushPass, handles);
        allocation.reserve(cat)?;
        Ok(DcatController {
            domains: allocation
                .handles()
                .iter()
                .map(|handle| Domain {
                    reserved: handle.reserved_ways,
                    ways: handle.reserved_ways,
                    class: WorkloadClass::Keeper,
                    donor_mode: DonorMode::Fast,
                    last_snapshot: CounterSnapshot::default(),
                    detector: PhaseDetector::new(config.phase_change_thr),
                    table: PerformanceTable::new(total_ways),
                    archived: BTreeMap::new(),
                    recurring: false,
                    baseline_ipc: None,
                    pending_baseline: true,
                    settle: config.settle_intervals,
                    prev_ipc: None,
                    prev_ways: handle.reserved_ways,
                    grow_denied: false,
                    saw_no_improvement: false,
                    capped: false,
                    stalled_at: None,
                    donor_floor: config.min_ways,
                })
                .collect(),
            allocation,
            total_ways,
            interval: 0,
            config,
            scratch: TickScratch::default(),
        })
    }

    /// Number of managed workloads.
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// Current class of domain `i`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`i` is the caller's domain index; out of range is the caller's bug, as for a slice"
    )]
    pub fn class_of(&self, i: usize) -> WorkloadClass {
        self.domains[i].class
    }

    /// Currently granted ways of domain `i`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`i` is the caller's domain index; out of range is the caller's bug, as for a slice"
    )]
    pub fn ways_of(&self, i: usize) -> u32 {
        self.granted(i, &self.domains[i])
    }

    /// Domain `i`'s grant: its recorded mask's width, once one is.
    fn granted(&self, i: usize, d: &Domain) -> u32 {
        self.allocation.domain_mask(i).map_or(d.ways, Cbm::ways)
    }

    /// The active performance table of domain `i`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`i` is the caller's domain index; out of range is the caller's bug, as for a slice"
    )]
    pub fn performance_table(&self, i: usize) -> &PerformanceTable {
        &self.domains[i].table
    }

    /// Brings each domain's grant to the mask the last apply left it: a
    /// grant that moved restarts the settle countdown.
    fn sync(&mut self) {
        for (i, d) in self.domains.iter_mut().enumerate() {
            let ways = self.allocation.domain_mask(i).map_or(d.ways, Cbm::ways);
            if d.ways != ways {
                d.ways = ways;
                d.settle = self.config.settle_intervals;
            }
        }
    }

    /// Runs one controller interval with every lane valid and no tracing:
    /// [`CachePolicy::tick`], callable without the trait in scope.
    ///
    /// `snapshots[i]` must be the monotonic counter totals of domain `i`.
    pub fn tick(
        &mut self,
        snapshots: &[CounterSnapshot],
        cat: &mut dyn CacheController,
    ) -> Result<Vec<DomainReport>, ResctrlError> {
        CachePolicy::tick(self, snapshots, cat)
    }

    /// The body of [`CachePolicy::decide`], over buffers in `s`.
    #[expect(
        clippy::indexing_slicing,
        reason = "loop-bounded: `i` enumerates a per-domain lane, and every buffer it indexes holds one entry per domain; `.get()` would cost the tick (DESIGN.md §12)"
    )]
    fn run_interval(
        &mut self,
        s: &mut TickScratch,
        snapshots: &[CounterSnapshot],
        valid: &[bool],
        tracer: &mut Tracer,
    ) {
        self.sync();
        self.interval += 1;
        let n = self.domains.len();

        // Step 2: collect statistics. Skipped intervals resync the totals
        // and judge nothing (their metrics stay the zero filler).
        s.metrics.clear();
        tracer.scope("collect", |_| {
            let lanes = self.domains.iter_mut().zip(snapshots).zip(valid);
            s.metrics.extend(lanes.map(|((d, snap), &ok)| {
                let delta = if ok {
                    snap.delta_since(&d.last_snapshot)
                } else {
                    CounterSnapshot::default()
                };
                d.last_snapshot = *snap;
                IntervalMetrics::from_delta(&delta)
            }));
        });
        let metrics = s.metrics.as_slice();

        // Step 3: phase detection (idle demotion and rebaselining finish a
        // domain's classification outright).
        s.phase_changed.clear();
        s.phase_changed.resize(n, false);
        s.classified.clear();
        s.classified.extend(valid.iter().map(|ok| !ok));
        tracer.scope("phase_detect", |_| {
            for (i, m) in metrics.iter().enumerate() {
                if s.classified[i] {
                    continue;
                }
                if let Some(fired) = self.phase_stage(i, m) {
                    s.phase_changed[i] = fired;
                    s.classified[i] = true;
                }
            }
        });

        // Step 1 (deferred): baseline establishment and refresh at the
        // reserved size, yielding the normalized IPC for categorization.
        s.norms.clear();
        s.norms.resize(n, None);
        tracer.scope("baseline", |_| {
            for (i, m) in metrics.iter().enumerate() {
                if !s.classified[i] {
                    s.norms[i] = self.baseline_stage(i, m);
                }
            }
        });

        // Step 4: the Figure-6 state machine.
        tracer.scope("categorize", |_| {
            for (i, m) in metrics.iter().enumerate() {
                if let Some(norm) = s.norms[i] {
                    self.categorize_stage(i, m, norm);
                }
            }
        });

        // Step 5: allocation.
        let targets = &mut s.targets;
        tracer.scope("allocate", |_| {
            let reclaimed = self
                .domains
                .iter()
                .any(|d| d.class == WorkloadClass::Reclaim);
            self.base_targets(targets);
            // A held domain's target is its current size, whatever its class
            // asks for: without a trustworthy interval there is no basis to
            // move it.
            for (i, ok) in valid.iter().enumerate() {
                if !ok {
                    targets[i] = self.domains[i].ways;
                }
            }
            // A large release (a tenant declared Streaming or gone idle)
            // changes the pool regime: stalled growth probes are worth
            // retrying (the paper's Figure 15 shows the receiver absorbing a
            // way the streaming neighbor released).
            let released = self
                .domains
                .iter()
                .zip(targets.iter())
                .any(|(d, &t)| d.ways >= t + 2);
            if released {
                for d in &mut self.domains {
                    d.stalled_at = None;
                }
            }
            self.resolve_deficit(targets);
            if self.config.policy == AllocationPolicy::MaxPerformance && reclaimed {
                self.max_performance_retarget(targets);
            }
            self.grow_from_pool(targets, valid, &mut s.grow_order);
        });

        self.allocation.stage_domains(targets.iter().copied());
        let lanes = self.domains.iter().zip(targets.iter()).zip(metrics);
        let lanes = lanes.zip(&s.phase_changed).zip(valid);
        let staged = self.allocation.staged();
        for (r, ((((d, &ways), m), &phase_changed), &ok)) in staged.iter_mut().zip(lanes) {
            r.class = d.class;
            r.ways = ways;
            r.ipc = m.ipc;
            r.norm_ipc = d
                .baseline_ipc
                .filter(|_| ok)
                .map(|b| if b > 0.0 { m.ipc / b } else { 0.0 });
            r.llc_miss_rate = m.llc_miss_rate;
            r.phase_changed = phase_changed;
            r.baseline_ipc = d.baseline_ipc;
            r.skipped = !ok;
        }
    }

    /// Steps 2-3 for one domain: idle demotion and phase detection.
    ///
    /// Returns `Some(phase_change_fired)` when this stage finishes the
    /// domain's classification for the interval, `None` when the baseline
    /// and categorization stages should still run.
    fn phase_stage(&mut self, i: usize, m: &IntervalMetrics) -> Option<bool> {
        let cfg = self.config;
        // Out-of-range index means the domain set changed mid-tick; skip
        // the interval rather than panic (ticks degrade, they never die).
        let d = self.domains.get_mut(i)?;

        // An idle domain (no retired instructions) donates everything and
        // forgets its phase; its next activity is a fresh phase.
        if m.is_idle() {
            if let Some(sig) = d.detector.signature() {
                let bucket = PhaseDetector::bucket(sig);
                let table = std::mem::replace(&mut d.table, PerformanceTable::new(self.total_ways));
                if !table.is_empty() {
                    d.archived.insert(bucket, table);
                }
            }
            d.detector.reset();
            d.class = WorkloadClass::Donor;
            d.donor_mode = DonorMode::Fast;
            d.baseline_ipc = None;
            d.pending_baseline = false;
            d.recurring = false;
            d.prev_ipc = None;
            d.saw_no_improvement = false;
            d.capped = false;
            d.stalled_at = None;
            d.donor_floor = cfg.min_ways;
            return Some(false);
        }

        // Step 3: phase detection. Reclaim fires immediately, bypassing
        // settling (it has the highest priority in the paper).
        let change = d.detector.observe(m.mem_access_per_instr);
        if change.requires_rebaseline() {
            // `observe` always leaves a signature behind a rebaseline
            // verdict; if that invariant ever breaks, treat the interval
            // as settled rather than panic mid-tick.
            let Some(new_sig) = d.detector.signature() else {
                return Some(false);
            };
            let new_bucket = PhaseDetector::bucket(new_sig);
            if let PhaseChange::Changed { previous, .. } = change {
                let old_bucket = PhaseDetector::bucket(previous);
                let table = std::mem::replace(&mut d.table, PerformanceTable::new(self.total_ways));
                if !table.is_empty() {
                    d.archived.insert(old_bucket, table);
                }
            }
            // A recurring phase restores its table, enabling the direct
            // jump to the preferred allocation (paper Figure 12).
            if !cfg.enable_perf_table_reuse {
                d.archived.clear();
            }
            if let Some(t) = d.archived.remove(&new_bucket) {
                d.table = t;
                d.recurring = true;
            } else {
                d.table = PerformanceTable::new(self.total_ways);
                d.recurring = false;
            }
            d.class = WorkloadClass::Reclaim;
            d.baseline_ipc = None;
            d.pending_baseline = true;
            d.prev_ipc = None;
            d.saw_no_improvement = false;
            d.capped = false;
            d.stalled_at = None;
            d.donor_floor = cfg.min_ways;
            d.settle = cfg.settle_intervals;
            return Some(matches!(change, PhaseChange::Changed { .. }));
        }

        None
    }

    /// Step 1 for one domain (deferred in the paper's ordering): settle
    /// countdown, baseline establishment at the reserved size, and baseline
    /// refresh. Returns the IPC normalized to the baseline when the domain
    /// should proceed to categorization, `None` when its classification is
    /// finished for this interval.
    fn baseline_stage(&mut self, i: usize, m: &IntervalMetrics) -> Option<f64> {
        let d = self.domains.get_mut(i)?;

        // Wait for the cache to settle after the last allocation change;
        // judge on the tick where the countdown reaches zero (that
        // interval ran with the new allocation warm).
        if d.settle > 0 {
            d.settle -= 1;
            if d.settle > 0 {
                return None;
            }
        }

        // Step 1 (deferred): establish the baseline at the reserved size.
        if d.pending_baseline {
            if d.ways == d.reserved {
                d.baseline_ipc = Some(m.ipc);
                d.table.record(d.reserved, 1.0);
                d.pending_baseline = false;
                d.prev_ipc = Some(m.ipc);
                d.prev_ways = d.ways;
                // Leave Reclaim: the workload now competes normally.
                d.class = WorkloadClass::Keeper;
            }
            return None;
        }
        let baseline = match d.baseline_ipc {
            Some(b) if b > 0.0 => b,
            _ => return None,
        };

        // The initial baseline is measured on a cold cache; while the
        // workload runs at its reserved size, keep the estimate fresh so
        // the guarantee and the normalizations track the warmed-up truth.
        let baseline = if d.ways == d.reserved {
            let refreshed = 0.5 * baseline + 0.5 * m.ipc;
            d.baseline_ipc = Some(refreshed);
            refreshed
        } else {
            baseline
        };
        let norm = m.ipc / baseline;
        d.table.record(d.ways, norm);
        Some(norm)
    }

    /// Step 4 for one domain: the Figure-6 state machine plus the baseline
    /// guarantee, fed the normalized IPC from [`Self::baseline_stage`].
    fn categorize_stage(&mut self, i: usize, m: &IntervalMetrics, norm: f64) {
        let cfg = self.config;
        let Some(d) = self.domains.get_mut(i) else {
            return;
        };

        let improvement = match d.prev_ipc {
            Some(prev) if prev > 0.0 && d.ways != d.prev_ways => Some((m.ipc - prev) / prev),
            _ => None,
        };
        if matches!(improvement, Some(imp) if imp <= cfg.ipc_imp_thr) {
            d.saw_no_improvement = true;
        }
        let low_llc_use = m.llc_ref_per_instr() <= cfg.llc_ref_per_instr_thr;
        let streaming_cap = d.reserved.saturating_mul(cfg.streaming_multiplier);

        // Step 4: the Figure-6 state machine, driven by the transition
        // table in `transitions::FIGURE6`. "Ever improved" is the
        // streaming tell: the Streaming verdict requires that the phase's
        // table never recorded a meaningful gain over the baseline.
        let obs = transitions::Observation {
            low_llc_use,
            negligible_misses: m.llc_miss_rate <= cfg.donor_miss_rate_thr,
            high_misses: m.llc_miss_rate > cfg.llc_miss_rate_thr,
            improvement: match improvement {
                Some(imp) if imp > cfg.ipc_imp_thr => transitions::ImprovementSignal::Improved,
                Some(_) => transitions::ImprovementSignal::Stalled,
                None => transitions::ImprovementSignal::Unjudged,
            },
            ever_improved: d.table.iter().any(|(_, v)| v > 1.0 + cfg.ipc_imp_thr),
            saw_no_improvement: d.saw_no_improvement,
            at_growth_limit: d.ways >= streaming_cap || d.grow_denied,
            grow_denied: d.grow_denied,
            capped: d.capped,
            stalled_here: d.stalled_at == Some(d.ways),
        };
        let rule = transitions::decide(d.class, &obs);
        if rule.records_stall {
            d.stalled_at = Some(d.ways);
        }
        if rule.to == WorkloadClass::Donor {
            if obs.low_llc_use {
                // No LLC use at all: drop straight to the minimum.
                d.donor_mode = DonorMode::Fast;
            } else if d.class == WorkloadClass::Keeper {
                // Negligible misses: release one way at a time instead.
                d.donor_mode = DonorMode::Gradual;
            }
            // A continuing Donor keeps the mode it entered with.
        }
        d.class = rule.to;

        /// Relative IPC shortfall versus the baseline that triggers a
        /// reclaim back to the reserved allocation.
        const BASELINE_MARGIN: f64 = 0.05;
        // Baseline guarantee: a workload sitting below its reserved size
        // whose performance fell below the baseline is restored at once.
        if d.ways < d.reserved && norm < 1.0 - BASELINE_MARGIN && !d.class.wants_growth() {
            // A *Streaming* workload suffering at the minimum allocation
            // was misclassified (true streaming is allocation-neutral).
            // Restore the reserved size and pin it there for the rest of
            // the phase; re-growing would just repeat the misverdict.
            if d.class == WorkloadClass::Streaming {
                d.capped = true;
            }
            // A workload that suffered below its reserved size proved it
            // needs more than it had: donation must not revisit that size.
            d.donor_floor = (d.ways + 1).min(d.reserved);
            d.class = WorkloadClass::Reclaim;
            // The phase (and its baseline) are still valid: no re-baseline.
        }

        d.prev_ipc = Some(m.ipc);
        d.prev_ways = d.ways;
    }

    /// Per-class way targets before pool distribution.
    fn base_targets(&self, targets: &mut Vec<u32>) {
        let min = self.config.min_ways;
        targets.clear();
        targets.extend(self.domains.iter().map(|d| match d.class {
            WorkloadClass::Reclaim => d.reserved,
            WorkloadClass::Streaming => min,
            WorkloadClass::Donor => match d.donor_mode {
                DonorMode::Fast => min.max(d.donor_floor),
                // Gradual donation releases one way per *judged*
                // interval; a settling donor holds its size.
                DonorMode::Gradual if d.settle == 0 => {
                    d.ways.saturating_sub(1).max(min).max(d.donor_floor)
                }
                DonorMode::Gradual => d.ways,
            },
            WorkloadClass::Keeper | WorkloadClass::Unknown | WorkloadClass::Receiver => d.ways,
        }));
    }

    /// If targets oversubscribe the cache (a Reclaim arrived while others
    /// hold extra), shave ways from domains holding more than their
    /// reserved share, largest surplus first.
    #[expect(
        clippy::indexing_slicing,
        reason = "loop-bounded: `i` ranges over `targets`, one entry per domain; `.get()` would cost the tick (DESIGN.md §12)"
    )]
    fn resolve_deficit(&self, targets: &mut [u32]) {
        let total: u32 = targets.iter().sum();
        let mut deficit = total.saturating_sub(self.total_ways);
        while deficit > 0 {
            let victim = (0..targets.len())
                .filter(|&i| {
                    targets[i] > self.config.min_ways
                        && targets[i] > self.domains[i].reserved
                        && self.domains[i].class != WorkloadClass::Reclaim
                })
                .max_by_key(|&i| targets[i] - self.domains[i].reserved);
            match victim {
                Some(i) => {
                    targets[i] -= 1;
                    deficit -= 1;
                }
                None => {
                    // Nobody above baseline: shave any non-reclaim domain
                    // above the minimum (cannot happen when the reserved
                    // sums fit the cache, but stay safe).
                    match (0..targets.len())
                        .filter(|&i| {
                            targets[i] > self.config.min_ways
                                && self.domains[i].class != WorkloadClass::Reclaim
                        })
                        .max_by_key(|&i| targets[i])
                    {
                        Some(i) => {
                            targets[i] -= 1;
                            deficit -= 1;
                        }
                        None => break,
                    }
                }
            }
        }
    }

    /// The max-performance policy: after a reclaim, re-split the ways of
    /// the table-bearing beneficiaries to maximize total normalized IPC
    /// (paper Section 3.5's worked example).
    #[expect(
        clippy::indexing_slicing,
        reason = "loop-bounded: indices range over `targets` or are `candidates`' domain indices, and `split` holds one entry per candidate; `.get()` would cost the tick (DESIGN.md §12)"
    )]
    fn max_performance_retarget(&self, targets: &mut [u32]) {
        let mut candidates: Vec<usize> = Vec::with_capacity(self.domains.len());
        for (i, d) in self.domains.iter().enumerate() {
            if !d.pending_baseline
                && !d.table.is_empty()
                && matches!(
                    d.class,
                    WorkloadClass::Receiver | WorkloadClass::Unknown | WorkloadClass::Keeper
                )
                && d.table.len() >= 2
            {
                candidates.push(i);
            }
        }
        if candidates.len() < 2 {
            return;
        }
        let others: u32 = (0..targets.len())
            .filter(|i| !candidates.contains(i))
            .map(|i| targets[i])
            .sum();
        let budget = self.total_ways.saturating_sub(others);
        let tables: Vec<&PerformanceTable> =
            candidates.iter().map(|&i| &self.domains[i].table).collect();
        if let Some(split) = max_performance_split(&tables, budget) {
            for (k, &i) in candidates.iter().enumerate() {
                targets[i] = split[k].max(self.config.min_ways);
            }
        }
    }

    /// Distributes the free pool: Unknown workloads first (to resolve them
    /// into Receiver or Streaming sooner), then Receivers; one way per
    /// interval each, except that a recurring phase jumps straight to its
    /// recorded preferred allocation.
    #[expect(
        clippy::indexing_slicing,
        reason = "loop-bounded: indices enumerate the domains, and `targets` and `valid` hold one entry per domain; `.get()` would cost the tick (DESIGN.md §12)"
    )]
    fn grow_from_pool(&mut self, targets: &mut [u32], valid: &[bool], order: &mut Vec<usize>) {
        let assigned: u32 = targets.iter().sum();
        let mut free = self.total_ways.saturating_sub(assigned);

        // Desired totals per candidate.
        order.clear();
        for class in [WorkloadClass::Unknown, WorkloadClass::Receiver] {
            for (i, d) in self.domains.iter().enumerate() {
                // Only freshly judged domains change size; a settling
                // domain keeps its allocation until its effect is known,
                // and a held (invalid-interval) domain was not judged.
                if d.class == class && d.settle == 0 && valid[i] {
                    order.push(i);
                }
            }
        }
        // Projected occupancy after this interval's shrinks: the planner's
        // shrink pass keeps the *top* `target` ways of a shrinking mask, so
        // the bottom ways it releases are already free for an adjacent
        // grower in the same interval. Growth is only granted where the
        // planner can extend the partition in place — a probe is worth one
        // adjacent way, never a relocation. There is no way-flush
        // instruction (paper §6), so a moved partition re-warms from DRAM,
        // and the cold start costs more than the extra way could return.
        let mut occupied = Cbm(0);
        for (j, &target) in targets.iter().enumerate() {
            // One-way partitions do not block growth: the planner displaces
            // them (they hold at most one warm way).
            if target <= 1 {
                continue;
            }
            if let Some(m) = self.allocation.domain_mask(j) {
                let keep = target.min(m.ways());
                if keep > 0 {
                    let start = m.first_way().unwrap_or(0) + (m.ways() - keep);
                    occupied = occupied.union(Cbm::from_way_range(start, keep));
                }
            }
        }
        for &i in order.iter() {
            let desired = {
                let d = &self.domains[i];
                if d.recurring {
                    match d.table.preferred_ways(1e-6) {
                        Some(p) if p > targets[i] => p,
                        _ => targets[i] + 1,
                    }
                } else {
                    targets[i] + 1
                }
            };
            let deficit = desired.saturating_sub(targets[i]).min(free);
            // Grant ways one at a time, each adjacent to the partition as
            // grown so far (mirroring the planner's superset-run search:
            // upward first, then downward), stopping at the first way that
            // would force a relocation.
            let granted = match self.allocation.domain_mask(i) {
                Some(m) => {
                    let mut lo = m.first_way().unwrap_or(0);
                    let mut hi = lo + m.ways();
                    let mut granted = 0;
                    while granted < deficit {
                        if hi < self.total_ways && !occupied.contains_way(hi) {
                            occupied = occupied.union(Cbm::from_way_range(hi, 1));
                            hi += 1;
                        } else if lo > 0 && !occupied.contains_way(lo - 1) {
                            lo -= 1;
                            occupied = occupied.union(Cbm::from_way_range(lo, 1));
                        } else {
                            break;
                        }
                        granted += 1;
                    }
                    granted
                }
                // Not programmed yet: nothing warm to lose.
                None => deficit,
            };
            let d = &mut self.domains[i];
            if granted == 0 && desired > targets[i] {
                d.grow_denied = true;
            } else {
                d.grow_denied = false;
                targets[i] += granted;
                free -= granted;
            }
        }
    }
}

impl CachePolicy for DcatController {
    fn name(&self) -> &'static str {
        "dcat"
    }

    /// A held lane ([`TickInput::valid`]) is not classified, its settle
    /// countdown does not advance, and it neither grows, donates, nor
    /// counts as idle.
    ///
    /// Each of the paper's five steps runs as its own span over all domains —
    /// collect → phase-detect → baseline → categorize → allocate here, then
    /// apply in [`crate::policy::apply`] — so the tracer sees the same stage
    /// boundaries Figure 4 draws. The
    /// per-domain work is order-independent across stages (each stage
    /// touches only `domains[i]`), so splitting the loop by stage is
    /// behavior-identical to the historical per-domain fused loop; the
    /// golden decision traces pin that.
    fn decide(&mut self, input: &mut TickInput<'_>) -> &mut Allocation {
        // The stages borrow `self` mutably, so the scratch steps outside
        // for the interval.
        let mut scratch = std::mem::take(&mut self.scratch);
        let (snapshots, valid) = (input.snapshots, input.valid);
        self.run_interval(&mut scratch, snapshots, valid, input.tracer);
        self.scratch = scratch;
        &mut self.allocation
    }

    fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    fn invariants(&self) -> Result<(), InvariantViolation> {
        for (i, d) in self.domains.iter().enumerate() {
            let ways = self.granted(i, d);
            invariants::check_floor(i, d.class, ways, d.reserved, self.config.min_ways)?;
        }
        Ok(())
    }

    fn frame_ext(&self) -> dcat_obs::PolicyExt {
        dcat_obs::PolicyExt {
            // dCat pins one COS per domain.
            cos: self.domains.len() as u32,
            ..dcat_obs::PolicyExt::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resctrl::{CatCapabilities, CosId, InMemoryController};

    fn snapshot(l1: u64, llc_r: u64, llc_m: u64, ins: u64, cyc: u64) -> CounterSnapshot {
        CounterSnapshot {
            l1_ref: l1,
            llc_ref: llc_r,
            llc_miss: llc_m,
            ret_ins: ins,
            cycles: cyc,
        }
    }

    /// A synthetic domain feeder: accumulates per-interval deltas into
    /// monotonic snapshots.
    struct Feeder {
        totals: Vec<CounterSnapshot>,
    }

    impl Feeder {
        fn new(n: usize) -> Self {
            Feeder {
                totals: vec![CounterSnapshot::default(); n],
            }
        }

        fn add(&mut self, i: usize, delta: CounterSnapshot) -> &Vec<CounterSnapshot> {
            self.totals[i] = self.totals[i].merged_with(&delta);
            &self.totals
        }
    }

    fn controller_with(
        n: usize,
        reserved: u32,
        config: DcatConfig,
    ) -> (DcatController, InMemoryController) {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), n as u32 * 2);
        let handles: Vec<WorkloadHandle> = (0..n)
            .map(|i| {
                WorkloadHandle::new(
                    format!("vm{i}"),
                    vec![(i * 2) as u32, (i * 2 + 1) as u32],
                    reserved,
                )
            })
            .collect();
        let ctl = DcatController::new(config, handles, &mut cat).unwrap();
        (ctl, cat)
    }

    fn fast_config() -> DcatConfig {
        DcatConfig {
            settle_intervals: 1,
            ..DcatConfig::default()
        }
    }

    /// Interval of an MLR-like workload: memory heavy, missing hard.
    fn missing_hard() -> CounterSnapshot {
        snapshot(340_000, 120_000, 60_000, 1_000_000, 20_000_000)
    }

    /// Same phase signature, better IPC, fewer misses (as if granted more
    /// cache).
    fn improved(pct: f64, miss_rate: f64) -> CounterSnapshot {
        let cycles = (20_000_000.0 / (1.0 + pct)) as u64;
        let miss = (120_000.0 * miss_rate) as u64;
        snapshot(340_000, 120_000, miss, 1_000_000, cycles)
    }

    /// Compute-bound interval: no LLC use at all.
    fn compute_bound() -> CounterSnapshot {
        snapshot(20_000, 100, 10, 1_000_000, 800_000)
    }

    #[test]
    fn initial_state_programs_reserved_partitions() {
        let (ctl, cat) = controller_with(3, 4, DcatConfig::default());
        assert_eq!(ctl.ways_of(0), 4);
        // Non-overlapping contiguous partitions programmed.
        assert_eq!(cat.cos_mask(CosId(1)).unwrap().ways(), 4);
        assert_eq!(cat.cos_mask(CosId(2)).unwrap().ways(), 4);
        assert!(!cat.has_overlapping_active_masks());
        // Cores are associated with their classes.
        assert_eq!(cat.core_cos(0).unwrap(), CosId(1));
        assert_eq!(cat.core_cos(5).unwrap(), CosId(3));
    }

    #[test]
    fn oversubscribed_reserved_ways_rejected() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 4);
        let handles = vec![
            WorkloadHandle::new("a", vec![0], 12),
            WorkloadHandle::new("b", vec![1], 12),
        ];
        assert!(DcatController::new(DcatConfig::default(), handles, &mut cat).is_err());
    }

    #[test]
    fn too_many_domains_rejected() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 20);
        let handles: Vec<WorkloadHandle> = (0..16)
            .map(|i| WorkloadHandle::new(format!("d{i}"), vec![i as u32], 1))
            .collect();
        assert!(DcatController::new(DcatConfig::default(), handles, &mut cat).is_err());
    }

    #[test]
    fn idle_workload_becomes_donor_at_min_ways() {
        let (mut ctl, mut cat) = controller_with(2, 4, fast_config());
        let idle = vec![CounterSnapshot::default(); 2];
        let reports = ctl.tick(&idle, &mut cat).unwrap();
        assert_eq!(reports[0].class, WorkloadClass::Donor);
        assert_eq!(reports[0].ways, 1);
        assert_eq!(reports[1].ways, 1);
    }

    #[test]
    fn compute_bound_workload_donates() {
        let (mut ctl, mut cat) = controller_with(2, 4, fast_config());
        let mut feeder = Feeder::new(2);
        // First interval establishes the phase -> Reclaim at reserved.
        feeder.add(0, compute_bound());
        let snaps = feeder.add(1, compute_bound()).clone();
        ctl.tick(&snaps, &mut cat).unwrap();
        // Let the baseline be measured, then classify.
        for _ in 0..4 {
            feeder.add(0, compute_bound());
            let snaps = feeder.add(1, compute_bound()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
        }
        assert_eq!(ctl.class_of(0), WorkloadClass::Donor);
        assert_eq!(ctl.ways_of(0), 1);
    }

    #[test]
    fn cache_hungry_workload_grows_one_way_per_decision() {
        let (mut ctl, mut cat) = controller_with(2, 4, fast_config());
        let mut feeder = Feeder::new(2);
        let mut grow_points = Vec::new();
        for step in 0..8 {
            feeder.add(0, missing_hard());
            let snaps = feeder.add(1, compute_bound()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
            grow_points.push((step, ctl.ways_of(0)));
        }
        let final_ways = ctl.ways_of(0);
        assert!(
            final_ways > 4,
            "hungry workload should grow, got {final_ways}"
        );
        // Growth is stepwise: never more than +1 between consecutive ticks.
        for w in grow_points.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1, "jumped {} -> {}", w[0].1, w[1].1);
        }
    }

    /// In-between interval: real LLC use, miss rate between the donor and
    /// growth thresholds — a Keeper that neither donates nor grows.
    fn keeper_steady() -> CounterSnapshot {
        snapshot(340_000, 120_000, 2_000, 1_000_000, 7_000_000)
    }

    #[test]
    fn blocked_probe_never_relocates_a_multiway_partition() {
        // A hungry middle domain is flanked by two multi-way Keepers; the
        // free pool is not adjacent to it. Growing would force either the
        // grower or a bystander to relocate — and with no way-flush
        // instruction a moved partition restarts cold — so the probe is
        // denied and every multi-way mask stays exactly where it was.
        let (mut ctl, mut cat) = controller_with(3, 4, fast_config());
        let mut feeder = Feeder::new(3);
        let initial: Vec<Cbm> = (1..=3).map(|c| cat.cos_mask(CosId(c)).unwrap()).collect();
        for _ in 0..8 {
            feeder.add(0, keeper_steady());
            feeder.add(1, missing_hard());
            let snaps = feeder.add(2, keeper_steady()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
            assert_eq!(cat.cos_mask(CosId(1)).unwrap(), initial[0]);
            assert_eq!(cat.cos_mask(CosId(3)).unwrap(), initial[2]);
            assert!(ctl.ways_of(1) <= 4, "blocked probe must not grow");
        }
        assert_eq!(
            cat.cos_mask(CosId(2)).unwrap(),
            initial[1],
            "denied grower keeps its own warm ways too"
        );
    }

    #[test]
    fn dry_pool_probe_resolves_instead_of_sticking_unknown() {
        // Fully reserved cache: 4 tenants x 5 ways = 20, zero free pool.
        // The hungry tenant's probe is denied immediately; it must settle
        // as a Keeper (with the stall recorded for a later retry), not
        // spin as Unknown forever re-requesting a grow it cannot get.
        let (mut ctl, mut cat) = controller_with(4, 5, fast_config());
        let mut feeder = Feeder::new(4);
        let mut unknown_ticks = 0;
        for _ in 0..10 {
            feeder.add(0, missing_hard());
            for i in 1..3 {
                feeder.add(i, keeper_steady());
            }
            let snaps = feeder.add(3, keeper_steady()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
            if ctl.class_of(0) == WorkloadClass::Unknown {
                unknown_ticks += 1;
            }
            assert_eq!(ctl.ways_of(0), 5, "nothing to grant on a dry pool");
        }
        assert_eq!(ctl.class_of(0), WorkloadClass::Keeper);
        assert!(
            unknown_ticks <= 2,
            "probe should resolve within a judged interval, was Unknown for {unknown_ticks} ticks"
        );
    }

    #[test]
    fn improving_workload_becomes_receiver() {
        let (mut ctl, mut cat) = controller_with(2, 4, fast_config());
        let mut feeder = Feeder::new(2);
        // Phase + baseline establishment.
        for _ in 0..3 {
            feeder.add(0, missing_hard());
            let snaps = feeder.add(1, compute_bound()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
        }
        // Keeper -> Unknown (missing hard), grows; improvement confirms
        // Receiver.
        let mut pct = 0.0;
        for _ in 0..4 {
            pct += 0.15;
            feeder.add(0, improved(pct, 0.5));
            let snaps = feeder.add(1, compute_bound()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
        }
        assert_eq!(ctl.class_of(0), WorkloadClass::Receiver);
    }

    #[test]
    fn non_improving_workload_detected_streaming_and_dropped() {
        let cfg = DcatConfig {
            settle_intervals: 1,
            ..DcatConfig::default()
        };
        let (mut ctl, mut cat) = controller_with(2, 2, cfg);
        let mut feeder = Feeder::new(2);
        // MLOAD-like: always missing, IPC never changes.
        for _ in 0..20 {
            feeder.add(0, missing_hard());
            let snaps = feeder.add(1, compute_bound()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
            if ctl.class_of(0) == WorkloadClass::Streaming {
                break;
            }
        }
        assert_eq!(ctl.class_of(0), WorkloadClass::Streaming);
        // One more tick applies the minimum allocation.
        feeder.add(0, missing_hard());
        let snaps = feeder.add(1, compute_bound()).clone();
        ctl.tick(&snaps, &mut cat).unwrap();
        assert_eq!(ctl.ways_of(0), 1);
    }

    #[test]
    fn streaming_cap_is_three_times_reserved() {
        let cfg = DcatConfig {
            settle_intervals: 1,
            ..DcatConfig::default()
        };
        let (mut ctl, mut cat) = controller_with(2, 2, cfg);
        let mut feeder = Feeder::new(2);
        let mut max_ways = 0;
        for _ in 0..20 {
            feeder.add(0, missing_hard());
            let snaps = feeder.add(1, compute_bound()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
            max_ways = max_ways.max(ctl.ways_of(0));
        }
        assert!(
            max_ways <= 3 * 2 + 1,
            "streaming workload grew to {max_ways}, cap is ~6"
        );
    }

    #[test]
    fn phase_change_triggers_reclaim_to_reserved() {
        let (mut ctl, mut cat) = controller_with(2, 4, fast_config());
        let mut feeder = Feeder::new(2);
        // Grow the workload beyond reserved.
        for i in 0..8 {
            feeder.add(0, improved(0.1 * i as f64, 0.4));
            let snaps = feeder.add(1, compute_bound()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
        }
        assert!(ctl.ways_of(0) > 4);
        // New phase: very different memory intensity.
        feeder.add(0, snapshot(900_000, 50_000, 25_000, 1_000_000, 10_000_000));
        let snaps = feeder.add(1, compute_bound()).clone();
        let reports = ctl.tick(&snaps, &mut cat).unwrap();
        assert!(reports[0].phase_changed);
        assert_eq!(reports[0].class, WorkloadClass::Reclaim);
        assert_eq!(ctl.ways_of(0), 4, "reclaim returns to the reserved size");
    }

    #[test]
    fn masks_never_overlap_across_ticks() {
        let (mut ctl, mut cat) = controller_with(4, 3, fast_config());
        let mut feeder = Feeder::new(4);
        for step in 0..12 {
            feeder.add(0, missing_hard());
            feeder.add(1, compute_bound());
            feeder.add(
                2,
                if step < 6 {
                    missing_hard()
                } else {
                    CounterSnapshot::default()
                },
            );
            let snaps = feeder.add(3, CounterSnapshot::default()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
            assert!(
                !cat.has_overlapping_active_masks(),
                "overlapping masks at step {step}"
            );
        }
    }

    #[test]
    fn total_ways_never_oversubscribed() {
        let (mut ctl, mut cat) = controller_with(4, 5, fast_config());
        let mut feeder = Feeder::new(4);
        for _ in 0..15 {
            for i in 0..4 {
                feeder.add(i, missing_hard());
            }
            let snaps = feeder.totals.clone();
            ctl.tick(&snaps, &mut cat).unwrap();
            let total: u32 = (0..4).map(|i| ctl.ways_of(i)).sum();
            assert!(total <= 20, "allocated {total} of 20 ways");
        }
    }

    #[test]
    fn reclaim_takes_priority_over_holders_of_extra_ways() {
        let (mut ctl, mut cat) = controller_with(3, 4, fast_config());
        let mut feeder = Feeder::new(3);
        // Domain 0 grows while 1, 2 idle.
        for i in 0..10 {
            feeder.add(0, improved(0.12 * i as f64, 0.4));
            feeder.add(1, CounterSnapshot::default());
            let snaps = feeder.add(2, CounterSnapshot::default()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
        }
        let grown = ctl.ways_of(0);
        assert!(grown > 8, "domain 0 should hold extra ways, has {grown}");
        // Domains 1 and 2 wake up: phase change -> Reclaim.
        for _ in 0..3 {
            feeder.add(0, improved(1.0, 0.4));
            feeder.add(1, missing_hard());
            let snaps = feeder.add(2, missing_hard()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
        }
        assert!(ctl.ways_of(1) >= 4, "reclaimer 1 restored to reserved");
        assert!(ctl.ways_of(2) >= 4, "reclaimer 2 restored to reserved");
        let total: u32 = (0..3).map(|i| ctl.ways_of(i)).sum();
        assert!(total <= 20);
    }

    #[test]
    fn recurring_phase_jumps_to_preferred_ways() {
        let (mut ctl, mut cat) = controller_with(2, 4, fast_config());
        let mut feeder = Feeder::new(2);
        // Discover: grow to a preferred size with improvements that stop.
        let schedule = [0.0, 0.0, 0.15, 0.3, 0.45, 0.45, 0.45, 0.45];
        for &pct in &schedule {
            feeder.add(0, improved(pct, if pct >= 0.45 { 0.01 } else { 0.4 }));
            let snaps = feeder.add(1, compute_bound()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
        }
        let discovered = ctl.ways_of(0);
        assert!(discovered > 4);
        // Go idle (phase forgotten, table archived).
        for _ in 0..2 {
            let snaps = feeder.totals.clone();
            ctl.tick(&snaps, &mut cat).unwrap();
        }
        assert_eq!(ctl.ways_of(0), 1);
        // Same workload returns: same signature -> archived table restored.
        feeder.add(0, missing_hard());
        let snaps = feeder.add(1, compute_bound()).clone();
        ctl.tick(&snaps, &mut cat).unwrap();
        assert_eq!(ctl.ways_of(0), 4, "reclaim first");
        // Establish baseline, then the jump should be immediate (not +1).
        feeder.add(0, improved(0.0, 0.4));
        let snaps = feeder.add(1, compute_bound()).clone();
        ctl.tick(&snaps, &mut cat).unwrap();
        feeder.add(0, improved(0.1, 0.4));
        let snaps = feeder.add(1, compute_bound()).clone();
        ctl.tick(&snaps, &mut cat).unwrap();
        let after_two_decisions = ctl.ways_of(0);
        assert!(
            after_two_decisions >= discovered.min(6),
            "expected jump toward {discovered}, got {after_two_decisions}"
        );
    }

    /// High LLC use with negligible misses: the gradual donor path.
    fn low_miss_heavy_use() -> CounterSnapshot {
        snapshot(340_000, 120_000, 100, 1_000_000, 7_000_000)
    }

    #[test]
    fn donor_with_negligible_misses_shrinks_gradually() {
        let (mut ctl, mut cat) = controller_with(2, 6, fast_config());
        let mut feeder = Feeder::new(2);
        let mut series = Vec::new();
        for _ in 0..10 {
            feeder.add(0, low_miss_heavy_use());
            let snaps = feeder.add(1, compute_bound()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
            series.push(ctl.ways_of(0));
        }
        assert!(
            series.last().copied().unwrap() < 6,
            "low-miss workload should donate, series {series:?}"
        );
        // Gradual: one way at a time, never a cliff to the minimum.
        for w in series.windows(2) {
            assert!(w[0] - w[1] <= 1 || w[1] >= w[0], "cliff in {series:?}");
        }
    }

    #[test]
    fn default_class_confined_to_free_pool() {
        let (mut ctl, mut cat) = controller_with(2, 4, fast_config());
        let idle = vec![CounterSnapshot::default(); 2];
        ctl.tick(&idle, &mut cat).unwrap();
        // Both domains idle -> 1 way each, keeping their *top* ways (3 and
        // 7, shrink releases toward the left neighbor); COS 0 gets the
        // longest free run (ways 8-19).
        let cos0 = cat.cos_mask(CosId(0)).unwrap();
        assert_eq!(cos0.ways(), 12);
        assert!(!cos0.overlaps(cat.cos_mask(CosId(1)).unwrap()));
        assert!(!cos0.overlaps(cat.cos_mask(CosId(2)).unwrap()));
        let _ = ctl;
    }

    #[test]
    fn streaming_misverdict_is_capped_at_reserved() {
        // A workload that shows no improvement during growth (so it is
        // (mis)judged Streaming) but genuinely suffers at the minimum.
        let (mut ctl, mut cat) = controller_with(2, 2, fast_config());
        let mut feeder = Feeder::new(2);
        let flat = || missing_hard(); // constant IPC while growing
        let mut saw_streaming = false;
        for _ in 0..24 {
            let delta = if ctl.ways_of(0) <= 1 {
                // Sub-baseline: IPC collapses (norm < 1 - margin).
                snapshot(340_000, 120_000, 90_000, 1_000_000, 60_000_000)
            } else {
                flat()
            };
            feeder.add(0, delta);
            let snaps = feeder.add(1, compute_bound()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
            saw_streaming |= ctl.class_of(0) == WorkloadClass::Streaming;
        }
        assert!(
            saw_streaming,
            "flat-growth workload should be judged streaming"
        );
        assert!(
            ctl.ways_of(0) >= 2,
            "misclassified workload must be restored to its baseline, has {}",
            ctl.ways_of(0)
        );
        // And it stays there: no further streaming oscillation.
        for _ in 0..6 {
            feeder.add(0, flat());
            let snaps = feeder.add(1, compute_bound()).clone();
            ctl.tick(&snaps, &mut cat).unwrap();
            assert!(ctl.ways_of(0) >= 2, "oscillated back below baseline");
        }
    }

    #[test]
    fn donor_that_suffered_keeps_a_floor() {
        let (mut ctl, mut cat) = controller_with(2, 6, fast_config());
        let mut feeder = Feeder::new(2);
        let mut reclaim_count = 0;
        for _ in 0..30 {
            // The workload has negligible misses above 3 ways but
            // collapses below that (its working set needs 3 ways).
            let delta = if ctl.ways_of(0) >= 3 {
                low_miss_heavy_use()
            } else {
                snapshot(340_000, 120_000, 2_000, 1_000_000, 30_000_000)
            };
            feeder.add(0, delta);
            let snaps = feeder.add(1, compute_bound()).clone();
            let reports = ctl.tick(&snaps, &mut cat).unwrap();
            if reports[0].class == WorkloadClass::Reclaim {
                reclaim_count += 1;
            }
        }
        assert!(
            reclaim_count <= 2,
            "donor oscillated: {reclaim_count} guarantee reclaims"
        );
        assert!(
            ctl.ways_of(0) >= 3,
            "floor not respected: {} ways",
            ctl.ways_of(0)
        );
    }

    #[test]
    fn settle_interval_delays_judgement() {
        let slow = DcatConfig {
            settle_intervals: 3,
            ..DcatConfig::default()
        };
        let (mut ctl_slow, mut cat_slow) = controller_with(2, 4, slow);
        let (mut ctl_fast, mut cat_fast) = controller_with(2, 4, fast_config());
        let mut feeder_slow = Feeder::new(2);
        let mut feeder_fast = Feeder::new(2);
        for _ in 0..8 {
            feeder_slow.add(0, missing_hard());
            let s1 = feeder_slow.add(1, compute_bound()).clone();
            ctl_slow.tick(&s1, &mut cat_slow).unwrap();
            feeder_fast.add(0, missing_hard());
            let s2 = feeder_fast.add(1, compute_bound()).clone();
            ctl_fast.tick(&s2, &mut cat_fast).unwrap();
        }
        assert!(
            ctl_fast.ways_of(0) > ctl_slow.ways_of(0),
            "longer settling must slow growth: fast={} slow={}",
            ctl_fast.ways_of(0),
            ctl_slow.ways_of(0)
        );
    }

    #[test]
    fn wrong_length_input_degrades_the_tick_instead_of_aborting() {
        let (mut ctl, mut cat) = controller_with(2, 4, fast_config());
        let writes = cat.log.len();
        let two = [CounterSnapshot::default(); 2];
        let short = ctl.tick(&two[..1], &mut cat).unwrap_err();
        assert!(short.is_transient(), "wrong snapshot count: {short}");
        let input = TickInput {
            snapshots: &two,
            valid: &[true, true, true],
            tracer: &mut Tracer::disabled(),
        };
        let verdicts = crate::policy::apply(&mut ctl, input, &mut cat).unwrap_err();
        assert!(verdicts.is_transient(), "wrong verdict count: {verdicts}");
        // Nothing was judged or programmed, and the next well-formed
        // interval runs as the first.
        assert_eq!(ctl.interval, 0);
        assert_eq!(cat.log.len(), writes);
        ctl.tick(&two, &mut cat).unwrap();
        assert_eq!(ctl.interval, 1);
    }

    #[test]
    fn reports_carry_normalized_ipc() {
        let (mut ctl, mut cat) = controller_with(1, 4, fast_config());
        let mut feeder = Feeder::new(1);
        let mut last = None;
        for i in 0..5 {
            let snaps = feeder.add(0, improved(0.05 * i as f64, 0.4)).clone();
            last = Some(ctl.tick(&snaps, &mut cat).unwrap());
        }
        let report = &last.unwrap()[0];
        assert!(report.baseline_ipc.is_some());
        let norm = report.norm_ipc.unwrap();
        assert!(
            norm > 0.9,
            "normalized IPC should be near/above 1, got {norm}"
        );
    }
}
