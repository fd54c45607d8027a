//! `dcat-verify`: a bounded exhaustive model checker for the dCat
//! controller.
//!
//! The checker drives a real [`DcatController`] against a real
//! [`InMemoryController`] — no mocked internals — through every point of
//! an abstracted telemetry lattice, from every reachable
//! [`WorkloadClass`] start state, across multi-tenant pool shapes and
//! configuration corners:
//!
//! * **telemetry lattice** — LLC use {below, above `llc_ref_per_instr_thr`}
//!   × miss rate {below `donor_miss_rate_thr`, between the thresholds,
//!   above `llc_miss_rate_thr`} × IPC delta {well below, at, well above
//!   the previous interval} × phase change {no, yes};
//! * **start states** — all six `WorkloadClass` values, reached by a
//!   scripted telemetry preamble (combinations the controller can never
//!   reach, e.g. Receiver on a cache with no free pool, are skipped and
//!   reported, not counted);
//! * **pool shapes** — 1–4 tenants of 2 reserved ways over a cache with
//!   0–3 free ways;
//! * **config corners** — `min_ways` ∈ {1, 2} × `streaming_multiplier`
//!   ∈ {1, 3} × `settle_intervals` ∈ {1, 3}; `settle_intervals = 0` is
//!   asserted to be rejected at construction.
//!
//! After every tick of every exploration the checker asserts the shared
//! invariant layer ([`dcat::invariants::check`]: way conservation,
//! allocation floors, mask/grant agreement, CBM legality) plus the
//! temporal properties the invariants cannot see from one snapshot:
//!
//! * a Reclaim verdict restores the reserved allocation that same tick;
//! * no Keeper↔Donor oscillation under fixed telemetry (the donor-floor
//!   ratchet allows one bounded retry, so ≤ 2 edges per direction);
//! * probe termination: an Unknown workload resolves into Keeper,
//!   Receiver, or Streaming within a bounded number of fixed-telemetry
//!   intervals (growth is bounded by the streaming cap and the pool, and
//!   a denied probe must resolve rather than spin).
//!
//! A second, fault-schedule dimension ([`run_fault_scenario`]) re-runs
//! every pool and corner under seeded backend and telemetry faults and
//! checks the invariants after every tick, degraded or not. None of those
//! faults stops an apply part-way: `CosWrite` fails its first write and
//! the retry absorbs `CosWriteOnce`. A third family of schedules does:
//! [`Fault::CosWriteAfter`] lets a tick's first *k* writes through and
//! fails the rest, and after every tick the backend's classes that hold
//! cores must still be pairwise disjoint.
//!
//! [`run`] returns what was explored and every violation; the
//! `dcat-verify` binary prints them, and its exit status is non-zero if
//! any property fails, fewer configurations than the documented floor
//! were explored, or the fault dimension injected fewer faults or
//! degraded fewer ticks than its floors ([`Report::verdict`]).

use dcat::{CachePolicy, DcatConfig, DcatController, TickInput, WorkloadClass, WorkloadHandle};
use dcat_obs::Tracer;
use perf_events::CounterSnapshot;
use resctrl::fault::{Fault, FaultPlan, FaultingController};
use resctrl::retry::{RetryPolicy, RetryingController};
use resctrl::{CatCapabilities, InMemoryController};

/// Instructions retired per synthesized interval.
const INSTRUCTIONS: f64 = 1_000_000.0;
/// Memory accesses per instruction defining the phase signature.
const MAPI_BASE: f64 = 0.3;
/// Signature after the lattice's phase-change point (a 50% shift, well
/// past the 10% detection threshold).
const MAPI_SHIFTED: f64 = 0.45;
/// Ticks allowed for a preamble to reach its start state before the
/// (state, pool, config) combination is declared unreachable.
const MAX_PREAMBLE_TICKS: u32 = 80;
/// Explored-configuration floor a full run must meet.
const EXPLORED_FLOOR: usize = 10_000;
/// Reserved ways per tenant in every pool shape.
const RESERVED: u32 = 2;

/// One interval of synthetic telemetry, in metric space. The rig inverts
/// `perf_events::IntervalMetrics`'s formulas to produce counter deltas.
#[derive(Clone, Copy, Debug)]
struct Spec {
    ipc: f64,
    miss_rate: f64,
    llc_ref_per_instr: f64,
    mem_access_per_instr: f64,
}

impl Spec {
    /// A steady Keeper: real LLC use, miss rate between the donor and
    /// growth thresholds, flat IPC. Background tenants run this forever.
    fn keeper(ipc: f64) -> Spec {
        Spec {
            ipc,
            miss_rate: 0.0175,
            llc_ref_per_instr: 0.2,
            mem_access_per_instr: MAPI_BASE,
        }
    }

    fn with_miss_rate(self, miss_rate: f64) -> Spec {
        Spec { miss_rate, ..self }
    }
}

/// Accumulates per-interval deltas into the monotonic counter totals the
/// controller reads.
struct Rig {
    totals: Vec<CounterSnapshot>,
}

impl Rig {
    fn new(n: usize) -> Rig {
        Rig {
            totals: vec![CounterSnapshot::default(); n],
        }
    }

    /// Advances every tenant by its interval; `None` is an idle interval
    /// (no counter moves).
    fn tick(&mut self, specs: &[Option<Spec>]) -> Vec<CounterSnapshot> {
        for (t, s) in self.totals.iter_mut().zip(specs) {
            let Some(s) = s else { continue };
            let llc_ref = s.llc_ref_per_instr * INSTRUCTIONS;
            t.ret_ins += INSTRUCTIONS as u64;
            t.cycles += (INSTRUCTIONS / s.ipc).round() as u64;
            t.l1_ref += (s.mem_access_per_instr * INSTRUCTIONS).round() as u64;
            t.llc_ref += llc_ref.round() as u64;
            t.llc_miss += (s.miss_rate * llc_ref).round() as u64;
        }
        self.totals.clone()
    }
}

#[derive(Clone, Copy, Debug)]
enum MissBand {
    Negligible,
    Moderate,
    High,
}

#[derive(Clone, Copy, Debug)]
enum IpcDelta {
    WellBelow,
    At,
    WellAbove,
}

/// One point of the abstracted telemetry lattice.
#[derive(Clone, Copy, Debug)]
struct LatticePoint {
    low_llc_use: bool,
    miss: MissBand,
    ipc: IpcDelta,
    phase_change: bool,
}

fn lattice() -> Vec<LatticePoint> {
    let mut points = Vec::new();
    for low_llc_use in [false, true] {
        for miss in [MissBand::Negligible, MissBand::Moderate, MissBand::High] {
            for ipc in [IpcDelta::WellBelow, IpcDelta::At, IpcDelta::WellAbove] {
                for phase_change in [false, true] {
                    points.push(LatticePoint {
                        low_llc_use,
                        miss,
                        ipc,
                        phase_change,
                    });
                }
            }
        }
    }
    points
}

impl LatticePoint {
    /// The concrete telemetry realizing this lattice point, relative to
    /// the probe tenant's IPC at the end of its preamble.
    fn spec(&self, base_ipc: f64) -> Spec {
        Spec {
            ipc: match self.ipc {
                IpcDelta::WellBelow => base_ipc * 0.5,
                IpcDelta::At => base_ipc,
                IpcDelta::WellAbove => base_ipc * 1.5,
            },
            miss_rate: match self.miss {
                MissBand::Negligible => 0.0025,
                MissBand::Moderate => 0.0175,
                MissBand::High => 0.5,
            },
            llc_ref_per_instr: if self.low_llc_use { 0.0005 } else { 0.2 },
            mem_access_per_instr: if self.phase_change {
                MAPI_SHIFTED
            } else {
                MAPI_BASE
            },
        }
    }
}

/// Pool shape: `tenants` workloads of [`RESERVED`] ways each plus
/// `free_ways` unreserved ways.
#[derive(Clone, Copy, Debug)]
struct Pool {
    tenants: u32,
    free_ways: u32,
}

impl Pool {
    fn total_ways(&self) -> u32 {
        self.tenants * RESERVED + self.free_ways
    }
}

/// Config corner under test.
#[derive(Clone, Copy, Debug)]
struct Corner {
    min_ways: u32,
    streaming_multiplier: u32,
    settle_intervals: u32,
}

impl Corner {
    fn config(&self) -> DcatConfig {
        DcatConfig {
            min_ways: self.min_ways,
            streaming_multiplier: self.streaming_multiplier,
            settle_intervals: self.settle_intervals,
            ..DcatConfig::default()
        }
    }
}

const ALL_STATES: [WorkloadClass; 6] = [
    WorkloadClass::Reclaim,
    WorkloadClass::Keeper,
    WorkloadClass::Donor,
    WorkloadClass::Unknown,
    WorkloadClass::Receiver,
    WorkloadClass::Streaming,
];

/// One fully specified exploration.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    corner: Corner,
    pool: Pool,
    start: WorkloadClass,
    point: LatticePoint,
}

enum Outcome {
    /// Preamble reached the start state and every property held.
    Explored { ticks: u32 },
    /// The controller cannot reach this start state in this pool/config
    /// (e.g. Receiver with no free pool) — skipped, not counted.
    Unreachable,
}

struct Violation {
    scenario: Scenario,
    tick: u64,
    message: String,
}

/// Asserts the per-tick safety properties; returns the first violation.
fn check_tick(ctl: &DcatController, corner: &Corner, pool: &Pool) -> Result<(), String> {
    let views = ctl.domain_views();
    dcat::invariants::check(&views, pool.total_ways(), corner.min_ways)
        .map_err(|v| v.to_string())?;
    for (i, v) in views.iter().enumerate() {
        // Reclaim restores the reserved allocation in the same interval
        // it is declared (the paper gives it absolute priority).
        if v.class == WorkloadClass::Reclaim && v.ways != v.reserved_ways {
            return Err(format!(
                "domain {i} is Reclaim with {} ways (reserved {})",
                v.ways, v.reserved_ways
            ));
        }
    }
    Ok(())
}

/// Drives one scenario end to end.
fn run_scenario(s: &Scenario) -> Result<Outcome, Violation> {
    let n = s.pool.tenants as usize;
    let probe = n - 1; // adjacent to the free run at the top of the cache
    let mut cat = InMemoryController::new(
        CatCapabilities::with_ways(s.pool.total_ways()),
        s.pool.tenants,
    );
    let handles: Vec<WorkloadHandle> = (0..n)
        .map(|i| WorkloadHandle::new(format!("vm{i}"), vec![i as u32], RESERVED))
        .collect();
    let mut ctl = DcatController::new(s.corner.config(), handles, &mut cat)
        .expect("scenario configs are valid");
    let mut rig = Rig::new(n);

    // --- Preamble: steer the probe tenant into the start state. ---
    let mut ipc = 1.0;
    let mut ticks = 0u32;
    loop {
        if ctl.class_of(probe) == s.start {
            break;
        }
        if ticks >= MAX_PREAMBLE_TICKS {
            return Ok(Outcome::Unreachable);
        }
        let current = ctl.class_of(probe);
        let spec = match s.start {
            // Reclaim is the first tick's state (a fresh phase); Keeper
            // follows once the baseline is measured at the reserved size.
            WorkloadClass::Reclaim | WorkloadClass::Keeper => Spec::keeper(ipc),
            WorkloadClass::Donor => {
                if current == WorkloadClass::Keeper {
                    Spec::keeper(ipc).with_miss_rate(0.0025)
                } else {
                    Spec::keeper(ipc)
                }
            }
            WorkloadClass::Unknown | WorkloadClass::Streaming => {
                if current == WorkloadClass::Keeper || current == WorkloadClass::Unknown {
                    Spec::keeper(ipc).with_miss_rate(0.5)
                } else {
                    Spec::keeper(ipc)
                }
            }
            WorkloadClass::Receiver => match current {
                // Raise IPC every probing tick so the grown allocation
                // is judged a clear improvement.
                WorkloadClass::Unknown => {
                    ipc *= 1.15;
                    Spec::keeper(ipc).with_miss_rate(0.5)
                }
                WorkloadClass::Keeper => Spec::keeper(ipc).with_miss_rate(0.5),
                _ => Spec::keeper(ipc),
            },
        };
        let mut specs = vec![Some(Spec::keeper(1.0)); n];
        specs[probe] = Some(spec);
        let snaps = rig.tick(&specs);
        ctl.tick(&snaps, &mut cat).map_err(|e| Violation {
            scenario: *s,
            tick: ctl.intervals(),
            message: format!("tick failed: {e}"),
        })?;
        check_tick(&ctl, &s.corner, &s.pool).map_err(|m| Violation {
            scenario: *s,
            tick: ctl.intervals(),
            message: m,
        })?;
        ticks += 1;
    }

    // --- Lattice point, then hold it fixed. ---
    // Long enough to exceed the probe-termination bound: every judged
    // interval an Unknown either grows (bounded by the streaming cap and
    // the free pool) or resolves, and judgement comes at most every
    // settle_intervals + 1 ticks.
    let cap = RESERVED * s.corner.streaming_multiplier;
    let hold = (s.corner.settle_intervals + 1) * (cap + s.pool.free_ways + 2) + 6;
    let spec = s.point.spec(ipc);
    let mut classes = Vec::with_capacity(hold as usize + 1);
    for _ in 0..=hold {
        let mut specs = vec![Some(Spec::keeper(1.0)); n];
        specs[probe] = Some(spec);
        let snaps = rig.tick(&specs);
        ctl.tick(&snaps, &mut cat).map_err(|e| Violation {
            scenario: *s,
            tick: ctl.intervals(),
            message: format!("tick failed: {e}"),
        })?;
        check_tick(&ctl, &s.corner, &s.pool).map_err(|m| Violation {
            scenario: *s,
            tick: ctl.intervals(),
            message: m,
        })?;
        classes.push(ctl.class_of(probe));
        ticks += 1;
    }

    // Oscillation: under fixed telemetry the Keeper<->Donor decision is
    // deterministic, so edges cannot repeat beyond the donor-floor
    // ratchet's bounded retries after a baseline reclaim.
    let edges = |from: WorkloadClass, to: WorkloadClass| {
        classes
            .windows(2)
            .filter(|w| w[0] == from && w[1] == to)
            .count()
    };
    let kd = edges(WorkloadClass::Keeper, WorkloadClass::Donor);
    let dk = edges(WorkloadClass::Donor, WorkloadClass::Keeper);
    if kd > 2 || dk > 2 {
        return Err(Violation {
            scenario: *s,
            tick: ctl.intervals(),
            message: format!(
                "Keeper<->Donor oscillation under fixed telemetry: {kd} K->D, {dk} D->K edges"
            ),
        });
    }

    // Probe termination: the hold outlasts the growth bound, so an
    // Unknown verdict must have resolved by the end of it.
    if *classes.last().expect("hold ran") == WorkloadClass::Unknown {
        return Err(Violation {
            scenario: *s,
            tick: ctl.intervals(),
            message: format!(
                "probe did not terminate: still Unknown after {hold} fixed-telemetry intervals"
            ),
        });
    }

    Ok(Outcome::Explored { ticks })
}

/// Ticks each fault-schedule exploration runs for.
const FAULT_TICKS: u64 = 48;
/// Injection probability per (tick, fault-kind) draw.
const FAULT_RATE: f64 = 0.3;
/// Floors a full run's fault dimension must meet. A write fault needs a
/// write to hit and the controller writes only masks that changed, so the
/// schedules steer a tenant into moving on the faulted tick; if that
/// steering stops working the counts collapse (to 453 / 116 without it)
/// and the run must fail rather than report that all invariants held
/// over next to nothing. The values are what the dimension reached when
/// every tick still rewrote COS 0 and so every scheduled fault landed.
const INJECTED_FLOOR: usize = 7_374;
const DEGRADED_FLOOR: u64 = 1_860;

/// Write faults the mid-apply family schedules: the first, second and
/// third write of every [`MID_APPLY_EVERY`]th tick fails, and every tenant
/// that can move is nudged, so the tick writes several classes.
const MID_APPLY_KS: u32 = 3;
const MID_APPLY_EVERY: u64 = 3;

/// Statistics from one fault-schedule exploration.
struct FaultRun {
    ticks: u64,
    degraded: u64,
    injected: usize,
}

/// One violation found by the fault-schedule dimension.
struct FaultViolation {
    corner: Corner,
    pool: Pool,
    seed: u64,
    tick: u64,
    message: String,
}

/// How the fault harness makes tenant `i` change size on this very tick,
/// so a scheduled write fault has a write to hit.
#[derive(Clone, Copy, PartialEq)]
enum Nudge {
    /// An idle interval: the tenant drops to the minimum at once.
    Idle,
    /// A new phase signature: the tenant is reclaimed to its reservation.
    NewPhase,
}

/// The nudge that moves a tenant holding `ways` this tick, if one exists:
/// anything above the minimum can be idled down to it, anything below its
/// reservation can be reclaimed up to it, and a tenant sitting at a
/// minimum that is also its reservation cannot be moved on demand.
fn nudge_for(ways: u32, min_ways: u32) -> Option<Nudge> {
    if ways > min_ways {
        Some(Nudge::Idle)
    } else if ways < RESERVED {
        Some(Nudge::NewPhase)
    } else {
        None
    }
}

/// Drives a controller through a seeded random fault schedule and checks
/// the allocation invariants after **every** tick, degraded or not.
///
/// This is the model-checking twin of the daemon's resilient loop:
/// backend faults are injected by a real [`FaultingController`] under a
/// real retry wrapper, telemetry faults are abstracted into per-domain
/// validity flags for [`CachePolicy::decide`], and a
/// transient tick failure degrades (the previous allocation stands)
/// instead of aborting. The temporal properties of the fault-free
/// dimension (Reclaim timing, probe termination) do not apply — a
/// degraded tick may legitimately delay them — but the safety invariants
/// must hold unconditionally.
///
/// A write fault needs a write to hit, and the controller writes only
/// the masks that changed. On a tick that carries a backend fault the
/// harness therefore nudges `nudged_tenants` tenants (see [`Nudge`]) so
/// that the tick programs at least one class; where no tenant can move — the minimum
/// equals the reservation and nothing holds extra ways — the fault has
/// nothing to hit and injects nothing.
fn run_fault_scenario(
    corner: &Corner,
    pool: &Pool,
    seed: u64,
    plan: FaultPlan,
    nudged_tenants: usize,
) -> Result<FaultRun, FaultViolation> {
    let n = pool.tenants as usize;
    let probe = n - 1;
    let inner = FaultingController::new(
        InMemoryController::new(CatCapabilities::with_ways(pool.total_ways()), pool.tenants),
        plan.clone(),
    );
    let mut cat = RetryingController::new(inner, RetryPolicy::immediate(3));
    let handles: Vec<WorkloadHandle> = (0..n)
        .map(|i| WorkloadHandle::new(format!("vm{i}"), vec![i as u32], RESERVED))
        .collect();
    let mut ctl = DcatController::new(corner.config(), handles, &mut cat)
        .expect("scenario configs are valid");
    let mut rig = Rig::new(n);
    let mut degraded = 0u64;
    // Which of the two phase signatures each tenant currently shows.
    let mut shifted = vec![false; n];

    for tick in 1..=FAULT_TICKS {
        cat.inner_mut().set_tick(tick);
        // Between faults the probe alternates between growth-seeking and
        // donation every few ticks, so masks change without being told
        // to. Where the minimum is the reservation it has nothing to
        // donate and stays hungry. Its IPC rises with the ways it holds:
        // a flat one is judged Streaming and pinned at the minimum, and
        // then nothing holds extra ways for a nudge to take back.
        let donating = (tick / 4) % 2 == 1 && corner.min_ways < RESERVED;
        let probe_miss_rate = if donating { 0.0025 } else { 0.5 };
        let probe_ipc = 1.0 + 0.15 * f64::from(ctl.ways_of(probe).saturating_sub(RESERVED));

        let backend_fault = plan.faults_at(tick).iter().any(|f| {
            matches!(
                f,
                Fault::CosWrite | Fault::CosWriteOnce | Fault::CoreAssign | Fault::CosWriteAfter(_)
            )
        });
        // Start from a different tenant each tick.
        let mut nudges = vec![None; n];
        let movable = (0..n)
            .map(|k| (k + tick as usize) % n)
            .filter_map(|i| Some((i, nudge_for(ctl.ways_of(i), corner.min_ways)?)));
        for (i, nudge) in movable.take(if !backend_fault { 0 } else { nudged_tenants }) {
            nudges[i] = Some(nudge);
            shifted[i] ^= nudge == Nudge::NewPhase;
        }

        let specs: Vec<Option<Spec>> = (0..n)
            .map(|i| {
                if nudges[i] == Some(Nudge::Idle) {
                    return None;
                }
                let base = if i == probe {
                    Spec::keeper(probe_ipc).with_miss_rate(probe_miss_rate)
                } else {
                    Spec::keeper(1.0)
                };
                Some(Spec {
                    mem_access_per_instr: if shifted[i] { MAPI_SHIFTED } else { MAPI_BASE },
                    ..base
                })
            })
            .collect();
        let snaps = rig.tick(&specs);

        // The telemetry half of the schedule, abstracted to what the
        // daemon's sampling layer would conclude: a whole-file fault
        // invalidates every domain's interval, a row-level fault just
        // the probe's. Read-once faults are absorbed by the retry.
        let mut valid = vec![true; n];
        if plan.contains(tick, Fault::TelemetryRead) || plan.contains(tick, Fault::TelemetryStale) {
            valid.fill(false);
        } else if plan.contains(tick, Fault::TelemetryTruncated) {
            valid[probe] = false;
        }

        let input = TickInput {
            snapshots: &snaps,
            valid: &valid,
            tracer: &mut Tracer::disabled(),
        };
        match ctl.decide(input, &mut cat) {
            Ok(_) => {}
            Err(e) if e.is_transient() => degraded += 1,
            Err(e) => {
                return Err(FaultViolation {
                    corner: *corner,
                    pool: *pool,
                    seed,
                    tick,
                    message: format!("fatal error under injected faults: {e}"),
                });
            }
        }
        let checked =
            dcat::invariants::check(&ctl.domain_views(), pool.total_ways(), corner.min_ways)
                .map_err(|v| v.to_string());
        let overlap = cat.inner_mut().inner().has_overlapping_active_masks();
        if let Err(message) = checked.and_then(|()| match overlap {
            true => Err("two classes holding cores overlap in the backend".to_string()),
            false => Ok(()),
        }) {
            return Err(FaultViolation {
                corner: *corner,
                pool: *pool,
                seed,
                tick,
                message,
            });
        }
    }
    Ok(FaultRun {
        ticks: FAULT_TICKS,
        degraded,
        injected: cat.inner_mut().injected().len(),
    })
}

/// What one family of fault schedules drove.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Schedules run to the end without a violation.
    pub schedules: usize,
    /// Controller ticks those schedules drove.
    pub ticks: u64,
    /// Faults the backend injected.
    pub injected: usize,
    /// Ticks that ended degraded (a transient error) rather than clean.
    pub degraded: u64,
}

impl FaultCounts {
    fn add(&mut self, run: &FaultRun) {
        self.schedules += 1;
        self.ticks += run.ticks;
        self.degraded += run.degraded;
        self.injected += run.injected;
    }
}

/// The counts a run prints, field for field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// (state, telemetry, pool, config) configurations explored.
    pub explored: usize,
    /// Start states the controller cannot reach in their pool and config.
    pub unreachable: usize,
    /// Configurations refused at construction (`settle_intervals = 0`).
    pub rejected: usize,
    /// Controller intervals the lattice drove.
    pub ticks: u64,
    /// The seeded random fault dimension.
    pub fault: FaultCounts,
    /// The mid-apply family: each faulted tick's first k writes land.
    pub mid_apply: FaultCounts,
}

/// A whole run of the checker: its counts and every violation found,
/// each rendered as the line the binary prints for it.
#[derive(Debug)]
pub struct Report {
    /// What was explored.
    pub counts: Counts,
    /// Temporal-property and invariant violations of the lattice.
    pub violations: Vec<String>,
    /// Violations under injected faults, either family.
    pub fault_violations: Vec<String>,
}

impl Report {
    /// The three count lines a run prints first.
    pub fn summary(&self) -> String {
        let c = &self.counts;
        let (f, m) = (&c.fault, &c.mid_apply);
        format!(
            "dcat-verify: explored {} (state, telemetry, pool, config) configurations \
             ({} unreachable combinations skipped, {} invalid configs rejected \
             at construction, {} controller intervals driven)\n\
             dcat-verify: fault dimension ran {} seeded schedules \
             ({} ticks, {} faults injected, \
             {} degraded ticks, invariants checked every tick)\n\
             dcat-verify: mid-apply family ran {} schedules ({} ticks, \
             {} faults injected, {} degraded ticks, classes disjoint \
             after every tick)\n",
            c.explored,
            c.unreachable,
            c.rejected,
            c.ticks,
            f.schedules,
            f.ticks,
            f.injected,
            f.degraded,
            m.schedules,
            m.ticks,
            m.injected,
            m.degraded
        )
    }

    /// `Ok` when every property held and a full run met its floors;
    /// otherwise the lines that say why, first failure only.
    pub fn verdict(&self, smoke: bool) -> Result<(), Vec<String>> {
        let c = &self.counts;
        let listed = |what: &str, lines: &[String]| {
            let mut out = vec![format!("{} {what}:", lines.len())];
            out.extend(lines.iter().take(20).cloned());
            out
        };
        if !self.fault_violations.is_empty() {
            return Err(listed("fault-dimension violations", &self.fault_violations));
        }
        let (injected, degraded) = (c.fault.injected, c.fault.degraded);
        if injected == 0 || degraded == 0 || c.mid_apply.degraded == 0 {
            return Err(vec![format!(
                "the fault dimension must actually inject faults and degrade ticks \
                 (injected {injected}, degraded {degraded}; mid-apply {})",
                c.mid_apply.degraded
            )]);
        }
        if !smoke && (injected < INJECTED_FLOOR || degraded < DEGRADED_FLOOR) {
            return Err(vec![format!(
                "fault dimension injected {injected} faults over {degraded} degraded \
                 ticks, below the documented floor of {INJECTED_FLOOR} / {DEGRADED_FLOOR}: the \
                 scheduled write faults are landing on ticks that write nothing"
            )]);
        }
        if !self.violations.is_empty() {
            return Err(listed("property violations", &self.violations));
        }
        if !smoke && c.explored < EXPLORED_FLOOR {
            return Err(vec![format!(
                "explored {} configurations, below the documented floor of {EXPLORED_FLOOR}",
                c.explored
            )]);
        }
        Ok(())
    }
}

/// Runs the checker: the whole lattice, or with `smoke` a four-pool
/// subset, then both fault families over the same corners and pools.
pub fn run(smoke: bool) -> Report {
    let mut corners = Vec::new();
    for min_ways in [1u32, 2] {
        for streaming_multiplier in [1u32, 3] {
            for settle_intervals in [1u32, 3] {
                corners.push(Corner {
                    min_ways,
                    streaming_multiplier,
                    settle_intervals,
                });
            }
        }
    }
    let pools: Vec<Pool> = if smoke {
        [(1, 1), (2, 0), (3, 2), (4, 3)]
            .iter()
            .map(|&(tenants, free_ways)| Pool { tenants, free_ways })
            .collect()
    } else {
        let mut pools = Vec::new();
        for tenants in 1..=4 {
            for free_ways in 0..=3 {
                pools.push(Pool { tenants, free_ways });
            }
        }
        pools
    };
    let mut counts = Counts::default();

    // settle_intervals = 0 is not a runnable corner: the controller must
    // refuse it at construction (an allocation change could never be
    // judged on warmed telemetry).
    for corner in &corners {
        let cfg = DcatConfig {
            settle_intervals: 0,
            ..corner.config()
        };
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(8), 1);
        let handles = vec![WorkloadHandle::new("vm0", vec![0], RESERVED)];
        assert!(
            DcatController::new(cfg, handles, &mut cat).is_err(),
            "settle_intervals = 0 must be rejected at construction"
        );
        counts.rejected += 1;
    }

    let mut violations = Vec::new();
    let points = lattice();

    for corner in &corners {
        for pool in &pools {
            for start in ALL_STATES {
                for point in &points {
                    let scenario = Scenario {
                        corner: *corner,
                        pool: *pool,
                        start,
                        point: *point,
                    };
                    match run_scenario(&scenario) {
                        Ok(Outcome::Explored { ticks }) => {
                            counts.explored += 1;
                            counts.ticks += u64::from(ticks);
                        }
                        Ok(Outcome::Unreachable) => counts.unreachable += 1,
                        Err(v) => violations.push(format!(
                            "  interval {} of {:?}: {}",
                            v.tick, v.scenario, v.message
                        )),
                    }
                }
            }
        }
    }

    // --- Fault-schedule dimension: seeded random fault injection. ---
    // Twelve schedules per (corner, pool): in an eighth of those pairs no
    // tenant can ever move (minimum = reservation, no free way), and eight
    // schedules over the rest fall short of the floors.
    let fault_seeds: u64 = if smoke { 2 } else { 12 };
    let mut fault_violations = Vec::new();
    let mut record = |family: &mut FaultCounts, run: Result<FaultRun, FaultViolation>| match run {
        Ok(run) => family.add(&run),
        Err(v) => fault_violations.push(format!(
            "  tick {} of corner {:?} pool {:?} seed {}: {}",
            v.tick, v.corner, v.pool, v.seed, v.message
        )),
    };
    for (ci, corner) in corners.iter().enumerate() {
        for (pi, pool) in pools.iter().enumerate() {
            for stream in 0..fault_seeds {
                let seed = smallrng::split_seed(
                    0xDCA7_FA17,
                    ((ci as u64) << 32) | ((pi as u64) << 16) | stream,
                );
                let plan = FaultPlan::random(seed, FAULT_TICKS, FAULT_RATE);
                record(
                    &mut counts.fault,
                    run_fault_scenario(corner, pool, seed, plan, 1),
                );
            }
        }
    }

    // --- Mid-apply family: each tick's first k writes land, the rest fail. ---
    for corner in &corners {
        for pool in &pools {
            for k in 0..MID_APPLY_KS {
                let ticks = (1..=FAULT_TICKS).filter(|t| t % MID_APPLY_EVERY == 0);
                let plan = FaultPlan::scripted(ticks.map(|t| (t, Fault::CosWriteAfter(k))));
                let tenants = pool.tenants as usize;
                record(
                    &mut counts.mid_apply,
                    run_fault_scenario(corner, pool, u64::from(k), plan, tenants),
                );
            }
        }
    }
    Report {
        counts,
        violations,
        fault_violations,
    }
}
