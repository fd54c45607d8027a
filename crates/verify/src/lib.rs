//! `dcat-verify`: a bounded exhaustive model checker for the cache
//! policies, stepped through the daemon's own control loop.
//!
//! Every tick it drives is a [`ControlLoop::step`] over a
//! `Box<dyn CachePolicy>` and a real [`InMemoryController`] — no mocked
//! internals — so it checks what `dcatd`, the scenarios and the fleet
//! hosts run. The loop audits the policy after every decision; its
//! `InvariantViolation` events are the checker's invariant failures.
//!
//! The **lattice** takes dCat, fed exact [`Totals`], through:
//!
//! * **telemetry** — LLC use {below, above `llc_ref_per_instr_thr`} × miss
//!   rate {below `donor_miss_rate_thr`, between the thresholds, above
//!   `llc_miss_rate_thr`} × IPC delta {well below, at, well above the
//!   previous interval} × phase change {no, yes};
//! * **start states** — all six [`WorkloadClass`] values, reached by a
//!   scripted telemetry preamble (combinations the controller can never
//!   reach, e.g. Receiver with no free pool, are skipped and reported);
//! * **pool shapes** — 1–4 tenants of 2 reserved ways, 0–3 free ways;
//! * **config corners** — `min_ways` ∈ {1, 2} × `streaming_multiplier`
//!   ∈ {1, 3} × `settle_intervals` ∈ {1, 3}; `settle_intervals = 0` is
//!   asserted to be rejected at construction.
//!
//! Besides the audit it checks what one snapshot cannot show: a Reclaim
//! verdict restores the reservation that same tick; no Keeper↔Donor
//! oscillation under fixed telemetry (the donor-floor ratchet allows one
//! bounded retry, so ≤ 2 edges per direction); and probe termination, an
//! Unknown resolving within a bounded number of fixed-telemetry intervals.
//!
//! Two **fault families** run dCat at every corner over the pools and the
//! churn shapes, and static CAT, LFOC and Memshare over the churn shapes,
//! through the daemon's telemetry stack — [`CsvTelemetry`] over
//! [`FaultyTelemetry`] over rows rendered from the rig's totals — and a
//! real [`FaultingController`] under a real [`RetryingController`]. The
//! first draws seeded [`FaultPlan::random`] schedules; the second cuts
//! applies short: [`Fault::CosWriteAfter`] lets the first *k* writes
//! through and fails the rest, [`Fault::CoreAssign`] fails the core moves,
//! on every third tick (where there is such a write) and in construction.
//! After every tick, degraded or not, the backend's classes holding cores
//! must be pairwise disjoint, the loop's audit must hold and every
//! report must show the mask the backend holds for its domain. The last
//! holds by construction — `dcat::policy::apply`, the one apply, writes
//! each report's `cbm` from the record of what it programmed — and is
//! checked every tick all the same.
//!
//! [`run`] returns what was explored and every violation; the binary
//! prints them and exits non-zero on any violation (a tick family that
//! injected nothing is one), or when a full run explored,
//! injected or cut short less than its floors ([`Report::verdict`]).

use std::cell::RefCell;
use std::time::Duration;

use dcat::{
    CachePolicy, ControlLoop, CsvTelemetry, DcatConfig, DcatController, DegradeReason, Event,
    FaultyTelemetry, LfocConfig, LfocPolicy, MemshareConfig, MemsharePolicy, ResiliencePolicy,
    StaticCatPolicy, TelemetryFeed, Totals, WorkloadClass, WorkloadHandle,
};
use dcat_obs::Tracer;
use perf_events::CounterSnapshot;
use resctrl::fault::{Fault, FaultPlan, FaultingController};
use resctrl::retry::{RetryPolicy, RetryingController};
use resctrl::{CacheController, CatCapabilities, CosId, InMemoryController, ResctrlError};

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

/// The loop's recovery knobs: a configuration `dcatd` runs with, chosen
/// so that every path of the loop's ingest is reachable.
///
/// * Retries never sleep; the schedule is keyed by tick.
/// * One bad sample quarantines a domain, so every truncated sample
///   quarantines the rows it lost and the next one recovers them.
/// * Stale grace 0: a tenant whose counters stand still is idle that
///   very tick, so an Idle nudge still lands on the faulted tick rather
///   than being held as a suspected stale sample (and a stale sample
///   served by the fault reads as an idle interval).
/// * 24-bit counters, the width [`FaultPlan`]s here wrap at: every
///   per-tick delta of both rigs is under half of it, so a wrap can be
///   told from a reset, and 48 ticks of totals pass it, so one happens.
const RESILIENCE: ResiliencePolicy = ResiliencePolicy {
    retry: RetryPolicy {
        max_attempts: 3,
        backoff: Duration::ZERO,
    },
    quarantine_after: 1,
    stale_grace_ticks: 0,
    counter_width_bits: 24,
};

/// One interval of synthetic telemetry, in metric space, inverted from
/// `perf_events::IntervalMetrics`'s formulas into counter deltas.
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

    /// The counters one interval of this telemetry moves.
    fn delta(&self) -> CounterSnapshot {
        let llc_ref = self.llc_ref_per_instr * INSTRUCTIONS;
        CounterSnapshot {
            l1_ref: (self.mem_access_per_instr * INSTRUCTIONS).round() as u64,
            llc_ref: llc_ref.round() as u64,
            llc_miss: (self.miss_rate * llc_ref).round() as u64,
            ret_ins: INSTRUCTIONS as u64,
            cycles: (INSTRUCTIONS / self.ipc).round() as u64,
        }
    }
}

/// The monotonic counter totals of every tenant, advanced one interval at
/// a time.
struct Rig(Vec<CounterSnapshot>);

impl Rig {
    fn advance(&mut self, deltas: &[CounterSnapshot]) {
        for (total, delta) in self.0.iter_mut().zip(deltas) {
            *total = total.merged_with(delta);
        }
    }
}

/// The rig's totals as the daemon's sampler writes them: one six-field
/// row per tenant, named as [`handles`] names it.
struct RowFeed<'a>(&'a RefCell<Rig>);

impl TelemetryFeed for RowFeed<'_> {
    fn read(&mut self, _tick: u64) -> Result<String, ResctrlError> {
        let rig = self.0.borrow();
        let rows = rig.0.iter().enumerate().map(|(i, t)| {
            let (l1, r, m, ins, cyc) = (t.l1_ref, t.llc_ref, t.llc_miss, t.ret_ins, t.cycles);
            format!("vm{i},{l1},{r},{m},{ins},{cyc}\n")
        });
        Ok(rows.collect())
    }
}

fn handles(reserved: impl IntoIterator<Item = u32>) -> Vec<WorkloadHandle> {
    let each = reserved.into_iter().enumerate();
    each.map(|(i, r)| WorkloadHandle::new(format!("vm{i}"), vec![i as u32], r))
        .collect()
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

/// A property that failed, at the loop tick it failed on.
struct Violation {
    tick: u64,
    message: String,
}

/// The first `InvariantViolation` the loop's audit raised this tick.
fn audit_failure(events: &[Event]) -> Option<String> {
    events.iter().find_map(|e| match e {
        Event::InvariantViolation { message } => Some(message.clone()),
        _ => None,
    })
}

/// Steps one fault-free lattice tick and checks it: the tick completes,
/// the loop's audit holds, and a Reclaim verdict is at the reservation.
/// Returns the probe's class.
fn lattice_tick(
    lp: &mut ControlLoop<Box<dyn CachePolicy>>,
    cat: &mut InMemoryController,
    totals: &[CounterSnapshot],
    probe: usize,
) -> Result<WorkloadClass, Violation> {
    let tick = lp.ticks() + 1;
    let failed = |message| Violation { tick, message };
    let obs = lp
        .step(&mut Totals(totals), cat, &mut Tracer::disabled(), |_, _| {})
        .map_err(|e| failed(format!("tick failed: {e}")))?;
    if let Some(message) = audit_failure(obs.events) {
        return Err(failed(message));
    }
    if obs.degraded {
        return Err(failed(format!("tick degraded: {:?}", obs.events)));
    }
    for (i, r) in obs.reports.iter().enumerate() {
        // Reclaim restores the reserved allocation in the same interval
        // it is declared (the paper gives it absolute priority).
        if r.class == WorkloadClass::Reclaim && r.ways != RESERVED {
            return Err(failed(format!(
                "domain {i} is Reclaim with {} ways (reserved {RESERVED})",
                r.ways
            )));
        }
    }
    obs.reports
        .get(probe)
        .map(|r| r.class)
        .ok_or_else(|| failed("no report for the probe".to_string()))
}

/// Drives one scenario end to end.
fn run_scenario(s: &Scenario) -> Result<Outcome, Violation> {
    let n = s.pool.tenants as usize;
    let probe = n - 1; // adjacent to the free run at the top of the cache
    let mut cat = InMemoryController::new(
        CatCapabilities::with_ways(s.pool.total_ways()),
        s.pool.tenants,
    );
    let domains = handles(vec![RESERVED; n]);
    let ctl = DcatController::new(s.corner.config(), domains.clone(), &mut cat)
        .expect("scenario configs are valid");
    // Before its first report, the class the controller starts in.
    let mut class = ctl.class_of(probe);
    let mut lp = ControlLoop::new(Box::new(ctl) as Box<dyn CachePolicy>, domains, RESILIENCE)
        .expect("the checker's resilience policy is valid");
    let mut rig = Rig(vec![CounterSnapshot::default(); n]);
    let mut deltas = vec![Spec::keeper(1.0).delta(); n];

    // --- Preamble: steer the probe tenant into the start state. ---
    let mut ipc = 1.0;
    let mut ticks = 0u32;
    loop {
        if class == s.start {
            break;
        }
        if ticks >= MAX_PREAMBLE_TICKS {
            return Ok(Outcome::Unreachable);
        }
        let spec = match s.start {
            // Reclaim is the first tick's state (a fresh phase); Keeper
            // follows once the baseline is measured at the reserved size.
            WorkloadClass::Reclaim | WorkloadClass::Keeper => Spec::keeper(ipc),
            WorkloadClass::Donor => {
                if class == WorkloadClass::Keeper {
                    Spec::keeper(ipc).with_miss_rate(0.0025)
                } else {
                    Spec::keeper(ipc)
                }
            }
            WorkloadClass::Unknown | WorkloadClass::Streaming => {
                if class == WorkloadClass::Keeper || class == WorkloadClass::Unknown {
                    Spec::keeper(ipc).with_miss_rate(0.5)
                } else {
                    Spec::keeper(ipc)
                }
            }
            WorkloadClass::Receiver => match class {
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
        deltas[probe] = spec.delta();
        rig.advance(&deltas);
        class = lattice_tick(&mut lp, &mut cat, &rig.0, probe)?;
        ticks += 1;
    }

    // --- Lattice point, then hold it fixed. ---
    // Long enough to exceed the probe-termination bound: every judged
    // interval an Unknown either grows (bounded by the streaming cap and
    // the free pool) or resolves, and judgement comes at most every
    // settle_intervals + 1 ticks.
    let cap = RESERVED * s.corner.streaming_multiplier;
    let hold = (s.corner.settle_intervals + 1) * (cap + s.pool.free_ways + 2) + 6;
    deltas[probe] = s.point.spec(ipc).delta();
    let mut classes = Vec::with_capacity(hold as usize + 1);
    for _ in 0..=hold {
        rig.advance(&deltas);
        classes.push(lattice_tick(&mut lp, &mut cat, &rig.0, probe)?);
        ticks += 1;
    }
    let failed = |message| Violation {
        tick: lp.ticks(),
        message,
    };

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
        return Err(failed(format!(
            "Keeper<->Donor oscillation under fixed telemetry: {kd} K->D, {dk} D->K edges"
        )));
    }

    // Probe termination: the hold outlasts the growth bound, so an
    // Unknown verdict must have resolved by the end of it.
    if *classes.last().expect("hold ran") == WorkloadClass::Unknown {
        return Err(failed(format!(
            "probe did not terminate: still Unknown after {hold} fixed-telemetry intervals"
        )));
    }

    Ok(Outcome::Explored { ticks })
}

/// Ticks each fault-schedule exploration runs for.
const FAULT_TICKS: u64 = 48;
/// Injection probability per (tick, fault-kind) draw.
const FAULT_RATE: f64 = 0.3;
/// Floors dCat's seeded schedules must meet in a full run. A write fault
/// needs a write to hit and the controller writes only masks that
/// changed, so on the pools the schedules steer a tenant into moving on
/// the faulted tick; if that steering stops working the injected count
/// collapses (to 3 189 without it) and the run must fail rather than
/// report that all invariants held over next to nothing. The values are
/// what the dimension reached when every tick still rewrote COS 0, and
/// when the degraded floor began counting only backend-degraded ticks
/// (telemetry faults degrade ticks steered or not; unsteered: 814).
const INJECTED_FLOOR: usize = 7_374;
const DEGRADED_FLOOR: u64 = 2_322;
/// Applies a full run's mid-apply family must cut short under each policy
/// that reprograms after construction (static CAT never does).
const CUT_SHORT_FLOOR: u64 = 20;

/// What the mid-apply family schedules on every [`MID_APPLY_EVERY`]th
/// tick: the first *k* writes land and the rest fail, for every *k* up to
/// 7, or (last) the core moves fail. On the pools every tenant that can
/// move is nudged, so the tick writes several classes.
const MID_APPLY_FAULTS: [Fault; 9] = [
    Fault::CosWriteAfter(0),
    Fault::CosWriteAfter(1),
    Fault::CosWriteAfter(2),
    Fault::CosWriteAfter(3),
    Fault::CosWriteAfter(4),
    Fault::CosWriteAfter(5),
    Fault::CosWriteAfter(6),
    Fault::CosWriteAfter(7),
    Fault::CoreAssign,
];
const MID_APPLY_EVERY: u64 = 3;

/// Ways of the cache under the churn shapes.
const CHURN_WAYS: u32 = 20;
/// Reserved ways per tenant: three, five and seven tenants. The first is
/// the shape that showed two dCat growers written in class order left on
/// top of each other by a failed write.
const CHURN_SHAPES: [&[u32]; 3] = [&[1, 2, 3], &[2, 1, 3, 2, 1], &[1, 2, 1, 3, 2, 1, 2]];

/// What a fault schedule runs on: tenants, their reservations and the
/// cache, and how their counters move.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// A lattice pool, a probe tenant alternating between growth and
    /// donation, and on a tick that carries a backend fault the tenants
    /// [`Nudge`]d into moving.
    Pool(Pool),
    /// Tenants on [`CHURN_WAYS`] ways cycling through five behaviours at
    /// their own periods ([`churn`]), so sizes, clusters and groups keep
    /// moving without being told to.
    Churn(&'static [u32]),
}

impl Shape {
    fn reserved(&self) -> Vec<u32> {
        match self {
            Shape::Pool(p) => vec![RESERVED; p.tenants as usize],
            Shape::Churn(r) => r.to_vec(),
        }
    }

    fn total_ways(&self) -> u32 {
        match self {
            Shape::Pool(p) => p.total_ways(),
            Shape::Churn(_) => CHURN_WAYS,
        }
    }
}

/// A policy the fault families run, with its configuration.
#[derive(Clone, Copy, Debug)]
enum Policy {
    Dcat(Corner),
    StaticCat,
    Lfoc,
    Memshare,
}

/// The policies in [`Counts::policies`] order, by [`CachePolicy::name`].
pub const POLICIES: [&str; 4] = ["dcat", "static-cat", "lfoc", "memshare"];

impl Policy {
    fn index(self) -> usize {
        match self {
            Policy::Dcat(_) => 0,
            Policy::StaticCat => 1,
            Policy::Lfoc => 2,
            Policy::Memshare => 3,
        }
    }

    /// Whether `fault` on a tick after construction has a write to hit:
    /// dCat moves no core once built, static CAT never writes again, and
    /// on the churn shapes an LFOC apply writes ≤ 6 masks, Memshare's ≤ 5.
    fn hits_after_construction(self, fault: Fault) -> bool {
        match (self, fault) {
            (Policy::StaticCat, _) | (Policy::Dcat(_), Fault::CoreAssign) => false,
            (Policy::Lfoc, Fault::CosWriteAfter(k)) => k < 6,
            (Policy::Memshare, Fault::CosWriteAfter(k)) => k < 5,
            _ => true,
        }
    }

    fn build(
        self,
        handles: Vec<WorkloadHandle>,
        cat: &mut dyn CacheController,
    ) -> Result<Box<dyn CachePolicy>, ResctrlError> {
        Ok(match self {
            Policy::Dcat(corner) => Box::new(DcatController::new(corner.config(), handles, cat)?),
            Policy::StaticCat => Box::new(StaticCatPolicy::new(handles, cat)?),
            Policy::Lfoc => {
                let config = LfocConfig {
                    recluster_ticks: 1,
                    ..LfocConfig::default()
                };
                Box::new(LfocPolicy::new(handles, cat, config)?)
            }
            Policy::Memshare => Box::new(MemsharePolicy::new(handles, cat, MemshareConfig)?),
        })
    }
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

/// What tenant `i` of a churn shape does on `tick` while holding `ways`:
/// each tenant cycles through five behaviours at its own period.
fn churn(i: usize, tick: u64, ways: u32) -> CounterSnapshot {
    let period = 3 + (i as u64 + 1) % 4;
    let [l1_ref, llc_ref, llc_miss, cycles] = match (i as u64 * 7 + tick / period * 3 + 4) % 5 {
        // Misses hard, and more ways help.
        0 => [34_000, 12_000, 6_000, 2_000_000 * 4 / u64::from(4 + ways)],
        // Idle: no counter moves.
        1 => return CounterSnapshot::default(),
        // Compute-bound: hardly touches the LLC.
        2 => [2_000, 10, 1, 80_000],
        // Streaming: a different signature, misses whatever it holds.
        3 => [50_000, 20_000, 19_000, 3_000_000],
        // Fits what it has.
        _ => [34_000, 12_000, 200, 700_000],
    };
    CounterSnapshot {
        l1_ref,
        llc_ref,
        llc_miss,
        ret_ins: 100_000,
        cycles,
    }
}

/// The counters every tenant moves on `tick` of a fault schedule, given
/// the ways the loop last reported for each. `shifted` carries which of
/// the two phase signatures each pool tenant shows.
fn deltas(
    shape: Shape,
    min_ways: u32,
    tick: u64,
    ways: &[u32],
    nudged: usize,
    shifted: &mut [bool],
) -> Vec<CounterSnapshot> {
    let n = ways.len();
    if let Shape::Churn(_) = shape {
        return (0..n).map(|i| churn(i, tick, ways[i])).collect();
    }
    let probe = n - 1;
    // Between faults the probe alternates between growth-seeking and
    // donation every few ticks, so masks change without being told to.
    // Where the minimum is the reservation it has nothing to donate and
    // stays hungry. Its IPC rises with the ways it holds: a flat one is
    // judged Streaming and pinned at the minimum, and then nothing holds
    // extra ways for a nudge to take back.
    let donating = (tick / 4) % 2 == 1 && min_ways < RESERVED;
    let probe_miss_rate = if donating { 0.0025 } else { 0.5 };
    let probe_ipc = 1.0 + 0.15 * f64::from(ways[probe].saturating_sub(RESERVED));
    // Start from a different tenant each tick.
    let mut nudges = vec![None; n];
    let movable = (0..n)
        .map(|k| (k + tick as usize) % n)
        .filter_map(|i| Some((i, nudge_for(ways[i], min_ways)?)));
    for (i, nudge) in movable.take(nudged) {
        nudges[i] = Some(nudge);
        shifted[i] ^= nudge == Nudge::NewPhase;
    }
    (0..n)
        .map(|i| {
            if nudges[i] == Some(Nudge::Idle) {
                return CounterSnapshot::default();
            }
            let base = if i == probe {
                Spec::keeper(probe_ipc).with_miss_rate(probe_miss_rate)
            } else {
                Spec::keeper(1.0)
            };
            let mem_access_per_instr = if shifted[i] { MAPI_SHIFTED } else { MAPI_BASE };
            Spec {
                mem_access_per_instr,
                ..base
            }
            .delta()
        })
        .collect()
}

/// Drives `policy` over `shape` through `plan` and checks the backend and
/// the loop's audit after **every** tick, degraded or not, and after a
/// construction the plan cuts off.
///
/// This is the daemon's loop: a transient failure of the telemetry or of
/// the backend degrades the tick (the previous allocation stands) and
/// only a fatal one ends the run, as a violation. The temporal properties
/// of the lattice do not apply — a degraded tick may legitimately delay
/// them — but the safety invariants must hold unconditionally.
///
/// On the pools, a write fault needs a write to hit and the controller
/// writes only the masks that changed, so on a tick that carries a
/// backend fault the harness nudges `nudged` tenants (see [`Nudge`]) so
/// that the tick programs at least one class; where no tenant can move —
/// the minimum equals the reservation and nothing holds extra ways — the
/// fault has nothing to hit and injects nothing.
fn run_fault_scenario(
    policy: Policy,
    shape: Shape,
    plan: FaultPlan,
    nudged: usize,
) -> Result<FaultCounts, Violation> {
    let plan = plan.with_wrap_width(RESILIENCE.counter_width_bits);
    let reserved = shape.reserved();
    let n = reserved.len();
    let backend = InMemoryController::new(CatCapabilities::with_ways(shape.total_ways()), n as u32);
    let inner = FaultingController::new(backend, plan.clone());
    let mut cat = RetryingController::new(inner, RESILIENCE.retry);
    let failed = |tick, message| Violation { tick, message };
    let domains = handles(reserved.iter().copied());
    let built = match policy.build(domains.clone(), &mut cat) {
        Err(e) if !e.is_transient() => return Err(failed(0, format!("construction failed: {e}"))),
        built => built.ok(),
    };
    // Construction is an apply too. One the plan cut off has only its
    // tenant classes checked: the cores it has not reached yet still sit
    // in the full-mask default class.
    let (cut, backend) = (built.is_none(), cat.inner_mut().inner());
    let overlap = backend.has_overlapping_masks_among(|cos| !cut || cos != CosId(0));
    if overlap {
        return Err(failed(0, "classes overlap after construction".to_string()));
    }
    // A schedule that faults the construction ends with it.
    let Some(built) = built.filter(|_| plan.faults_at(0).is_empty()) else {
        return Ok(FaultCounts {
            schedules: 1,
            ticks: 0,
            injected: cat.inner_mut().injected().len(),
            degraded: u64::from(cut),
            resctrl_degraded: 0,
        });
    };
    let first_cores: Vec<Option<u32>> = domains.iter().map(|h| h.cores.first().copied()).collect();
    let mut lp = ControlLoop::new(built, domains, RESILIENCE)
        .expect("the checker's resilience policy is valid");
    let rig = RefCell::new(Rig(vec![CounterSnapshot::default(); n]));
    let mut telemetry = CsvTelemetry {
        feed: FaultyTelemetry::new(RowFeed(&rig), plan.clone()),
        retry: RESILIENCE.retry,
    };
    let min_ways = match policy {
        Policy::Dcat(corner) => corner.min_ways,
        _ => 1,
    };
    let mut ways = reserved;
    let mut shifted = vec![false; n];
    let (mut degraded, mut resctrl_degraded) = (0u64, 0u64);
    for tick in 1..=FAULT_TICKS {
        cat.inner_mut().set_tick(tick);
        let backend_fault = plan.faults_at(tick).iter().any(|f| {
            matches!(
                f,
                Fault::CosWrite | Fault::CosWriteOnce | Fault::CoreAssign | Fault::CosWriteAfter(_)
            )
        });
        let nudged = if backend_fault { nudged } else { 0 };
        let moved = deltas(shape, min_ways, tick, &ways, nudged, &mut shifted);
        rig.borrow_mut().advance(&moved);
        let obs = lp
            .step(&mut telemetry, &mut cat, &mut Tracer::disabled(), |_, _| {})
            .map_err(|e| failed(tick, format!("fatal error under injected faults: {e}")))?;
        degraded += u64::from(obs.degraded);
        resctrl_degraded += u64::from(obs.degrade_reason() == Some(DegradeReason::Resctrl));
        if let Some(message) = audit_failure(obs.events) {
            return Err(failed(tick, message));
        }
        for (w, r) in ways.iter_mut().zip(obs.reports) {
            *w = r.ways;
        }
        let backend = cat.inner_mut().inner();
        if backend.has_overlapping_active_masks() {
            let message = "two classes holding cores overlap in the backend";
            return Err(failed(tick, message.to_string()));
        }
        // Degraded or not, a report shows the mask its domain's cores sit
        // under, not one a cut-short apply already moved.
        for (i, (r, core)) in obs.reports.iter().zip(&first_cores).enumerate() {
            let cos = core.and_then(|c| backend.core_cos(c).ok());
            let held = cos.and_then(|cos| backend.cos_mask(cos).ok());
            if r.cbm != held.map(|m| u64::from(m.0)) {
                let message = format!("domain {i} reports {:?}; {cos:?} holds {held:?}", r.cbm);
                return Err(failed(tick, message));
            }
        }
    }
    Ok(FaultCounts {
        schedules: 1,
        ticks: FAULT_TICKS,
        injected: cat.inner_mut().injected().len(),
        degraded,
        resctrl_degraded,
    })
}

/// What one family of fault schedules drove under one policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Schedules run to the end without a violation.
    pub schedules: usize,
    /// Loop ticks those schedules drove.
    pub ticks: u64,
    /// Faults the backend injected.
    pub injected: usize,
    /// Ticks that ended degraded, and constructions cut off.
    pub degraded: u64,
    /// Of those ticks, the ones a backend failure degraded.
    pub resctrl_degraded: u64,
}

impl FaultCounts {
    fn add(&mut self, run: FaultCounts) {
        self.schedules += run.schedules;
        self.ticks += run.ticks;
        self.injected += run.injected;
        self.degraded += run.degraded;
        self.resctrl_degraded += run.resctrl_degraded;
    }
}

/// Both fault families' counts for one policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolicyCounts {
    /// The seeded random schedules.
    pub fault: FaultCounts,
    /// The mid-apply family: each faulted apply's first k writes land.
    pub mid_apply: FaultCounts,
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
    /// The fault families, per policy in [`POLICIES`] order.
    pub policies: [PolicyCounts; 4],
}

/// A whole run of the checker: its counts and every violation found,
/// each rendered as the line the binary prints for it.
#[derive(Debug)]
pub struct Report {
    /// What was explored.
    pub counts: Counts,
    /// Temporal-property and invariant violations of the lattice.
    pub(crate) violations: Vec<String>,
    /// Violations under injected faults, either family, and mid-apply
    /// tick families that injected nothing.
    pub(crate) fault_violations: Vec<String>,
}

impl Report {
    /// The count lines a run prints first.
    pub fn summary(&self) -> String {
        let c = &self.counts;
        let mut out = format!(
            "dcat-verify: explored {} (state, telemetry, pool, config) configurations \
             ({} unreachable combinations skipped, {} invalid configs rejected \
             at construction, {} controller intervals driven)\n",
            c.explored, c.unreachable, c.rejected, c.ticks
        );
        for (name, p) in POLICIES.iter().zip(&c.policies) {
            for (family, f) in [("seeded fault", &p.fault), ("mid-apply", &p.mid_apply)] {
                out += &format!(
                    "dcat-verify: {name}: {family} family ran {} schedules ({} ticks, \
                     {} faults injected, {} ticks degraded ({} by the backend) or \
                     constructions cut off, invariants checked every tick)\n",
                    f.schedules, f.ticks, f.injected, f.degraded, f.resctrl_degraded
                );
            }
        }
        out
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
        for (name, p) in POLICIES.iter().zip(&c.policies) {
            // Static CAT writes nothing after construction, so only its
            // telemetry faults can land.
            let reprograms = *name != "static-cat";
            let (f, cut) = (p.fault, p.mid_apply.degraded);
            let floor = if smoke { 1 } else { CUT_SHORT_FLOOR };
            if f.degraded == 0 || reprograms && (f.injected == 0 || cut < floor) {
                return Err(vec![format!(
                    "{name}: the fault families must actually inject faults, degrade \
                     ticks and cut applies short (injected {}, degraded {}; \
                     mid-apply cut short {cut}, floor {floor})",
                    f.injected, f.degraded
                )]);
            }
        }
        let dcat = c.policies[0].fault;
        let (injected, degraded) = (dcat.injected, dcat.resctrl_degraded);
        if !smoke && (injected < INJECTED_FLOOR || degraded < DEGRADED_FLOOR) {
            return Err(vec![format!(
                "dcat's seeded schedules injected {injected} faults over {degraded} ticks the \
                 backend degraded, below the documented floor of {INJECTED_FLOOR} / \
                 {DEGRADED_FLOOR}: the scheduled write faults land on ticks that write nothing"
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
/// subset, then both fault families over the same corners and pools and
/// the churn shapes.
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
        assert!(
            DcatController::new(cfg, handles([RESERVED]), &mut cat).is_err(),
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
                            "  interval {} of {scenario:?}: {}",
                            v.tick, v.message
                        )),
                    }
                }
            }
        }
    }

    // --- The fault families: dCat at every corner over the pools and the
    // churn shapes, the other partitioning policies over the churn shapes.
    let churn: Vec<Shape> = CHURN_SHAPES.iter().map(|&r| Shape::Churn(r)).collect();
    let mut runs: Vec<(Policy, Vec<Shape>)> = corners
        .iter()
        .map(|&c| (Policy::Dcat(c), pools.iter().map(|&p| Shape::Pool(p))))
        .map(|(policy, shapes)| (policy, shapes.chain(churn.iter().copied()).collect()))
        .collect();
    for policy in [Policy::StaticCat, Policy::Lfoc, Policy::Memshare] {
        runs.push((policy, churn.clone()));
    }
    // Twelve seeded schedules per (policy, shape), as many as dCat's floors
    // were set at. In an eighth of dCat's pool pairs no tenant can ever
    // move (minimum = reservation, no free way): their faults land nowhere.
    let fault_seeds: u64 = if smoke { 2 } else { 12 };
    let mut fault_violations = Vec::new();
    let mut tick_injected = [[None; MID_APPLY_FAULTS.len()]; POLICIES.len()];
    for (ci, (policy, shapes)) in runs.iter().enumerate() {
        let mut record = |family: fn(&mut PolicyCounts) -> &mut FaultCounts,
                          shape,
                          plan: FaultPlan,
                          nudged,
                          what: String| {
            let run = run_fault_scenario(*policy, shape, plan, nudged).unwrap_or_else(|v| {
                let (tick, message) = (v.tick, v.message);
                let line = format!("  tick {tick} of {policy:?} over {shape:?}, {what}: {message}");
                fault_violations.push(line);
                FaultCounts::default()
            });
            family(&mut counts.policies[policy.index()]).add(run);
            run.injected
        };
        for (pi, &shape) in shapes.iter().enumerate() {
            for stream in 0..fault_seeds {
                let seed = smallrng::split_seed(
                    0xDCA7_FA17,
                    ((ci as u64) << 32) | ((pi as u64) << 16) | stream,
                );
                let plan = FaultPlan::random(seed, FAULT_TICKS, FAULT_RATE);
                record(|p| &mut p.fault, shape, plan, 1, format!("seed {seed}"));
            }
            // --- Mid-apply: each faulted apply's first k writes land, the
            // rest fail, where the policy has such an apply after
            // construction; then a construction cut off the same way.
            for (k, fault) in MID_APPLY_FAULTS.into_iter().enumerate() {
                if policy.hits_after_construction(fault) {
                    let ticks = (1..=FAULT_TICKS).filter(|t| t % MID_APPLY_EVERY == 0);
                    let plan = FaultPlan::scripted(ticks.map(|t| (t, fault)));
                    let what = format!("{fault:?} every {MID_APPLY_EVERY}rd tick");
                    let injected = record(|p| &mut p.mid_apply, shape, plan, usize::MAX, what);
                    *tick_injected[policy.index()][k].get_or_insert(0) += injected;
                }
                let plan = FaultPlan::scripted([(0, fault)]);
                let what = format!("{fault:?} in construction");
                record(|p| &mut p.mid_apply, shape, plan, 0, what);
            }
        }
    }
    // A tick family with nothing to hit checks nothing: it must not run.
    for (name, row) in POLICIES.iter().zip(tick_injected) {
        let dead = MID_APPLY_FAULTS
            .iter()
            .zip(row)
            .filter(|(_, n)| *n == Some(0));
        let every = format!("every {MID_APPLY_EVERY}rd tick injected nothing");
        fault_violations.extend(dead.map(|(fault, _)| format!("  {name}: {fault:?} {every}")));
    }
    Report {
        counts,
        violations,
        fault_violations,
    }
}
