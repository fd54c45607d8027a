//! Deterministic fault injection for the control plane and telemetry.
//!
//! A daemon that only ever sees healthy inputs is untested where it
//! matters. This module provides the *scripted* failure side of that
//! story: a [`FaultPlan`] is a tick-keyed schedule of [`Fault`]s, built
//! either explicitly ([`FaultPlan::scripted`], for regression tests that
//! need "telemetry truncated at tick k, `program_cos` EIO at tick k+1")
//! or pseudo-randomly ([`FaultPlan::random`], seeded through
//! [`smallrng::split_seed`] so sweeps stay bit-identical at any `--jobs`
//! width).
//!
//! [`FaultingController`] consumes the control-plane half of a plan by
//! wrapping any [`CacheController`] and failing scheduled writes with
//! injected I/O errors; the telemetry half (read errors, truncation,
//! stale samples, counter wraps) is interpreted by the daemon's
//! telemetry source, which shares the same plan so one schedule drives
//! both failure surfaces.

use std::collections::BTreeMap;

use crate::controller::{CacheController, CatCapabilities, CosId, ResctrlError};
use cbm::Cbm;

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Every `program_cos` call this tick fails with an injected EIO —
    /// retries exhaust and the tick must degrade.
    CosWrite,
    /// Only the first `program_cos` call this tick fails — one retry
    /// absorbs it and the tick completes normally.
    CosWriteOnce,
    /// The first *k* `program_cos` calls this tick go through and every
    /// later one fails, retries included: an apply cut off part-way.
    /// Never drawn by [`FaultPlan::random`]; schedules name it explicitly.
    CosWriteAfter(u32),
    /// Every `assign_core` call this tick fails with an injected EIO.
    CoreAssign,
    /// Every telemetry read this tick fails with an injected I/O error.
    TelemetryRead,
    /// Only the first telemetry read this tick fails.
    TelemetryReadOnce,
    /// The telemetry text is cut off mid-row (a sampler caught
    /// mid-write).
    TelemetryTruncated,
    /// The previous sample is served again (a wedged sampler).
    TelemetryStale,
    /// From this tick on, counter totals are reported modulo
    /// `2^wrap_width_bits`, as a narrow hardware counter would.
    CounterWrap,
}

impl Fault {
    /// Stable short name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Fault::CosWrite => "cos_write",
            Fault::CosWriteOnce => "cos_write_once",
            Fault::CosWriteAfter(_) => "cos_write_after",
            Fault::CoreAssign => "core_assign",
            Fault::TelemetryRead => "telemetry_read",
            Fault::TelemetryReadOnce => "telemetry_read_once",
            Fault::TelemetryTruncated => "telemetry_truncated",
            Fault::TelemetryStale => "telemetry_stale",
            Fault::CounterWrap => "counter_wrap",
        }
    }
}

/// Every kind [`FaultPlan::random`] draws, in a stable order.
/// [`Fault::CosWriteAfter`] is left out so the seeded schedules keep
/// their meaning.
const ALL_FAULTS: [Fault; 8] = [
    Fault::CosWrite,
    Fault::CosWriteOnce,
    Fault::CoreAssign,
    Fault::TelemetryRead,
    Fault::TelemetryReadOnce,
    Fault::TelemetryTruncated,
    Fault::TelemetryStale,
    Fault::CounterWrap,
];

/// A tick-keyed schedule of injected faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    schedule: BTreeMap<u64, Vec<Fault>>,
    wrap_width_bits: u32,
}

/// Counters report full 64-bit totals unless a plan narrows them.
const DEFAULT_WRAP_WIDTH_BITS: u32 = 32;

impl FaultPlan {
    /// An explicit schedule: `(tick, fault)` pairs, any order.
    pub fn scripted(faults: impl IntoIterator<Item = (u64, Fault)>) -> Self {
        let mut schedule: BTreeMap<u64, Vec<Fault>> = BTreeMap::new();
        for (tick, fault) in faults {
            schedule.entry(tick).or_default().push(fault);
        }
        FaultPlan {
            schedule,
            wrap_width_bits: DEFAULT_WRAP_WIDTH_BITS,
        }
    }

    /// A pseudo-random schedule over daemon ticks `1..=ticks` where each
    /// tick carries one fault with probability `rate`. Seed through
    /// [`smallrng::split_seed`] to keep parallel sweeps deterministic.
    #[expect(
        clippy::indexing_slicing,
        reason = "`gen_range_usize(0..len)` is below `ALL_FAULTS.len()`"
    )]
    pub fn random(seed: u64, ticks: u64, rate: f64) -> Self {
        let mut rng = smallrng::SmallRng::seed_from_u64(seed);
        let mut faults = Vec::new();
        for tick in 1..=ticks {
            if rng.gen_bool(rate) {
                let kind = ALL_FAULTS[rng.gen_range_usize(0..ALL_FAULTS.len())];
                faults.push((tick, kind));
            }
        }
        FaultPlan::scripted(faults)
    }

    /// Overrides the counter width (in bits) that [`Fault::CounterWrap`]
    /// narrows totals to.
    pub fn with_wrap_width(mut self, bits: u32) -> Self {
        assert!((1..=63).contains(&bits), "wrap width must be 1..=63 bits");
        self.wrap_width_bits = bits;
        self
    }

    /// The counter width [`Fault::CounterWrap`] narrows totals to.
    pub fn wrap_width_bits(&self) -> u32 {
        self.wrap_width_bits
    }

    /// The faults scheduled at `tick`.
    pub fn faults_at(&self, tick: u64) -> &[Fault] {
        self.schedule.get(&tick).map_or(&[], Vec::as_slice)
    }

    /// Whether `fault` is scheduled at `tick`.
    pub fn contains(&self, tick: u64, fault: Fault) -> bool {
        self.faults_at(tick).contains(&fault)
    }

    /// Whether counters are narrowed at `tick`: a wrapped counter stays
    /// narrow, so the first scheduled [`Fault::CounterWrap`] applies to
    /// every later tick too.
    pub fn wrap_active_at(&self, tick: u64) -> bool {
        self.schedule
            .range(..=tick)
            .any(|(_, faults)| faults.contains(&Fault::CounterWrap))
    }

    /// Total number of scheduled faults.
    pub fn total_faults(&self) -> usize {
        self.schedule.values().map(Vec::len).sum()
    }

    /// All `(tick, fault)` pairs in tick order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Fault)> + '_ {
        self.schedule
            .iter()
            .flat_map(|(t, faults)| faults.iter().map(move |f| (*t, *f)))
    }
}

/// A [`CacheController`] wrapper that fails scheduled writes.
///
/// The daemon advances the wrapper's clock with [`set_tick`] once per
/// loop iteration; within a tick the wrapper counts calls so the
/// `*Once` variants fail exactly the first attempt and
/// [`Fault::CosWriteAfter`] lets exactly its first *k* through. Injected failures
/// are recorded so tests can assert the event log saw every one.
///
/// [`set_tick`]: FaultingController::set_tick
#[derive(Debug)]
pub struct FaultingController<C> {
    inner: C,
    plan: FaultPlan,
    tick: u64,
    cos_write_calls: u32,
    injected: Vec<(u64, Fault)>,
}

impl<C: CacheController> FaultingController<C> {
    /// Wraps `inner` under `plan`, starting at tick 0.
    pub fn new(inner: C, plan: FaultPlan) -> Self {
        FaultingController {
            inner,
            plan,
            tick: 0,
            cos_write_calls: 0,
            injected: Vec::new(),
        }
    }

    /// Advances the schedule clock and resets the per-tick call counts.
    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
        self.cos_write_calls = 0;
    }

    /// The wrapped backend.
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    /// A shared view of the wrapped backend.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Every fault actually injected, as `(tick, fault)` pairs.
    pub fn injected(&self) -> &[(u64, Fault)] {
        &self.injected
    }

    fn inject(&mut self, fault: Fault, op: &str) -> ResctrlError {
        self.injected.push((self.tick, fault));
        ResctrlError::Io(std::io::Error::other(format!(
            "injected {} fault in {op} at tick {}",
            fault.name(),
            self.tick
        )))
    }
}

impl<C: CacheController> CacheController for FaultingController<C> {
    fn capabilities(&self) -> CatCapabilities {
        self.inner.capabilities()
    }

    fn num_cores(&self) -> u32 {
        self.inner.num_cores()
    }

    fn program_cos(&mut self, cos: CosId, cbm: Cbm) -> Result<(), ResctrlError> {
        let first_call = self.cos_write_calls == 0;
        self.cos_write_calls += 1;
        if self.plan.contains(self.tick, Fault::CosWrite) {
            return Err(self.inject(Fault::CosWrite, "program_cos"));
        }
        if first_call && self.plan.contains(self.tick, Fault::CosWriteOnce) {
            return Err(self.inject(Fault::CosWriteOnce, "program_cos"));
        }
        for &fault in self.plan.faults_at(self.tick) {
            if let Fault::CosWriteAfter(k) = fault {
                if self.cos_write_calls > k {
                    return Err(self.inject(fault, "program_cos"));
                }
            }
        }
        self.inner.program_cos(cos, cbm)
    }

    fn assign_core(&mut self, core: u32, cos: CosId) -> Result<(), ResctrlError> {
        if self.plan.contains(self.tick, Fault::CoreAssign) {
            return Err(self.inject(Fault::CoreAssign, "assign_core"));
        }
        self.inner.assign_core(core, cos)
    }

    fn cos_mask(&self, cos: CosId) -> Result<Cbm, ResctrlError> {
        self.inner.cos_mask(cos)
    }

    fn core_cos(&self, core: u32) -> Result<CosId, ResctrlError> {
        self.inner.core_cos(core)
    }

    fn flush_cbm(&mut self, cbm: Cbm) -> Result<(), ResctrlError> {
        self.inner.flush_cbm(cbm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::InMemoryController;

    #[test]
    fn scripted_schedules_are_tick_keyed() {
        let plan = FaultPlan::scripted([
            (3, Fault::TelemetryTruncated),
            (1, Fault::CosWrite),
            (3, Fault::CoreAssign),
        ]);
        assert_eq!(plan.faults_at(1), &[Fault::CosWrite]);
        assert_eq!(
            plan.faults_at(3),
            &[Fault::TelemetryTruncated, Fault::CoreAssign]
        );
        assert!(plan.faults_at(0).is_empty());
        assert_eq!(plan.total_faults(), 3);
        assert_eq!(plan.iter().count(), 3);
    }

    #[test]
    fn counter_wrap_is_sticky() {
        let plan = FaultPlan::scripted([(5, Fault::CounterWrap)]);
        assert!(!plan.wrap_active_at(4));
        assert!(plan.wrap_active_at(5));
        assert!(plan.wrap_active_at(100));
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(42, 100, 0.3);
        let b = FaultPlan::random(42, 100, 0.3);
        let c = FaultPlan::random(43, 100, 0.3);
        let pairs = |p: &FaultPlan| p.iter().collect::<Vec<_>>();
        assert_eq!(pairs(&a), pairs(&b));
        assert_ne!(pairs(&a), pairs(&c), "different seeds, different plans");
        assert!(a.total_faults() > 10, "rate 0.3 over 100 ticks");
        assert!(a.total_faults() < 60);
    }

    #[test]
    fn scheduled_writes_fail_and_are_recorded() {
        let plan = FaultPlan::scripted([(2, Fault::CosWrite)]);
        let mut cat = FaultingController::new(InMemoryController::xeon_e5(4), plan);

        cat.set_tick(1);
        cat.program_cos(CosId(1), Cbm(0b11)).unwrap();
        cat.set_tick(2);
        let err = cat.program_cos(CosId(1), Cbm(0b111)).unwrap_err();
        assert!(err.is_transient());
        // Every call this tick fails, so a retry loop exhausts.
        assert!(cat.program_cos(CosId(1), Cbm(0b111)).is_err());
        cat.set_tick(3);
        cat.program_cos(CosId(1), Cbm(0b111)).unwrap();

        assert_eq!(
            cat.injected(),
            &[(2, Fault::CosWrite), (2, Fault::CosWrite)]
        );
        // The failed write never reached the backend.
        assert_eq!(cat.inner().cos_mask(CosId(1)).unwrap(), Cbm(0b111));
    }

    #[test]
    fn once_variant_fails_only_the_first_call_per_tick() {
        let plan = FaultPlan::scripted([(0, Fault::CosWriteOnce)]);
        let mut cat = FaultingController::new(InMemoryController::xeon_e5(4), plan);
        assert!(cat.program_cos(CosId(1), Cbm(0b1)).is_err());
        cat.program_cos(CosId(1), Cbm(0b1)).unwrap();
        assert_eq!(cat.injected().len(), 1);
    }

    #[test]
    fn write_after_k_passes_k_calls_then_fails_the_rest_of_the_tick() {
        let plan = FaultPlan::scripted([(1, Fault::CosWriteAfter(2))]);
        let mut cat = FaultingController::new(InMemoryController::xeon_e5(4), plan);
        cat.set_tick(1);
        cat.program_cos(CosId(1), Cbm(0b1)).unwrap();
        cat.program_cos(CosId(2), Cbm(0b10)).unwrap();
        for _ in 0..3 {
            assert!(cat.program_cos(CosId(3), Cbm(0b100)).is_err());
        }
        cat.set_tick(2);
        cat.program_cos(CosId(3), Cbm(0b100)).unwrap();
        assert_eq!(cat.injected(), &[(1, Fault::CosWriteAfter(2)); 3]);
        assert_eq!(Fault::CosWriteAfter(2).name(), "cos_write_after");
        // The seeded schedules never draw it.
        let random = FaultPlan::random(42, 1_000, 1.0);
        assert!(random
            .iter()
            .all(|(_, f)| !matches!(f, Fault::CosWriteAfter(_))));
    }
}
