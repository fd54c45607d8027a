//! The quiet tick: an interval on which no mask changes programs nothing,
//! COS 0 included, and COS 0 is written — once, between the shrinkers and
//! the growers — only when its free run moved.

use dcat::{DcatConfig, DcatController, WorkloadHandle};
use perf_events::CounterSnapshot;
use resctrl::{CacheController, CatCapabilities, Cbm, CosId, InMemoryController, ResctrlError};

/// One `program_cos` call as the backend saw it.
#[derive(Debug, Clone, Copy)]
struct Call {
    cos: CosId,
    old: Cbm,
    new: Cbm,
}

impl Call {
    fn shrinks(&self) -> bool {
        self.new.difference(self.old).is_empty()
    }
}

/// Counts `program_cos` calls on an in-memory backend, and fails the
/// default class's on request.
struct Counting {
    inner: InMemoryController,
    calls: Vec<Call>,
    fail_default: bool,
}

impl Counting {
    fn new(domains: u32) -> Self {
        Counting {
            inner: InMemoryController::new(CatCapabilities::with_ways(20), domains),
            calls: Vec::new(),
            fail_default: false,
        }
    }

    fn default_calls(&self) -> usize {
        self.calls.iter().filter(|c| c.cos == CosId(0)).count()
    }
}

impl CacheController for Counting {
    fn capabilities(&self) -> CatCapabilities {
        self.inner.capabilities()
    }

    fn num_cores(&self) -> u32 {
        self.inner.num_cores()
    }

    fn program_cos(&mut self, cos: CosId, cbm: Cbm) -> Result<(), ResctrlError> {
        self.calls.push(Call {
            cos,
            old: self.inner.cos_mask(cos)?,
            new: cbm,
        });
        if self.fail_default && cos == CosId(0) {
            return Err(ResctrlError::Io(std::io::Error::other("scripted EIO")));
        }
        self.inner.program_cos(cos, cbm)
    }

    fn assign_core(&mut self, core: u32, cos: CosId) -> Result<(), ResctrlError> {
        self.inner.assign_core(core, cos)
    }

    fn cos_mask(&self, cos: CosId) -> Result<Cbm, ResctrlError> {
        self.inner.cos_mask(cos)
    }

    fn core_cos(&self, core: u32) -> Result<CosId, ResctrlError> {
        self.inner.core_cos(core)
    }
}

/// Real LLC use, a miss rate between the donor and growth thresholds: a
/// tenant that keeps what it has.
const KEEPER: CounterSnapshot = CounterSnapshot {
    l1_ref: 340_000,
    llc_ref: 120_000,
    llc_miss: 2_000,
    ret_ins: 1_000_000,
    cycles: 7_000_000,
};

fn controller(domains: u32, cat: &mut Counting) -> DcatController {
    let handles = (0..domains)
        .map(|i| WorkloadHandle::new(format!("vm{i}"), vec![i], 4))
        .collect();
    let config = DcatConfig {
        settle_intervals: 1,
        ..DcatConfig::default()
    };
    DcatController::new(config, handles, cat).unwrap()
}

/// Advances every total but `idle`'s by one keeper interval.
fn advance(totals: &mut [CounterSnapshot], idle: Option<usize>) {
    for (i, t) in totals.iter_mut().enumerate() {
        if Some(i) != idle {
            *t = t.merged_with(&KEEPER);
        }
    }
}

/// The first write always happens: nothing is recorded for COS 0 before it.
#[test]
fn construction_programs_the_default_class_once() {
    let mut cat = Counting::new(3);
    let _ctl = controller(3, &mut cat);
    assert_eq!(cat.default_calls(), 1);
    assert_eq!(cat.calls.len(), 4, "three tenants and COS 0");
}

#[test]
fn steady_ticks_program_nothing() {
    let mut cat = Counting::new(3);
    let mut ctl = controller(3, &mut cat);
    cat.calls.clear();
    let mut totals = [CounterSnapshot::default(); 3];
    for _ in 0..40 {
        advance(&mut totals, None);
        ctl.tick(&totals, &mut cat).unwrap();
    }
    assert!(
        cat.calls.is_empty(),
        "steady keepers were re-programmed: {:?}",
        cat.calls
    );
}

/// Tenants 0 and 1 take turns being idle: the idle one drops to the
/// minimum at once, the waking one is reclaimed to its reservation.
#[test]
fn a_moved_free_run_is_written_once_between_the_two_passes() {
    let mut cat = Counting::new(2);
    let mut ctl = controller(2, &mut cat);
    let mut totals = [CounterSnapshot::default(); 2];
    let mut ticks_with_all_three = 0;
    for tick in 0..12usize {
        cat.calls.clear();
        advance(&mut totals, Some(tick % 2));
        ctl.tick(&totals, &mut cat).unwrap();

        let free_run_moved = cat
            .calls
            .iter()
            .any(|c| c.cos == CosId(0) && c.old != c.new);
        assert!(
            cat.default_calls() <= 1 && (cat.default_calls() == 0 || free_run_moved),
            "tick {tick}: COS 0 written without need: {:?}",
            cat.calls
        );
        let Some(at) = cat.calls.iter().position(|c| c.cos == CosId(0)) else {
            continue;
        };
        let (before, after) = (&cat.calls[..at], &cat.calls[at + 1..]);
        assert!(
            before.iter().all(Call::shrinks),
            "tick {tick}: a grower ahead of COS 0: {:?}",
            cat.calls
        );
        assert!(
            !after.iter().any(Call::shrinks),
            "tick {tick}: a shrinker behind COS 0: {:?}",
            cat.calls
        );
        if !before.is_empty() && !after.is_empty() {
            ticks_with_all_three += 1;
        }
        // What it was given is the longest run the tenants leave free.
        let default = cat.cos_mask(CosId(0)).unwrap();
        for cos in 1..=2 {
            assert!(!default.overlaps(cat.cos_mask(CosId(cos)).unwrap()));
        }
    }
    assert!(
        ticks_with_all_three >= 3,
        "the scenario never put COS 0 between a shrinker and a grower"
    );
}

#[test]
fn a_failed_default_write_is_not_recorded_and_is_reissued() {
    let mut cat = Counting::new(2);
    let mut ctl = controller(2, &mut cat);
    let mut totals = [CounterSnapshot::default(); 2];
    // Run the trading-places scenario until a tick is about to move COS 0,
    // found by letting a twin run one tick ahead.
    let mut twin_cat = Counting::new(2);
    let mut twin = controller(2, &mut twin_cat);
    let mut failing_tick = None;
    for tick in 0..12usize {
        advance(&mut totals, Some(tick % 2));
        twin_cat.calls.clear();
        twin.tick(&totals, &mut twin_cat).unwrap();
        if twin_cat.default_calls() == 1 && tick >= 2 {
            failing_tick = Some(tick);
            break;
        }
        ctl.tick(&totals, &mut cat).unwrap();
    }
    let tick = failing_tick.expect("the scenario moves COS 0");
    let wanted = twin_cat.cos_mask(CosId(0)).unwrap();
    let held = cat.cos_mask(CosId(0)).unwrap();
    assert_ne!(wanted, held);

    cat.calls.clear();
    cat.fail_default = true;
    let err = ctl.tick(&totals, &mut cat).unwrap_err();
    assert!(err.is_transient());
    assert_eq!(cat.default_calls(), 1);
    assert_eq!(
        cat.cos_mask(CosId(0)).unwrap(),
        held,
        "the write never landed"
    );

    // Next interval, same inputs but for the clock: had the controller
    // recorded the mask it failed to write, it would now skip it.
    cat.fail_default = false;
    cat.calls.clear();
    advance(&mut totals, Some(tick % 2));
    ctl.tick(&totals, &mut cat).unwrap();
    assert_eq!(
        cat.default_calls(),
        1,
        "COS 0 not re-issued: {:?}",
        cat.calls
    );
    assert_eq!(cat.cos_mask(CosId(0)).unwrap(), wanted);

    // And once it is in, it is not written again.
    cat.calls.clear();
    advance(&mut totals, Some(tick % 2));
    ctl.tick(&totals, &mut cat).unwrap();
    assert_eq!(cat.default_calls(), 0, "{:?}", cat.calls);
}
