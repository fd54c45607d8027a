//! An apply cut short mid-way leaves the backend in a layout no policy
//! planned. Every tick's plan is the whole layout the policy wants held,
//! so the next tick's apply converges on it, and every report shows the
//! mask the backend holds for its domain — for LFOC too, which
//! reclusters only every fourth tick and once reprogrammed only then.

use dcat::{CachePolicy, LfocConfig, LfocPolicy, WorkloadHandle};
use perf_events::CounterSnapshot;
use resctrl::fault::{Fault, FaultPlan, FaultingController};
use resctrl::{CacheController, CatCapabilities, Cbm, InMemoryController};

/// The first reclustering of `LfocConfig::default()`.
const RECLUSTER: u64 = 4;
const TICKS: u64 = 12;

/// Totals after `t` intervals of four one-core tenants: a low-miss, a
/// mid-miss, an idle and a streaming one.
fn totals(t: u64) -> Vec<CounterSnapshot> {
    let active = |llc_miss: u64| CounterSnapshot {
        l1_ref: 333 * t,
        llc_ref: 400 * t,
        llc_miss: llc_miss * t,
        ret_ins: 1000 * t,
        cycles: 1000 * t,
    };
    vec![
        active(40),
        active(200),
        CounterSnapshot::default(),
        active(390),
    ]
}

/// The mask of the class each tenant's core sits in, as the backend has it.
fn backend_masks(cat: &FaultingController<InMemoryController>) -> Vec<Cbm> {
    let cat = cat.inner();
    (0..4)
        .map(|core| cat.cos_mask(cat.core_cos(core).unwrap()).unwrap())
        .collect()
}

/// Runs LFOC for `TICKS` ticks, the apply of the first reclustering cut
/// short after `fault` writes; returns the backend's masks after each
/// tick. Every report must show the backend's mask on every tick.
fn run(fault: Option<u32>) -> Vec<Vec<Cbm>> {
    let faults = fault.map(|k| (RECLUSTER, Fault::CosWriteAfter(k)));
    let inner = InMemoryController::new(CatCapabilities::with_ways(20), 4);
    let mut cat = FaultingController::new(inner, FaultPlan::scripted(faults));
    let handles = ["low-miss", "mid-miss", "idle", "streaming"];
    let handles = (0..)
        .zip(handles)
        .map(|(core, name)| WorkloadHandle::new(name, vec![core], 4));
    let mut p = LfocPolicy::new(handles.collect(), &mut cat, LfocConfig::default()).unwrap();
    let mut masks = Vec::new();
    for t in 1..=TICKS {
        cat.set_tick(t);
        let ticked = p.tick(&totals(t), &mut cat);
        let cut_short = fault.is_some() && t == RECLUSTER;
        assert_eq!(ticked.is_err(), cut_short, "{fault:?} tick {t}: {ticked:?}");
        let held = backend_masks(&cat);
        for (r, mask) in p.reports().iter().zip(&held) {
            let cbm = Some(u64::from(mask.0));
            assert_eq!(r.cbm, cbm, "{fault:?} tick {t}: {} holds {mask}", r.name);
        }
        masks.push(held);
    }
    masks
}

#[test]
fn lfoc_converges_on_its_layout_the_tick_after_a_cut_short_apply() {
    let clean = run(None);
    for k in 0..=2 {
        let faulted = run(Some(k));
        let next = RECLUSTER as usize;
        assert_eq!(faulted[next..], clean[next..], "CosWriteAfter({k})");
    }
}
