//! The way floor is a fact of the hardware: on a backend whose masks need
//! at least two ways (`min_cbm_bits = 2`), every policy that shrinks a
//! tenant stops at two. An idle tenant beside a cache-hungry one is the
//! one each policy shrinks furthest — dCat's donor, LFOC's insensitive
//! bucket, Memshare's lender — so a floor of one would program a one-way
//! mask, which the backend refuses.

use dcat::{
    CachePolicy, DcatConfig, DcatController, LfocConfig, LfocPolicy, MemshareConfig,
    MemsharePolicy, WorkloadHandle,
};
use perf_events::CounterSnapshot;
use resctrl::mock::MutationRecord;
use resctrl::{CatCapabilities, InMemoryController};

type Build = fn(Vec<WorkloadHandle>, &mut InMemoryController) -> Box<dyn CachePolicy>;

const TWO_BIT: CatCapabilities = CatCapabilities {
    cbm_len: 20,
    min_cbm_bits: 2,
    num_closids: 16,
};

/// Totals after `t` intervals: tenant 0 is idle, tenant 1 misses half
/// its LLC references.
fn totals(t: u64) -> [CounterSnapshot; 2] {
    let hungry = CounterSnapshot {
        l1_ref: 333 * t,
        llc_ref: 400 * t,
        llc_miss: 200 * t,
        ret_ins: 1000 * t,
        cycles: 1000 * t,
    };
    [CounterSnapshot::default(), hungry]
}

/// Runs `build`'s policy over an idle and a hungry tenant of four
/// reserved ways for eight ticks: every tick must succeed and every mask
/// programmed must hold at least two ways.
fn an_idle_tenant_keeps_two_ways(build: Build) {
    let mut cat = InMemoryController::new(TWO_BIT, 2);
    let handles = vec![
        WorkloadHandle::new("idle", vec![0], 4),
        WorkloadHandle::new("hungry", vec![1], 4),
    ];
    let mut p = build(handles, &mut cat);
    let name = p.name();
    for t in 1..=8 {
        if let Err(e) = p.tick(&totals(t), &mut cat) {
            panic!("{name}, tick {t}: {e} ({:?})", e.severity());
        }
    }
    for record in &cat.log {
        if let MutationRecord::ProgramCos(cos, cbm) = record {
            assert!(cbm.ways() >= 2, "{name}: {cos:?} <- {cbm}");
        }
    }
}

#[test]
fn dcat_keeps_the_hardware_way_floor() {
    an_idle_tenant_keeps_two_ways(|h, cat| {
        Box::new(DcatController::new(DcatConfig::default(), h, cat).unwrap())
    });
}

#[test]
fn lfoc_keeps_the_hardware_way_floor() {
    an_idle_tenant_keeps_two_ways(|h, cat| {
        Box::new(LfocPolicy::new(h, cat, LfocConfig::default()).unwrap())
    });
}

#[test]
fn memshare_keeps_the_hardware_way_floor() {
    an_idle_tenant_keeps_two_ways(|h, cat| {
        Box::new(MemsharePolicy::new(h, cat, MemshareConfig).unwrap())
    });
}
