//! The way floor is a fact of the hardware: on a backend whose masks need
//! at least two ways (`min_cbm_bits = 2`), every policy that shrinks a
//! tenant stops at two. An idle tenant beside a cache-hungry one is the
//! one each policy shrinks furthest — dCat's donor, LFOC's insensitive
//! bucket, Memshare's lender — so a floor of one would program a one-way
//! mask, which the backend refuses. dCat and static CAT start every
//! tenant at its reservation, so they refuse a one-way one where they are
//! built. So does every policy that programs a pool whose tenants do not
//! each own cores of their own.

use std::time::Duration;

use dcat::daemon::{run_daemon_observed, ObsOptions};
use dcat::{
    CachePolicy, ControlLoop, DaemonConfig, DcatConfig, DcatController, LfocConfig, LfocPolicy,
    MemshareConfig, MemsharePolicy, ResiliencePolicy, StaticCatPolicy, WorkloadHandle,
};
use perf_events::CounterSnapshot;
use resctrl::mock::MutationRecord;
use resctrl::{CatCapabilities, InMemoryController, ResctrlError};

type Build = fn(Vec<WorkloadHandle>, &mut InMemoryController) -> Box<dyn CachePolicy>;
type TryBuild =
    fn(Vec<WorkloadHandle>, &mut InMemoryController) -> Result<Box<dyn CachePolicy>, ResctrlError>;

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

/// A tenant reserving one way on a two-way-floor backend is refused where
/// the policy is built, by name and reservation, before anything is
/// written: a one-way reservation is a mask the backend would refuse.
fn a_one_way_reservation_is_refused_before_any_write(build: TryBuild) {
    let mut cat = InMemoryController::new(TWO_BIT, 2);
    let handles = vec![
        WorkloadHandle::new("wide", vec![0], 4),
        WorkloadHandle::new("narrow", vec![1], 1),
    ];
    let Err(e) = build(handles, &mut cat) else {
        panic!("a one-way reservation was accepted");
    };
    let message = e.to_string();
    assert!(
        message.contains("narrow") && message.contains("reserves 1 ways"),
        "{message}"
    );
    assert!(cat.log.is_empty(), "{message}: {:?}", cat.log);
}

#[test]
fn dcat_refuses_a_reservation_below_the_hardware_way_floor() {
    a_one_way_reservation_is_refused_before_any_write(|h, cat| {
        let ctl = DcatController::new(DcatConfig::default(), h, cat)?;
        Ok(Box::new(ctl))
    });
}

#[test]
fn static_cat_refuses_a_reservation_below_the_hardware_way_floor() {
    a_one_way_reservation_is_refused_before_any_write(|h, cat| {
        Ok(Box::new(StaticCatPolicy::new(h, cat)?))
    });
}

/// Two tenants sharing a core, and a tenant with no core (built through
/// the `pub` fields `WorkloadHandle::new` guards): each refused where the
/// policy is built, naming the tenants, before anything is written. A
/// shared core would read one class's mask as both tenants' grants; an
/// empty tenant would have a grant with no mask.
fn a_pool_without_own_cores_is_refused_before_any_write(build: TryBuild) {
    let shared = vec![
        WorkloadHandle::new("web", vec![0, 1], 4),
        WorkloadHandle::new("db", vec![1, 2], 4),
    ];
    let mut ghost = WorkloadHandle::new("ghost", vec![3], 4);
    ghost.cores.clear();
    let empty = vec![WorkloadHandle::new("web", vec![0], 4), ghost];
    let pools: [(_, &[&str]); 2] = [
        (shared, &["\"web\"", "\"db\"", "core 1"]),
        (empty, &["\"ghost\"", "no cores"]),
    ];
    for (handles, named) in pools {
        let mut cat = InMemoryController::new(TWO_BIT, 4);
        let Err(e) = build(handles, &mut cat) else {
            panic!("a pool naming {named:?} was accepted");
        };
        let message = e.to_string();
        assert!(named.iter().all(|n| message.contains(n)), "{message}");
        assert!(cat.log.is_empty(), "{message}: {:?}", cat.log);
    }
}

#[test]
fn dcat_refuses_a_pool_without_own_cores() {
    a_pool_without_own_cores_is_refused_before_any_write(|h, cat| {
        let ctl = DcatController::new(DcatConfig::default(), h, cat)?;
        Ok(Box::new(ctl))
    });
}

#[test]
fn static_cat_refuses_a_pool_without_own_cores() {
    a_pool_without_own_cores_is_refused_before_any_write(|h, cat| {
        Ok(Box::new(StaticCatPolicy::new(h, cat)?))
    });
}

#[test]
fn lfoc_refuses_a_pool_without_own_cores() {
    a_pool_without_own_cores_is_refused_before_any_write(|h, cat| {
        Ok(Box::new(LfocPolicy::new(h, cat, LfocConfig::default())?))
    });
}

#[test]
fn memshare_refuses_a_pool_without_own_cores() {
    a_pool_without_own_cores_is_refused_before_any_write(|h, cat| {
        Ok(Box::new(MemsharePolicy::new(h, cat, MemshareConfig)?))
    });
}

/// Every refusal of a pool or loop where it is built is fatal: retrying
/// cannot change the configuration, so a caller that retries transient
/// errors must not read one as weather. One each of the five: more
/// tenants than classes, tenants sharing a core, an invalid `DcatConfig`,
/// a counter width no hardware has, and a daemon's duplicate domain names.
#[test]
fn every_construction_refusal_is_fatal() {
    let pool = |n: u32| -> Vec<WorkloadHandle> {
        (0..n)
            .map(|i| WorkloadHandle::new(format!("t{i}"), vec![i], 2))
            .collect()
    };
    let dcat = |h, cfg| {
        let mut cat = InMemoryController::new(TWO_BIT, 16);
        DcatController::new(cfg, h, &mut cat).map(|_| ())
    };
    let mut shared = pool(2);
    shared[1].cores = vec![0];
    let invalid = DcatConfig {
        min_ways: 0,
        ..DcatConfig::default()
    };
    let narrow_counters = ResiliencePolicy {
        counter_width_bits: 0,
        ..ResiliencePolicy::default()
    };
    let mut cat = InMemoryController::new(TWO_BIT, 16);
    let static_cat: Box<dyn CachePolicy> =
        Box::new(StaticCatPolicy::new(pool(2), &mut cat).expect("a pool of two starts"));
    let daemon = DaemonConfig {
        resctrl_root: "no-resctrl-tree".into(),
        telemetry_path: "no-telemetry".into(),
        domains: vec![
            WorkloadHandle::new("web", vec![0], 2),
            WorkloadHandle::new("web", vec![1], 2),
        ],
        dcat: DcatConfig::default(),
        interval: Duration::ZERO,
        max_ticks: Some(1),
        resilience: ResiliencePolicy::default(),
        fault_plan: None,
        obs: ObsOptions::default(),
    };
    let refusals = [
        ("classes", dcat(pool(16), DcatConfig::default())),
        ("cores", dcat(shared, DcatConfig::default())),
        ("DcatConfig", dcat(pool(2), invalid)),
        (
            "counter width",
            ControlLoop::new(static_cat, pool(2), narrow_counters).map(|_| ()),
        ),
        (
            "duplicate",
            run_daemon_observed(&daemon, |_| {}).map(|_| ()),
        ),
    ];
    for (what, refused) in refusals {
        let Err(e) = refused else {
            panic!("{what}: accepted");
        };
        assert!(matches!(e, ResctrlError::Refused(_)), "{what}: {e}");
        assert!(!e.is_transient(), "{what}: {e}");
    }
}
