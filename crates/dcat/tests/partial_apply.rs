//! An apply cut off part-way leaves no two tenant classes overlapping.
//!
//! [`Fault::CosWriteAfter`] lets a tick's first *k* `program_cos` calls
//! through and fails every later one, retries included, so the policy's
//! decision is left half-written. Every policy programs CAT through the
//! one apply in `resctrl::apply`, whose write order (shrinkers, then
//! COS 0, then each other class once no class still holds any of its
//! ways) keeps every prefix of the write sequence pairwise disjoint. The
//! sweep below fails every write after the first *k* of each tick of a
//! churning run, for every *k* up to 7, under all four partitioning
//! policies, and checks the backend and the policy's own audit after each
//! failed tick.

use std::collections::BTreeMap;

use dcat::{
    CachePolicy, DcatConfig, DcatController, LfocConfig, LfocPolicy, MemshareConfig,
    MemsharePolicy, StaticCatPolicy, WorkloadHandle,
};
use perf_events::CounterSnapshot;
use resctrl::fault::{Fault, FaultPlan, FaultingController};
use resctrl::retry::{RetryPolicy, RetryingController};
use resctrl::{CacheController, CatCapabilities, CosId, InMemoryController, ResctrlError};

type Cat = RetryingController<FaultingController<InMemoryController>>;

const WAYS: u32 = 20;
const TICKS: u64 = 40;
/// Faults fail the first through the eighth write of a tick.
const FAILING_WRITES: u32 = 8;

/// Reserved ways per tenant: three, five and seven tenants. The first is
/// the case that showed two dCat growers written in class order left on
/// top of each other by a failed write.
const TENANTS: [&[u32]; 3] = [&[1, 2, 3], &[2, 1, 3, 2, 1], &[1, 2, 1, 3, 2, 1, 2]];

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Dcat,
    Lfoc,
    Memshare,
    Static,
}

const KINDS: [Kind; 4] = [Kind::Dcat, Kind::Lfoc, Kind::Memshare, Kind::Static];

fn build(
    kind: Kind,
    reserved: &[u32],
    cat: &mut Cat,
) -> Result<Box<dyn CachePolicy>, ResctrlError> {
    let handles: Vec<WorkloadHandle> = reserved
        .iter()
        .enumerate()
        .map(|(i, &r)| WorkloadHandle::new(format!("t{i}"), vec![i as u32], r))
        .collect();
    Ok(match kind {
        Kind::Dcat => {
            let config = DcatConfig {
                settle_intervals: 1,
                ..DcatConfig::default()
            };
            Box::new(DcatController::new(config, handles, cat)?)
        }
        Kind::Lfoc => {
            let config = LfocConfig {
                recluster_ticks: 1,
                ..LfocConfig::default()
            };
            Box::new(LfocPolicy::new(handles, cat, config)?)
        }
        Kind::Memshare => Box::new(MemsharePolicy::new(
            handles,
            cat,
            MemshareConfig::default(),
        )?),
        Kind::Static => Box::new(StaticCatPolicy::new(handles, cat)?),
    })
}

/// What tenant `i` does on `tick`: each tenant cycles through five
/// behaviours at its own period, so sizes, clusters and groups keep moving.
fn delta(i: usize, tick: u64, ways: u32) -> CounterSnapshot {
    let period = 3 + (i as u64 + 1) % 4;
    let ins = 1_000_000;
    let [l1_ref, llc_ref, llc_miss, cycles] = match (i as u64 * 7 + tick / period * 3 + 4) % 5 {
        // Misses hard, and more ways help.
        0 => [
            340_000,
            120_000,
            60_000,
            20_000_000 * 4 / u64::from(4 + ways),
        ],
        // Idle: no counter moves.
        1 => return CounterSnapshot::default(),
        // Compute-bound: hardly touches the LLC.
        2 => [20_000, 100, 10, 800_000],
        // Streaming: a different signature, misses whatever it holds.
        3 => [500_000, 200_000, 190_000, 30_000_000],
        // Fits what it has.
        _ => [340_000, 120_000, 2_000, 7_000_000],
    };
    CounterSnapshot {
        l1_ref,
        llc_ref,
        llc_miss,
        ret_ins: ins,
        cycles,
    }
}

/// Whether two classes that hold cores have overlapping masks. COS 0 is
/// left out when `tenants_only`: before construction finishes, cores not
/// yet moved still sit in the full-mask default class.
fn overlapping(cat: &InMemoryController, tenants_only: bool) -> bool {
    if !tenants_only {
        return cat.has_overlapping_active_masks();
    }
    let mut seen = resctrl::Cbm(0);
    let mut classes: Vec<CosId> = (0..cat.num_cores())
        .map(|core| cat.core_cos(core).unwrap())
        .filter(|&cos| cos != CosId(0))
        .collect();
    classes.sort_unstable();
    classes.dedup();
    classes.into_iter().any(|cos| {
        let mask = cat.cos_mask(cos).unwrap();
        let overlaps = mask.overlaps(seen);
        seen = seen.union(mask);
        overlaps
    })
}

/// Runs `kind` over `reserved` with `fault` scheduled at `fault_tick`
/// (0 is construction). Returns whether the faulted tick failed; panics
/// if it left overlapping classes or a failing audit behind.
fn run(kind: Kind, reserved: &[u32], fault_tick: u64, fault: Fault) -> bool {
    let n = reserved.len();
    let plan = FaultPlan::scripted([(fault_tick, fault)]);
    let inner = FaultingController::new(
        InMemoryController::new(CatCapabilities::with_ways(WAYS), n as u32),
        plan,
    );
    let mut cat = RetryingController::new(inner, RetryPolicy::immediate(3));
    let context = || format!("{kind:?} over {reserved:?}, {fault:?} at tick {fault_tick}");
    let mut policy = match build(kind, reserved, &mut cat) {
        Ok(policy) => policy,
        Err(e) => {
            assert!(e.is_transient(), "{}: {e}", context());
            let backend = cat.inner_mut().inner();
            assert!(!overlapping(backend, true), "{}: overlap", context());
            return true;
        }
    };
    let mut totals = vec![CounterSnapshot::default(); n];
    for tick in 1..=fault_tick {
        cat.inner_mut().set_tick(tick);
        for (i, total) in totals.iter_mut().enumerate() {
            let ways = policy.reports().get(i).map_or(reserved[i], |r| r.ways);
            *total = total.merged_with(&delta(i, tick, ways));
        }
        if let Err(e) = policy.tick(&totals, &mut cat) {
            assert!(tick == fault_tick && e.is_transient(), "{}: {e}", context());
            let backend = cat.inner_mut().inner();
            assert!(
                !overlapping(backend, false),
                "{}: classes overlap after the failed tick: {:?}",
                context(),
                (0..=n as u8)
                    .map(|c| backend.cos_mask(CosId(c)).unwrap())
                    .collect::<Vec<_>>()
            );
            if let Err(v) = policy.audit() {
                panic!("{}: audit failed after the failed tick: {v}", context());
            }
            return true;
        }
    }
    false
}

#[test]
fn a_write_cut_off_mid_apply_never_leaves_two_classes_overlapping() {
    let mut failed: BTreeMap<Kind, u32> = BTreeMap::new();
    for kind in KINDS {
        for reserved in TENANTS {
            for tick in 1..=TICKS {
                for k in 0..FAILING_WRITES {
                    if run(kind, reserved, tick, Fault::CosWriteAfter(k)) {
                        *failed.entry(kind).or_default() += 1;
                    }
                }
            }
        }
    }
    println!("failed ticks per policy: {failed:?}");
    for kind in [Kind::Dcat, Kind::Lfoc, Kind::Memshare] {
        assert!(
            failed.get(&kind).copied().unwrap_or(0) >= 20,
            "{kind:?}: the sweep cut too few applies short: {failed:?}"
        );
    }
}

#[test]
fn a_core_assignment_that_fails_never_leaves_two_classes_overlapping() {
    let mut failed = 0;
    for kind in KINDS {
        for reserved in TENANTS {
            for tick in 1..=TICKS {
                failed += u32::from(run(kind, reserved, tick, Fault::CoreAssign));
            }
        }
    }
    assert!(failed > 0, "no tick moved a core");
}

/// Construction is an apply too; only the tenant classes are checked, as
/// the cores it has not reached yet still share the full default mask.
#[test]
fn a_construction_cut_off_part_way_leaves_the_tenant_classes_disjoint() {
    for kind in KINDS {
        for reserved in TENANTS {
            for k in 0..FAILING_WRITES {
                run(kind, reserved, 0, Fault::CosWriteAfter(k));
            }
            run(kind, reserved, 0, Fault::CoreAssign);
        }
    }
}
