//! Occupancy attribution and the reallocation flush, end to end.

use dcat_suite::prelude::*;

const MB: u64 = 1024 * 1024;

fn small_engine() -> EngineConfig {
    let mut cfg = EngineConfig::xeon_e5_v4();
    cfg.socket.hierarchy = HierarchyConfig {
        cores: 6,
        l1: CacheGeometry::new(64, 8, 64),
        l2: CacheGeometry::new(128, 8, 64),
        llc: CacheGeometry::from_capacity(4 * MB, 16),
        llc_policy: Default::default(),
    };
    cfg.cycles_per_epoch = 700_000;
    cfg.memory_bytes = 256 * MB;
    cfg
}

/// Golden counter trace for the packed-set refactor: the full-fidelity
/// simulator must produce exactly these Table-2 counter values on this
/// fixture, epoch by epoch. The values were recorded from the seed's set
/// (a `Vec` of optional line records); the packed bitmask/SoA set
/// representation is decision-identical, so any drift here means the
/// refactor changed a replacement decision somewhere.
#[test]
fn full_fidelity_counter_trace_matches_seed() {
    let vms = vec![
        VmSpec::new("mlr", vec![0, 1], 5),
        VmSpec::new("mload", vec![2, 3], 5),
        VmSpec::new("lookbusy", vec![4, 5], 5),
    ];
    let mut engine = Engine::new(small_engine(), vms).unwrap();
    engine.start_workload(0, Box::new(Mlr::new(2 * MB, 1)));
    engine.start_workload(1, Box::new(Mload::new(16 * MB)));
    engine.start_workload(2, Box::new(Lookbusy::new()));

    let mut trace: Vec<(u64, u64, u64, u64)> = Vec::new();
    for _ in 0..4 {
        let stats = engine.run_epoch();
        for s in &stats {
            trace.push((s.l1_ref, s.llc_ref, s.llc_miss, s.llc_occupancy_lines));
        }
    }
    let golden: Vec<(u64, u64, u64, u64)> = vec![
        (4080, 3990, 3847, 3846),
        (28000, 28000, 28000, 28000),
        (27000, 128, 128, 128),
        (4760, 4622, 3913, 6656),
        (28000, 28000, 28000, 51132),
        (27960, 6, 6, 128),
        (4760, 4613, 3585, 6820),
        (28000, 28000, 28000, 57954),
        (27080, 122, 122, 128),
        (4760, 4607, 3523, 7030),
        (28000, 28000, 28000, 58377),
        (28000, 2, 2, 128),
    ];
    assert_eq!(trace, golden, "counter trace diverged from the seed");
}

#[test]
fn occupancy_attribution_is_bounded_by_the_cache() {
    let vms = vec![
        VmSpec::new("a", vec![0, 1], 5),
        VmSpec::new("b", vec![2, 3], 5),
        VmSpec::new("c", vec![4, 5], 5),
    ];
    let handles: Vec<WorkloadHandle> = vms
        .iter()
        .map(|v| WorkloadHandle::new(v.name.clone(), v.cores.clone(), v.reserved_ways))
        .collect();
    let mut engine = Engine::new(small_engine(), vms).unwrap();
    let mut ctl = DcatController::new(DcatConfig::default(), handles, &mut engine.cat()).unwrap();
    engine.start_workload(0, Box::new(Mlr::new(2 * MB, 1)));
    engine.start_workload(1, Box::new(Mload::new(16 * MB)));
    engine.start_workload(2, Box::new(Lookbusy::new()));

    let total_lines = 4 * MB / 64;
    for _ in 0..20 {
        let stats = engine.run_epoch();
        let snaps = engine.snapshots();
        ctl.tick(&snaps, &mut engine.cat()).unwrap();
        let attributed: u64 = stats.iter().map(|s| s.llc_occupancy_lines).sum();
        assert!(
            attributed <= total_lines,
            "attributed {attributed} lines exceed the {total_lines}-line LLC"
        );
    }
}

#[test]
fn reallocation_flush_prevents_squatting_on_lost_ways() {
    // One tenant fills a large allocation, then goes idle: dCat shrinks it
    // to the minimum and flushes the released ways, so its residual
    // occupancy must collapse to roughly its remaining share.
    let vms = vec![
        VmSpec::new("greedy", vec![0, 1], 8),
        VmSpec::new("late", vec![2, 3], 8),
    ];
    let handles: Vec<WorkloadHandle> = vms
        .iter()
        .map(|v| WorkloadHandle::new(v.name.clone(), v.cores.clone(), v.reserved_ways))
        .collect();
    let mut engine = Engine::new(small_engine(), vms).unwrap();
    let mut ctl = DcatController::new(DcatConfig::default(), handles, &mut engine.cat()).unwrap();

    engine.start_workload(0, Box::new(Mload::new(8 * MB)));
    for _ in 0..10 {
        engine.run_epoch();
        let snaps = engine.snapshots();
        ctl.tick(&snaps, &mut engine.cat()).unwrap();
    }
    let filled = engine.vm_llc_occupancy(0);
    assert!(filled > 0, "the scan should occupy cache");

    // The tenant stops; dCat donates its ways and flushes them.
    engine.stop_workload(0);
    for _ in 0..4 {
        engine.run_epoch();
        let snaps = engine.snapshots();
        ctl.tick(&snaps, &mut engine.cat()).unwrap();
    }
    assert_eq!(ctl.ways_of(0), 1, "idle tenant donates to the minimum");
    let residual = engine.vm_llc_occupancy(0);
    // One way of a 16-way, 4 MiB LLC is 4096 lines; the flush must have
    // dropped everything outside the remaining way.
    let one_way_lines = 4 * MB / 64 / 16;
    assert!(
        residual <= one_way_lines,
        "residual occupancy {residual} exceeds one way ({one_way_lines} lines): lost ways were not flushed"
    );
}
