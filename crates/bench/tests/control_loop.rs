//! `ControlLoop::step` on a simulated host: what moving the loop out of
//! the daemon buys the engine-backed drivers (quarantine, held lanes), and
//! that it costs them nothing (step ≡ the bare `CachePolicy::tick`).

use std::ops::RangeInclusive;

use dcat::{
    CachePolicy, DcatConfig, DcatController, Event, LfocConfig, SampleSink, Telemetry, Totals,
    WorkloadHandle,
};
use dcat_bench::scenario::PolicyKind;
use dcat_obs::{FrameWriter, Tracer};
use host::{Engine, EngineConfig, VmSpec};
use llc_sim::CacheGeometry;
use resctrl::{CacheController, CosId, ResctrlError};
use workloads::{Lookbusy, Mlr};

const VMS: usize = 3;
/// The VM whose sample goes missing, and the ticks it is missing for:
/// `quarantine_after` (5) of them, so the last one quarantines it.
const WITHHELD: usize = 1;
const MISSING: RangeInclusive<u64> = 8..=12;
/// Held while its sample is missing, and for the tick that re-grounds its
/// totals.
const HELD: RangeInclusive<u64> = 8..=13;

/// A source that withholds one domain's sample for a span of ticks.
struct Withhold<'a>(Totals<'a>);

impl Telemetry for Withhold<'_> {
    fn sample(&mut self, tick: u64, sink: &mut SampleSink<'_>) -> Result<(), ResctrlError> {
        self.0.sample(tick, sink)?;
        if MISSING.contains(&tick) {
            sink.samples[WITHHELD] = None;
        }
        Ok(())
    }
}

/// A tiny socket with three two-core VMs: a cache-hungry MLR, a
/// compute-bound lookbusy, and one that [`late_arrival`] wakes.
fn host() -> (Engine, Vec<WorkloadHandle>) {
    let mut cfg = EngineConfig::xeon_e5_v4();
    cfg.socket.hierarchy = llc_sim::HierarchyConfig {
        cores: 8,
        l1: CacheGeometry::new(64, 8, 64),
        l2: CacheGeometry::new(128, 8, 64),
        llc: CacheGeometry::from_capacity(2 * 1024 * 1024, 8),
        llc_policy: Default::default(),
    };
    cfg.cycles_per_epoch = 300_000;
    cfg.memory_bytes = 128 * 1024 * 1024;
    let vms: Vec<VmSpec> = (0..VMS as u32)
        .map(|i| VmSpec::new(format!("vm{i}"), vec![2 * i, 2 * i + 1], 2))
        .collect();
    let handles = vms
        .iter()
        .map(|v| WorkloadHandle::new(v.name.clone(), v.cores.clone(), v.reserved_ways))
        .collect();
    let mut engine = Engine::new(cfg, vms).unwrap();
    engine.start_workload(0, Box::new(Mlr::new(1024 * 1024, 1)));
    engine.start_workload(1, Box::new(Lookbusy::new()));
    (engine, handles)
}

/// VM 2's workload arrives at epoch 9, inside [`MISSING`].
fn late_arrival(engine: &mut Engine, epoch: u64) {
    if epoch == 9 {
        engine.start_workload(2, Box::new(Mlr::new(768 * 1024, 2)));
    }
}

/// Twenty epochs with VM 1's sample withheld over [`MISSING`]: the frame
/// stream, and every event as `tick: event`.
fn withheld_run(policy: PolicyKind) -> (String, Vec<String>) {
    let (mut engine, handles) = host();
    let label = policy.label();
    let mut ctl = policy.host_loop(handles, &mut engine.cat()).unwrap();
    let mut frames = FrameWriter::new("test-host");
    let mut events = Vec::new();
    for epoch in 1..=20 {
        late_arrival(&mut engine, epoch);
        engine.run_epoch();
        let totals = engine.snapshots();
        let mut source = Withhold(Totals(&totals));
        let mut tracer = Tracer::disabled();
        let obs = ctl
            .step(&mut source, &mut engine.cat(), &mut tracer, |_, _| {})
            .unwrap();
        assert!(
            !obs.degraded,
            "one missing sample holds a lane, not the tick"
        );
        for (i, r) in obs.reports.iter().enumerate() {
            let held = i == WITHHELD && HELD.contains(&obs.tick);
            assert_eq!(r.skipped, held, "{label} tick {} vm{i}", obs.tick);
        }
        events.extend(obs.events.iter().map(|e| format!("{}: {e}", obs.tick)));
        frames.push(dcat::frame_from_observation(&obs, label, obs.ext));
    }
    (frames.into_string(), events)
}

#[test]
fn a_simulated_host_quarantines_a_silent_vm_and_keeps_the_others_moving() {
    for policy in [
        PolicyKind::Dcat(DcatConfig::default()),
        PolicyKind::Lfoc(LfocConfig::default()),
    ] {
        let (frames, events) = withheld_run(policy.clone());
        assert_eq!(
            events,
            [
                "12: event=domain_quarantined domain=vm1 after_ticks=5",
                "13: event=domain_recovered domain=vm1"
            ],
            "one quarantine, one recovery, and no invariant violation"
        );
        let segments = dcat_obs::frames::parse_stream(&frames).unwrap();
        let decoded: Vec<_> = segments[0].frames.iter().collect();
        let mut moved = false;
        for pair in decoded.windows(2) {
            let (before, f) = (&pair[0], &pair[1]);
            let row = &f.domains[WITHHELD];
            // Quarantined from the fifth miss until the sample is back.
            assert_eq!(row.held, HELD.contains(&f.tick), "tick {}", f.tick);
            assert_eq!(row.quarantined, f.tick == 12, "tick {}", f.tick);
            if row.held {
                assert_eq!(
                    row.ways, before.domains[WITHHELD].ways,
                    "a held VM moves no way"
                );
                let others = f.domains.iter().zip(&before.domains);
                moved |= others.filter(|(now, was)| now.ways != was.ways).count() > 0;
            }
        }
        assert!(moved, "the other VMs were resized while vm1 was held");
        assert_eq!(
            (frames, events),
            withheld_run(policy),
            "byte-identical twice"
        );
    }
}

/// An engine's totals are exact, so the loop must pass them through
/// unchanged. With `ResiliencePolicy::default()`'s stale grace of 2 in
/// place of `host_loop`'s 0, the stopped VM's repeated totals read as a
/// wedged sampler, idle detection slips two epochs, and this test fails
/// at epoch 21.
#[test]
fn step_over_exact_totals_equals_the_bare_tick() {
    let (mut stepped, handles) = host();
    let (mut bare, _) = host();
    let dcat = PolicyKind::Dcat(DcatConfig::default());
    let mut ctl = dcat.host_loop(handles.clone(), &mut stepped.cat()).unwrap();
    let mut policy = DcatController::new(DcatConfig::default(), handles, &mut bare.cat()).unwrap();
    for epoch in 1..=40 {
        for engine in [&mut stepped, &mut bare] {
            late_arrival(engine, epoch);
            if epoch == 21 {
                engine.stop_workload(0);
            }
        }
        stepped.run_epoch();
        bare.run_epoch();
        let totals = stepped.snapshots();
        assert_eq!(totals, bare.snapshots(), "epoch {epoch}: same machine");
        let obs = ctl
            .step(
                &mut Totals(&totals),
                &mut stepped.cat(),
                &mut Tracer::disabled(),
                |_, _| {},
            )
            .unwrap();
        let reports = CachePolicy::tick(&mut policy, &totals, &mut bare.cat()).unwrap();
        assert_eq!(
            format!("{:?}", obs.reports),
            format!("{reports:?}"),
            "epoch {epoch}"
        );
        assert!(obs
            .events
            .iter()
            .all(|e| !matches!(e, Event::StaleSample { .. })));
        for cos in 0..=VMS as u8 {
            let (a, b) = (
                stepped.cat().cos_mask(CosId(cos)),
                bare.cat().cos_mask(CosId(cos)),
            );
            assert_eq!(a.unwrap(), b.unwrap(), "epoch {epoch} COS {cos}");
        }
    }
}
