//! End-to-end fault-tolerance test: the daemon lifecycle of
//! `daemon_e2e.rs` re-run under a scripted [`FaultPlan`] covering five
//! distinct fault kinds. The loop must survive every fault, hold the
//! previous allocation on degraded ticks, log a structured event for
//! each injected fault, never violate the allocation invariants, and —
//! once the faults clear — converge to the same final allocation as a
//! fault-free run of the identical scenario.

use std::path::Path;
use std::time::Duration;

use dcat::daemon::{run_daemon_observed, DaemonConfig, ResiliencePolicy};
use dcat::{DcatConfig, Event, WorkloadClass, WorkloadHandle};
use perf_events::CounterSnapshot;
use resctrl::fault::{Fault, FaultPlan};
use resctrl::{CatCapabilities, FsBackend};

const RESERVED: u32 = 4;
const GROWTH_TICKS: std::ops::RangeInclusive<u64> = 4..=9;
const PHASE_JUMP_TICK: u64 = 10;
const MAX_TICKS: u64 = 16;

const STALE_TICK: u64 = 3;
const TRUNCATION_TICK: u64 = 5;
const READ_FAIL_TICK: u64 = 7;
const READ_ONCE_TICK: u64 = 8;
// The phase jump forces a Reclaim shrink at tick 10, so a COS write is
// guaranteed to be attempted — and to fail — on this tick.
const COS_FAIL_TICK: u64 = PHASE_JUMP_TICK;

fn snapshot(l1: u64, llc_r: u64, llc_m: u64, ins: u64, cyc: u64) -> CounterSnapshot {
    CounterSnapshot {
        l1_ref: l1,
        llc_ref: llc_r,
        llc_miss: llc_m,
        ret_ins: ins,
        cycles: cyc,
    }
}

fn grower_delta(k: u64) -> CounterSnapshot {
    if GROWTH_TICKS.contains(&k) {
        let pct = 0.15 * (k - GROWTH_TICKS.start() + 1) as f64;
        snapshot(
            340_000,
            120_000,
            60_000,
            1_000_000,
            (20_000_000.0 / (1.0 + pct)) as u64,
        )
    } else if k < PHASE_JUMP_TICK {
        snapshot(340_000, 120_000, 60_000, 1_000_000, 20_000_000)
    } else {
        // The new phase is compute-bound: the signature jump (0.34 →
        // 0.90) trips the phase detector, and the near-zero LLC traffic
        // then classifies the domain as a Donor — a stable fixed point
        // both the faulty and the fault-free run must converge to.
        snapshot(900_000, 100, 10, 1_000_000, 10_000_000)
    }
}

fn quiet_delta() -> CounterSnapshot {
    snapshot(20_000, 100, 10, 1_000_000, 800_000)
}

fn write_telemetry(path: &Path, grower: &CounterSnapshot, quiet: &CounterSnapshot) {
    let line = |name: &str, s: &CounterSnapshot| {
        format!(
            "{name},{},{},{},{},{}",
            s.l1_ref, s.llc_ref, s.llc_miss, s.ret_ins, s.cycles
        )
    };
    std::fs::write(
        path,
        format!(
            "# name,l1_ref,llc_ref,llc_miss,ret_ins,cycles\n{}\n{}\n",
            line("grower", grower),
            line("quiet", quiet)
        ),
    )
    .unwrap();
}

struct TickRecord {
    tick: u64,
    degraded: bool,
    ways: Vec<u32>,
    events: Vec<Event>,
}

/// Runs the shared lifecycle scenario under `plan`; returns the per-tick
/// records and the final reports' `(name, class, ways)`.
fn run_scenario(
    tag: &str,
    plan: Option<FaultPlan>,
) -> (Vec<TickRecord>, Vec<(String, WorkloadClass, u32)>) {
    let root = std::env::temp_dir().join(format!(
        "dcatd-faults-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    drop(FsBackend::create_fixture(&root, CatCapabilities::with_ways(20), 8).unwrap());

    let telemetry = root.join("telemetry.csv");
    let mut grower_total = grower_delta(1);
    let mut quiet_total = quiet_delta();
    write_telemetry(&telemetry, &grower_total, &quiet_total);

    let cfg = DaemonConfig {
        resctrl_root: root.clone(),
        telemetry_path: telemetry.clone(),
        domains: vec![
            WorkloadHandle::new("grower", vec![0, 1], RESERVED),
            WorkloadHandle::new("quiet", vec![2, 3], RESERVED),
        ],
        dcat: DcatConfig {
            settle_intervals: 1,
            ..DcatConfig::default()
        },
        interval: Duration::from_millis(0),
        max_ticks: Some(MAX_TICKS),
        resilience: ResiliencePolicy {
            retry: resctrl::retry::RetryPolicy::immediate(3),
            ..ResiliencePolicy::default()
        },
        fault_plan: plan,
        obs: dcat::daemon::ObsOptions::default(),
    };

    let mut history: Vec<TickRecord> = Vec::new();
    let reports = run_daemon_observed(&cfg, |obs| {
        history.push(TickRecord {
            tick: obs.tick,
            degraded: obs.degraded,
            ways: obs.reports.iter().map(|r| r.ways).collect(),
            events: obs.events.to_vec(),
        });
        // The sampler's totals advance every interval whether or not the
        // daemon managed to read them — exactly like real hardware.
        grower_total = grower_total.merged_with(&grower_delta(obs.tick + 1));
        quiet_total = quiet_total.merged_with(&quiet_delta());
        write_telemetry(&telemetry, &grower_total, &quiet_total);
    })
    .unwrap()
    .reports;

    let finals = reports
        .iter()
        .map(|r| (r.name.clone(), r.class, r.ways))
        .collect();
    std::fs::remove_dir_all(&root).unwrap();
    (history, finals)
}

fn fault_plan() -> FaultPlan {
    FaultPlan::scripted([
        (STALE_TICK, Fault::TelemetryStale),
        (TRUNCATION_TICK, Fault::TelemetryTruncated),
        (READ_FAIL_TICK, Fault::TelemetryRead),
        (READ_ONCE_TICK, Fault::TelemetryReadOnce),
        (COS_FAIL_TICK, Fault::CosWrite),
    ])
}

#[test]
fn daemon_survives_a_scripted_fault_schedule() {
    let (history, faulty_finals) = run_scenario("faulty", Some(fault_plan()));
    let (clean_history, clean_finals) = run_scenario("clean", None);

    // The loop ran to completion despite five distinct fault kinds.
    assert_eq!(history.len() as u64, MAX_TICKS);
    assert_eq!(clean_history.len() as u64, MAX_TICKS);

    // A fault-free run generates no events and no degraded ticks.
    for rec in &clean_history {
        assert!(!rec.degraded, "clean run degraded at tick {}", rec.tick);
        assert!(
            rec.events.is_empty(),
            "clean run produced events at tick {}: {:?}",
            rec.tick,
            rec.events
        );
    }

    let at = |tick: u64| -> &TickRecord { &history[(tick - 1) as usize] };
    let has = |tick: u64, pred: &dyn Fn(&Event) -> bool| at(tick).events.iter().any(pred);

    // Every scheduled fault left its mark in the event log.
    assert!(
        has(STALE_TICK, &|e| matches!(e, Event::StaleSample { .. })),
        "no StaleSample at tick {STALE_TICK}: {:?}",
        at(STALE_TICK).events
    );
    assert!(
        has(TRUNCATION_TICK, &|e| matches!(
            e,
            Event::RowMalformed { .. }
        )),
        "no RowMalformed at tick {TRUNCATION_TICK}: {:?}",
        at(TRUNCATION_TICK).events
    );
    assert!(
        has(READ_FAIL_TICK, &|e| matches!(
            e,
            Event::TelemetryExhausted { .. }
        )),
        "no TelemetryExhausted at tick {READ_FAIL_TICK}: {:?}",
        at(READ_FAIL_TICK).events
    );
    assert!(
        has(READ_FAIL_TICK, &|e| matches!(
            e,
            Event::DegradedTick {
                reason: dcat::DegradeReason::Telemetry
            }
        )),
        "tick {READ_FAIL_TICK} not degraded on telemetry"
    );
    assert!(
        has(READ_ONCE_TICK, &|e| matches!(
            e,
            Event::TelemetryRetried { .. }
        )),
        "no TelemetryRetried at tick {READ_ONCE_TICK}: {:?}",
        at(READ_ONCE_TICK).events
    );
    assert!(
        !at(READ_ONCE_TICK).degraded,
        "a single read failure must be absorbed by the retry, not degrade the tick"
    );
    assert!(
        has(COS_FAIL_TICK, &|e| matches!(
            e,
            Event::ResctrlExhausted { .. }
        )),
        "no ResctrlExhausted at tick {COS_FAIL_TICK}: {:?}",
        at(COS_FAIL_TICK).events
    );
    assert!(
        has(COS_FAIL_TICK, &|e| matches!(
            e,
            Event::DegradedTick {
                reason: dcat::DegradeReason::Resctrl
            }
        )),
        "tick {COS_FAIL_TICK} not degraded on resctrl"
    );

    // Degraded ticks hold the previous allocation, and the invariants
    // hold on every tick, degraded or not.
    let mut saw_degraded = false;
    for w in history.windows(2) {
        let (prev, cur) = (&w[0], &w[1]);
        if cur.degraded {
            saw_degraded = true;
            assert_eq!(
                cur.ways, prev.ways,
                "degraded tick {} changed the allocation",
                cur.tick
            );
        }
    }
    assert!(saw_degraded);
    for rec in &history {
        assert!(
            !rec.events
                .iter()
                .any(|e| matches!(e, Event::InvariantViolation { .. })),
            "invariant violation at tick {}: {:?}",
            rec.tick,
            rec.events
        );
    }

    // Once the faults clear, the run converges to the fault-free result.
    assert_eq!(
        faulty_finals, clean_finals,
        "faulty run did not converge to the fault-free allocation"
    );
}

/// A write fault needs a write to hit. `CosWrite` fails every
/// `program_cos` of its tick; a tick that moves no mask makes none, so
/// the fault passes unseen, and the same fault on the next tick that
/// moves ways degrades it and holds the allocation.
#[test]
fn a_cos_write_fault_is_only_observable_on_a_tick_that_programs() {
    let (clean, clean_finals) = run_scenario("quiet-clean", None);
    let moved =
        |h: &[TickRecord], tick: u64| h[(tick - 1) as usize].ways != h[(tick - 2) as usize].ways;
    // The first tick past the start-up that moves nothing, and the first
    // after it that moves something (the growth window opens at tick 4).
    let quiet_tick = (2..MAX_TICKS)
        .find(|&t| !moved(&clean, t))
        .expect("a quiet tick");
    let moving_tick = (quiet_tick + 1..=MAX_TICKS)
        .find(|&t| moved(&clean, t))
        .expect("a moving tick after it");

    let plan = FaultPlan::scripted([
        (quiet_tick, Fault::CosWrite),
        (moving_tick, Fault::CosWrite),
    ]);
    let (history, finals) = run_scenario("quiet-faulty", Some(plan));
    let at = |tick: u64| -> &TickRecord { &history[(tick - 1) as usize] };

    let quiet = at(quiet_tick);
    assert!(
        !quiet.degraded,
        "tick {quiet_tick} degraded with nothing to write"
    );
    assert!(
        quiet.events.is_empty(),
        "tick {quiet_tick} wrote something: {:?}",
        quiet.events
    );
    assert_eq!(quiet.ways, clean[(quiet_tick - 1) as usize].ways);

    let moving = at(moving_tick);
    assert!(
        moving.degraded,
        "tick {moving_tick} moved ways through a failing backend"
    );
    assert!(moving.events.iter().any(|e| matches!(
        e,
        Event::DegradedTick {
            reason: dcat::DegradeReason::Resctrl
        }
    )));
    assert!(moving
        .events
        .iter()
        .any(|e| matches!(e, Event::ResctrlExhausted { .. })));
    assert_eq!(
        moving.ways,
        at(moving_tick - 1).ways,
        "the degraded tick did not hold the allocation"
    );
    assert_eq!(finals, clean_finals, "the run did not converge afterwards");
}
