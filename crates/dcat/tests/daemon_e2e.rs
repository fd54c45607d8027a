//! End-to-end daemon test: [`dcat::daemon::run_daemon_observed`] against a
//! fixture resctrl tree, with the telemetry CSV rewritten between ticks
//! from the observer hook — the test plays the external sampler's role
//! without a second thread.
//!
//! The script walks one workload through the full lifecycle the paper's
//! Figure 7 describes: phase + baseline establishment, growth with real
//! IPC gains (promotion to Receiver above the reserved size), then a
//! memory-signature jump (a new phase) that must trigger a Reclaim back
//! to the reserved allocation — all within `max_ticks`.

use std::path::PathBuf;
use std::time::Duration;

use dcat::daemon::{run_daemon_observed, DaemonConfig};
use dcat::{DcatConfig, WorkloadClass, WorkloadHandle};
use perf_events::CounterSnapshot;
use resctrl::{CatCapabilities, FsBackend};

const RESERVED: u32 = 4;
const GROWTH_TICKS: std::ops::RangeInclusive<u64> = 4..=9;
const PHASE_JUMP_TICK: u64 = 10;
const MAX_TICKS: u64 = 12;

fn snapshot(l1: u64, llc_r: u64, llc_m: u64, ins: u64, cyc: u64) -> CounterSnapshot {
    CounterSnapshot {
        l1_ref: l1,
        llc_ref: llc_r,
        llc_miss: llc_m,
        ret_ins: ins,
        cycles: cyc,
    }
}

/// Per-interval delta of the cache-hungry workload at interval `k`
/// (1-based). Its memory signature (`l1_ref / ret_ins`) is 0.34 through
/// interval 9, then jumps to 0.90 — far past the 10% phase threshold.
fn grower_delta(k: u64) -> CounterSnapshot {
    if GROWTH_TICKS.contains(&k) {
        // IPC rises ~15% per interval while the cache grows: the improving
        // workload the controller must promote to Receiver.
        let pct = 0.15 * (k - GROWTH_TICKS.start() + 1) as f64;
        snapshot(
            340_000,
            120_000,
            60_000,
            1_000_000,
            (20_000_000.0 / (1.0 + pct)) as u64,
        )
    } else if k < PHASE_JUMP_TICK {
        // Missing hard at the reserved size: phase + baseline material.
        snapshot(340_000, 120_000, 60_000, 1_000_000, 20_000_000)
    } else {
        // New phase: very different memory intensity, steady thereafter.
        snapshot(900_000, 50_000, 25_000, 1_000_000, 10_000_000)
    }
}

/// The neighbor is compute-bound every interval: no LLC use, so it
/// donates its ways and keeps the free pool stocked for the grower.
fn quiet_delta() -> CounterSnapshot {
    snapshot(20_000, 100, 10, 1_000_000, 800_000)
}

fn write_telemetry(path: &PathBuf, grower: &CounterSnapshot, quiet: &CounterSnapshot) {
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

#[test]
fn daemon_promotes_a_receiver_and_reclaims_on_phase_change() {
    let root = std::env::temp_dir().join(format!(
        "dcatd-e2e-{}-{:?}",
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
        resilience: dcat::daemon::ResiliencePolicy::default(),
        fault_plan: None,
        obs: dcat::daemon::ObsOptions::default(),
    };

    // (tick, grower class, grower ways, grower phase_changed, quiet ways).
    let mut history: Vec<(u64, WorkloadClass, u32, bool, u32)> = Vec::new();
    let reports = run_daemon_observed(&cfg, |obs| {
        assert_eq!(obs.reports.len(), 2);
        assert!(!obs.degraded, "fault-free run must never degrade");
        history.push((
            obs.tick,
            obs.reports[0].class,
            obs.reports[0].ways,
            obs.reports[0].phase_changed,
            obs.reports[1].ways,
        ));
        // Play the sampler: accumulate the next interval's deltas into the
        // monotonic totals and rewrite the CSV the daemon reads next tick.
        grower_total = grower_total.merged_with(&grower_delta(obs.tick + 1));
        quiet_total = quiet_total.merged_with(&quiet_delta());
        write_telemetry(&telemetry, &grower_total, &quiet_total);
    })
    .unwrap()
    .reports;

    assert_eq!(history.len() as u64, MAX_TICKS, "one observation per tick");

    // The improving workload was promoted to Receiver, holding more than
    // its reserved ways, before the phase jump.
    let promotion = history
        .iter()
        .find(|(t, class, ways, ..)| {
            *t < PHASE_JUMP_TICK && *class == WorkloadClass::Receiver && *ways > RESERVED
        })
        .unwrap_or_else(|| panic!("no Receiver promotion above reserved; history {history:?}"));
    assert!(promotion.0 <= *GROWTH_TICKS.end());

    // The signature jump was detected as a phase change and the workload
    // reclaimed straight back to its reserved allocation.
    let (_, class, ways, phase_changed, _) = history[(PHASE_JUMP_TICK - 1) as usize];
    assert!(
        phase_changed,
        "phase jump not detected; history {history:?}"
    );
    assert_eq!(class, WorkloadClass::Reclaim);
    assert_eq!(ways, RESERVED, "reclaim must restore the reserved size");

    // The compute-bound neighbor was defunded to the minimum.
    assert_eq!(history.last().unwrap().4, 1);

    // The final reports match the last observation, and the programmed
    // partitions are visible in the fixture tree.
    let last = history.last().unwrap();
    assert_eq!(reports[0].ways, last.2);
    let schemata = std::fs::read_to_string(root.join("COS1").join("schemata")).unwrap();
    assert!(schemata.contains("L3:0="));

    std::fs::remove_dir_all(&root).unwrap();
}
