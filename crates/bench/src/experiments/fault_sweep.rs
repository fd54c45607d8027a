//! Fault sweep: daemon resilience under seeded random fault schedules.
//!
//! Runs the real daemon loop — fixture resctrl tree, telemetry file,
//! retry wrappers — under [`FaultPlan::random`] schedules of increasing
//! injection rate, and reports how each run weathered them: faults
//! scheduled, ticks degraded, structured events emitted, and whether the
//! loop survived to `max_ticks` with a clean invariant audit. The
//! schedules are seeded through [`smallrng::split_seed`], so the table is
//! byte-identical at any `--jobs` width.

use std::path::Path;
use std::time::Duration;

use dcat::daemon::{run_daemon_observed, DaemonConfig, ResiliencePolicy};
use dcat::{DcatConfig, Event, WorkloadHandle};
use perf_events::CounterSnapshot;
use resctrl::fault::FaultPlan;
use resctrl::retry::RetryPolicy;
use resctrl::{CatCapabilities, FsBackend};

use crate::report;

/// Injection rates swept (probability of one fault per tick).
const RATES: [f64; 4] = [0.0, 0.1, 0.25, 0.5];

/// Outcome of one daemon run under one fault schedule.
#[derive(Debug, Clone)]
pub(crate) struct SweepRun {
    /// Injection rate the schedule was drawn with.
    pub(crate) rate: f64,
    /// Sub-stream seed of the schedule.
    pub(crate) seed: u64,
    /// Faults the schedule carries.
    pub(crate) scheduled: usize,
    /// Ticks that degraded (telemetry or resctrl retries exhausted).
    pub(crate) degraded: u64,
    /// Structured events the run emitted.
    pub(crate) events: usize,
    /// Invariant violations observed (must be zero).
    pub(crate) violations: usize,
    /// Final per-domain way counts, or `None` if the loop died.
    pub(crate) final_ways: Option<Vec<u32>>,
}

fn snapshot(l1: u64, llc_r: u64, llc_m: u64, ins: u64, cyc: u64) -> CounterSnapshot {
    CounterSnapshot {
        l1_ref: l1,
        llc_ref: llc_r,
        llc_miss: llc_m,
        ret_ins: ins,
        cycles: cyc,
    }
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
        format!("{}\n{}\n", line("grower", grower), line("quiet", quiet)),
    )
    .unwrap();
}

/// Runs one daemon under one fault schedule and scores the wreckage.
pub(crate) fn run_one(rate: f64, seed: u64, ticks: u64, index: usize) -> SweepRun {
    let root =
        std::env::temp_dir().join(format!("dcat-fault-sweep-{}-{index}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    if let Err(e) = FsBackend::create_fixture(&root, CatCapabilities::with_ways(20), 8) {
        panic!(
            "fault-sweep fixture setup failed: {e} (severity {:?})",
            e.severity()
        );
    }

    let telemetry = root.join("telemetry.csv");
    // A cache-hungry tenant next to a compute-bound donor: allocations
    // keep changing early on, so backend faults land on real COS writes.
    let grower = snapshot(340_000, 120_000, 60_000, 1_000_000, 20_000_000);
    let quiet = snapshot(20_000, 100, 10, 1_000_000, 800_000);
    let mut grower_total = grower;
    let mut quiet_total = quiet;
    write_telemetry(&telemetry, &grower_total, &quiet_total);

    let plan = FaultPlan::random(seed, ticks, rate);
    let scheduled = plan.total_faults();
    let cfg = DaemonConfig {
        resctrl_root: root.clone(),
        telemetry_path: telemetry.clone(),
        domains: vec![
            WorkloadHandle::new("grower", vec![0, 1], 4),
            WorkloadHandle::new("quiet", vec![2, 3], 4),
        ],
        dcat: DcatConfig {
            settle_intervals: 1,
            ..DcatConfig::default()
        },
        interval: Duration::from_millis(0),
        max_ticks: Some(ticks),
        resilience: ResiliencePolicy {
            retry: RetryPolicy::immediate(3),
            ..ResiliencePolicy::default()
        },
        fault_plan: (rate > 0.0).then_some(plan),
        obs: dcat::daemon::ObsOptions::default(),
    };

    let mut degraded = 0u64;
    let mut events = 0usize;
    let mut violations = 0usize;
    let result = run_daemon_observed(&cfg, |obs| {
        if obs.degraded {
            degraded += 1;
        }
        events += obs.events.len();
        violations += obs
            .events
            .iter()
            .filter(|e| matches!(e, Event::InvariantViolation { .. }))
            .count();
        grower_total = grower_total.merged_with(&grower);
        quiet_total = quiet_total.merged_with(&quiet);
        write_telemetry(&telemetry, &grower_total, &quiet_total);
    });
    let _ = std::fs::remove_dir_all(&root);
    SweepRun {
        rate,
        seed,
        scheduled,
        degraded,
        events,
        violations,
        final_ways: result
            .ok()
            .map(|o| o.reports.iter().map(|d| d.ways).collect()),
    }
}

/// Runs the sweep and prints the table; returns the runs.
pub(crate) fn run(fast: bool) -> Vec<SweepRun> {
    report::section("Fault sweep: daemon resilience under injected fault schedules");
    let (seeds, ticks) = if fast { (2u64, 30u64) } else { (6, 120) };
    let tasks: Vec<(f64, u64)> = RATES
        .iter()
        .flat_map(|&rate| (0..seeds).map(move |s| (rate, s)))
        .collect();
    let runs = crate::Runner::from_env().map(tasks, move |index, (rate, stream)| {
        let seed = smallrng::split_seed(0xFA_017, stream);
        run_one(rate, seed, ticks, index)
    });

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.rate),
                r.seed.to_string(),
                r.scheduled.to_string(),
                r.degraded.to_string(),
                r.events.to_string(),
                r.violations.to_string(),
                match &r.final_ways {
                    Some(w) => w
                        .iter()
                        .map(|x| x.to_string())
                        .collect::<Vec<_>>()
                        .join("/"),
                    None => "died".to_string(),
                },
            ]
        })
        .collect();
    report::table(
        &[
            "rate",
            "seed",
            "scheduled",
            "degraded",
            "events",
            "violations",
            "final ways",
        ],
        &rows,
    );
    let survived = runs.iter().filter(|r| r.final_ways.is_some()).count();
    report::say(format!(
        "{survived}/{} runs survived to max_ticks; {} invariant violations total",
        runs.len(),
        runs.iter().map(|r| r.violations).sum::<usize>()
    ));
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_faulted_run_survives_without_violations() {
        let runs = run(true);
        assert_eq!(runs.len(), 8);
        for r in &runs {
            assert!(r.final_ways.is_some(), "run died: {r:?}");
            assert_eq!(r.violations, 0, "invariant violation: {r:?}");
            if r.rate == 0.0 {
                assert_eq!(r.degraded, 0);
                assert_eq!(r.events, 0);
            }
        }
        // The sweep is pointless unless the faulted runs actually hurt.
        assert!(
            runs.iter().any(|r| r.degraded > 0),
            "no degraded ticks anywhere: {runs:?}"
        );
    }
}
