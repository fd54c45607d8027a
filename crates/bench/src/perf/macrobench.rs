//! The `macro` suite: whole-experiment sweeps in `--fast` mode.
//!
//! Times the fig10 dynamic-allocation point (full fidelity and
//! `--sample-sets 8`), the fig15 mixed-workload scenario set — the
//! two experiments the determinism layer also anchors on — and a
//! sampled ten-host fleet smoke covering the cluster layer. The
//! `fig10_sampled_speedup` derived metric records what UMON-style set
//! sampling actually buys end to end (the sweep spends time outside the
//! LLC too, so this is smaller than the per-access win).

use dcat_obs::CycleSource;

use crate::experiments::{fig10_dynamic_alloc, fig15_mixed};
use crate::{fleet, report, runner};

use super::harness::{normalize, SuiteRunner};
use super::json::{Derived, SuiteResult};
use super::{micro, ClockKind};

const MB: u64 = 1024 * 1024;

/// Regression tolerance for this suite's normalized scores.
///
/// The macro cases run for hundreds of milliseconds to seconds, which
/// averages out short contention bursts, but sustained neighbour load
/// on shared runners still drifts them by up to ~18% run to run
/// (observed on fig15). 0.40 keeps real regressions (the packed-set
/// work was a 1.5–5x swing) visible without weekly false alarms.
const MACRO_TOLERANCE: f64 = 0.40;

/// Builds the macro suite. Experiment output is captured (and dropped)
/// so suite timing lines do not interleave with figure tables. Each
/// case pins the sampling-stride global itself (the passes interleave),
/// and the suite restores full fidelity before returning.
pub fn run(clock: &mut dyn CycleSource, kind: ClockKind, quick: bool) -> SuiteResult {
    let reps = if quick { 1 } else { 3 };
    let mut suite = SuiteRunner::new();

    // Calibration anchor, same memory-streaming spin as the micro suite
    // (the absolute iteration count differs; only the per-suite ratio
    // matters).
    micro::calibration_case(&mut suite, if quick { 64 } else { 16_384 });

    suite.case("fig10_fast_full", 1, || {
        runner::set_sample_sets(0);
        let ((_, r), _text) = report::capture(|| fig10_dynamic_alloc::run_one(4 * MB, true));
        r
    });

    suite.case("fig10_fast_sampled8", 1, || {
        runner::set_sample_sets(8);
        let ((_, r), _text) = report::capture(|| fig10_dynamic_alloc::run_one(4 * MB, true));
        runner::set_sample_sets(0);
        r
    });

    suite.case("fig15_fast_full", 1, || {
        runner::set_sample_sets(0);
        let (rs, _text) = report::capture(|| fig15_mixed::run_results(true));
        rs
    });

    suite.case("fleet_fast_sampled8", 1, || {
        runner::set_sample_sets(8);
        // Ten sampled hosts under the LFOC clustering policy — the
        // cluster layer's hot path (host fan-out + policy ticks).
        // Metrics are captured and dropped so timing runs do not
        // pollute the process-root registry; frames are not kept.
        let cfg = fleet::FleetConfig::new(120, true);
        let (r, _text, _snap) = report::capture_obs(|| {
            fleet::run_fleet_with(fleet::FleetPolicy::Lfoc, &cfg, &mut |_: &str| {})
        });
        runner::set_sample_sets(0);
        match r {
            Ok(r) => r.total_requests(),
            Err(e) => panic!(
                "fleet macrobench aborted: {e} (severity {:?})",
                e.severity()
            ),
        }
    });

    let mut cases = suite.run(clock, reps);
    runner::set_sample_sets(0);
    normalize(&mut cases, "spin_calibration");

    let ns_of = |name: &str| -> f64 {
        cases
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.ns_per_iter.max(1) as f64)
            .expect("case just measured")
    };
    let derived = vec![Derived {
        name: "fig10_sampled_speedup".into(),
        value: ns_of("fig10_fast_full") / ns_of("fig10_fast_sampled8"),
        min: None,
    }];

    SuiteResult {
        suite: "macro".into(),
        clock: kind.label().into(),
        calibration: "spin_calibration".into(),
        tolerance: MACRO_TOLERANCE,
        cases,
        derived,
    }
}
