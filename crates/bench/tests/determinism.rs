//! Regression tests for the parallel runner's central guarantee: results
//! (and report bytes) are identical whatever `--jobs` width produced
//! them.
//!
//! The oracle is [`dcat_bench::RunResult::serialize`], which renders
//! every per-epoch stat, policy decision, and latency sample with `{:?}`
//! floats (shortest round-trip form): two serializations are byte-equal
//! iff the runs are bit-identical. The observability layer is held to
//! the same bar: the rendered Prometheus snapshot and the concatenated
//! frame streams must also be byte-equal across widths.
//!
//! The width is a process global (`runner::set_jobs`), so everything
//! runs inside one `#[test]` to keep the narrow/wide passes from racing.

use dcat_bench::experiments::{fig10_dynamic_alloc, fig15_mixed};
use dcat_bench::{report, runner, FleetConfig, FleetPolicy, Runner};

const MB: u64 = 1024 * 1024;

/// One width's complete observable output for a fig10 sweep.
struct Observed {
    /// `RunResult::serialize()` per run.
    serials: Vec<String>,
    /// Captured report bytes.
    text: String,
    /// Rendered metrics snapshot.
    prometheus: String,
    /// Concatenated `dcat-frames/v2` segments, in run order.
    frames: String,
}

/// Runs fig10's working-set sweep at the given width.
fn fig10_at(jobs: usize) -> Observed {
    runner::set_jobs(jobs);
    let (pairs, text, snap) = report::capture_obs(|| {
        Runner::from_env().map(vec![4 * MB, 8 * MB], |_, wss| {
            let (_, result) = fig10_dynamic_alloc::run_one(wss, true);
            (result.serialize(), result.frames)
        })
    });
    observed(pairs, text, &snap)
}

/// Splits per-run `(serialize, frames)` pairs into one [`Observed`].
fn observed(pairs: Vec<(String, String)>, text: String, snap: &dcat_obs::Snapshot) -> Observed {
    let (serials, frames): (Vec<String>, Vec<String>) = pairs.into_iter().unzip();
    Observed {
        serials,
        text,
        prometheus: snap.to_prometheus(),
        frames: frames.concat(),
    }
}

/// Runs fig15's three scenarios at the given width.
fn fig15_at(jobs: usize) -> Observed {
    runner::set_jobs(jobs);
    let (pairs, text, snap) = report::capture_obs(|| {
        fig15_mixed::run_results(true)
            .into_iter()
            .map(|r| (r.serialize(), r.frames))
            .collect::<Vec<_>>()
    });
    observed(pairs, text, &snap)
}

#[test]
fn parallel_runs_are_bit_identical_to_serial_runs() {
    let fig10_serial = fig10_at(1);
    let fig10_wide = fig10_at(4);
    assert!(
        !fig10_serial.serials.concat().is_empty(),
        "fig10 produced no stats to compare"
    );
    assert_eq!(
        fig10_serial.serials, fig10_wide.serials,
        "fig10 per-epoch stats differ between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        fig10_serial.text, fig10_wide.text,
        "fig10 report bytes differ"
    );
    assert!(
        !fig10_serial.prometheus.is_empty(),
        "fig10 recorded no metrics"
    );
    assert_eq!(
        fig10_serial.prometheus, fig10_wide.prometheus,
        "fig10 metrics snapshots differ across widths"
    );
    dcat_obs::check_frames(&fig10_serial.frames).expect("fig10 frame stream validates");
    assert_eq!(
        fig10_serial.frames, fig10_wide.frames,
        "fig10 frame streams differ across widths"
    );

    let fig15_serial = fig15_at(1);
    let fig15_wide = fig15_at(4);
    assert_eq!(fig15_serial.serials.len(), 3, "fig15 runs dcat/static/full");
    assert!(
        !fig15_serial.serials.concat().is_empty(),
        "fig15 produced no stats to compare"
    );
    assert_eq!(
        fig15_serial.serials, fig15_wide.serials,
        "fig15 per-epoch stats differ between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        fig15_serial.text, fig15_wide.text,
        "fig15 report bytes differ"
    );
    assert_eq!(
        fig15_serial.prometheus, fig15_wide.prometheus,
        "fig15 metrics snapshots differ across widths"
    );
    assert_eq!(
        fig15_serial.frames, fig15_wide.frames,
        "fig15 frame streams differ across widths"
    );

    runner::set_jobs(1);
}

/// Fleet smoke at the hundred-tenant scale: the per-host frame writers
/// travel with the hosts through the worker pool, so the concatenated
/// stream must be byte-identical at any `--jobs` width — including under
/// sampled LLC fidelity, which is how fleets of this size actually run.
#[test]
fn fleet_frame_streams_are_bit_identical_across_widths() {
    let cfg = {
        let mut cfg = FleetConfig::new(100, true);
        cfg.epochs = 4;
        cfg.cycles_per_epoch = 40_000;
        cfg.llc_fidelity = llc_sim::SimFidelity::Sampled { one_in: 8 };
        cfg
    };
    let run_at = |jobs: usize| {
        runner::set_jobs(jobs);
        dcat_bench::run_fleet(FleetPolicy::DcatMaxFairness, &cfg).expect("fleet runs")
    };
    let serial = run_at(1);
    let wide = run_at(4);
    let summary = dcat_obs::check_frames(&serial.frames).expect("fleet frame stream validates");
    assert_eq!(
        summary.segments, serial.hosts as usize,
        "one segment per host"
    );
    assert_eq!(
        summary.frames,
        serial.rows.len() * serial.hosts as usize,
        "one frame per host-epoch"
    );
    assert_eq!(
        serial.serialize(),
        wide.serialize(),
        "fleet aggregates differ across widths"
    );
    assert_eq!(
        serial.frames, wide.frames,
        "fleet frame streams differ across widths"
    );
    runner::set_jobs(1);
}
