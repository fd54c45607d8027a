//! Golden Prometheus-text snapshot for the fig07 lifecycle run.
//!
//! The metrics registry is logical-clock only (counters of epochs and
//! pipeline events, span-step histograms, way gauges), so the rendered
//! export is exact-compare stable across machines and `--jobs` widths —
//! any diff means the pipeline's observable behavior changed.
//!
//! To regenerate after an intentional controller or metric-catalog
//! change:
//!
//! ```sh
//! DCAT_BLESS=1 cargo test -p dcat-bench --test golden_metrics
//! ```

use std::path::PathBuf;

use dcat_bench::experiments::fig07_lifecycle;
use dcat_bench::report;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("DCAT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); run with DCAT_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "metrics snapshot diverged from {}; if the change is intentional, \
         re-bless with DCAT_BLESS=1",
        path.display()
    );
}

#[test]
fn fig07_metrics_snapshot_matches_golden() {
    let (_r, _text, snap) = report::capture_obs(|| fig07_lifecycle::run_timeline(false, true));
    let rendered = snap.to_prometheus();
    // Structural sanity before the byte compare: the export must pass
    // the same validator `dcat-top --replay` applies.
    dcat_obs::check_prometheus(&rendered).expect("fig07 export must validate");
    check_golden("fig07_metrics.prom", &rendered);
}
