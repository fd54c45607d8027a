//! Figure 8: sensitivity to the cache-miss threshold.
//!
//! MLR-8MB in a VM with a 2-way baseline; sweeping `llc_miss_rate_thr`.
//! A smaller threshold chases misses harder: more ways granted, lower
//! latency, higher pressure on the free pool. The paper picks 3%.

use dcat::DcatConfig;
use workloads::{Lookbusy, Mlr};

use crate::experiments::common::{paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MissThrPoint {
    /// The threshold value.
    pub(crate) threshold: f64,
    /// Ways held once the allocation stabilizes.
    pub(crate) ways: u32,
    /// Steady-state average data-access latency (cycles).
    pub(crate) latency: f64,
}

/// Runs the sweep.
pub(crate) fn run(fast: bool) -> Vec<MissThrPoint> {
    report::section("Figure 8: impact of cache miss threshold (MLR-8MB, 2-way baseline)");
    let thresholds: &[f64] = if fast {
        &[0.01, 0.10]
    } else {
        &[0.01, 0.03, 0.05, 0.10, 0.20]
    };
    let epochs = if fast { 14 } else { 40 };
    let points = crate::Runner::from_env().map(thresholds.to_vec(), |_, thr| {
        let cfg = DcatConfig {
            llc_miss_rate_thr: thr,
            // Keep the donor ("no misses") threshold proportionally below
            // the growth threshold, as the two bound the same quantity.
            donor_miss_rate_thr: thr / 6.0,
            ..DcatConfig::default()
        };
        let mut plans = vec![VmPlan::always("mlr", 2, |s| {
            Box::new(Mlr::new(8 * MB, 50 + s))
        })];
        for i in 0..5 {
            plans.push(VmPlan::always(format!("lookbusy-{i}"), 2, |_| {
                Box::new(Lookbusy::new())
            }));
        }
        let r = run_scenario(PolicyKind::Dcat(cfg), paper_engine(fast), &plans, epochs);
        MissThrPoint {
            threshold: thr,
            ways: *r.ways_series(0).last().expect("epochs ran"),
            latency: r.steady_latency(0, (epochs / 4) as usize),
        }
    });
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.threshold * 100.0),
                p.ways.to_string(),
                format!("{:.1}", p.latency),
            ]
        })
        .collect();
    report::table(
        &[
            "llc_miss_rate_thr",
            "allocated ways",
            "avg latency (cycles)",
        ],
        &rows,
    );
    report::say("(smaller threshold -> more ways and better latency, at higher pool pressure)");
    points
}
