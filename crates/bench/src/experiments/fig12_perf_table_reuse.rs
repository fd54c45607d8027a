//! Figure 12: the performance table accelerates a recurring phase.
//!
//! MLR-8MB runs, stops, and later starts again. On the first run dCat
//! discovers the preferred allocation one way per decision; on the second
//! run the archived per-phase performance table lets it jump (nearly)
//! straight there.

use workloads::{Lookbusy, Mlr};

use crate::experiments::common::{paper_dcat, paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, ScheduleItem, VmPlan};

/// The figure's timeline plus the derived convergence epochs.
#[derive(Debug, Clone)]
pub struct PerfTableReuse {
    /// Ways of the MLR VM per epoch.
    pub(crate) ways_series: Vec<u32>,
    /// Epochs from first start to peak allocation.
    pub(crate) first_run_epochs: u64,
    /// Epochs from restart to peak allocation.
    pub second_run_epochs: u64,
}

/// Runs the run/stop/run schedule (optionally with table reuse disabled,
/// for the ablation bench).
pub fn run_with_reuse(fast: bool, enable_reuse: bool) -> PerfTableReuse {
    let (start1, stop1, start2, total) = if fast {
        (1, 14, 17, 32)
    } else {
        (2, 26, 31, 60)
    };
    let mut plans = vec![VmPlan::scheduled(
        "mlr",
        3,
        vec![
            ScheduleItem::window(start1, stop1),
            ScheduleItem::window(start2, total),
        ],
        |_| Box::new(Mlr::new(8 * MB, 90)),
    )];
    for i in 0..5 {
        plans.push(VmPlan::always(format!("lookbusy-{i}"), 3, |_| {
            Box::new(Lookbusy::new())
        }));
    }
    let mut cfg = paper_dcat();
    cfg.enable_perf_table_reuse = enable_reuse;
    let r = run_scenario(PolicyKind::Dcat(cfg), paper_engine(fast), &plans, total);
    let ways = r.ways_series(0);

    let peak_after = |from: u64, to: u64| -> u64 {
        let window = &ways[from as usize..to as usize];
        let peak = window.iter().copied().max().unwrap_or(0);
        window.iter().position(|&w| w == peak).unwrap_or(0) as u64
    };
    PerfTableReuse {
        first_run_epochs: peak_after(start1, stop1),
        second_run_epochs: peak_after(start2, total),
        ways_series: ways,
    }
}

/// Runs the experiment and prints the timeline.
pub(crate) fn run(fast: bool) -> PerfTableReuse {
    report::section("Figure 12: performance-table reuse on a recurring phase (MLR-8MB)");
    let result = run_with_reuse(fast, true);
    let series: Vec<f64> = result.ways_series.iter().map(|&w| w as f64).collect();
    report::ascii_series("MLR VM ways over time", &series, 8);
    report::say(format!(
        "ways: {}",
        result
            .ways_series
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    report::say(format!(
        "first run reached its peak after {} epochs; second run after {} epochs",
        result.first_run_epochs, result.second_run_epochs
    ));
    result
}
