//! Figure 14: two memory-intensive VMs under the max-performance policy.
//!
//! MLR-8MB and MLR-12MB with four lookbusy neighbors (3-way baselines).
//! While the free pool lasts the two receivers grow in lockstep (the
//! fairness behavior); once tables are populated the max-performance
//! policy can shift ways toward the workload with more headroom.

use dcat::DcatConfig;
use workloads::{Lookbusy, Mlr};

use crate::experiments::common::{paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// Result of one policy run.
#[derive(Debug, Clone)]
pub(crate) struct TwoReceivers {
    /// Ways of MLR-8MB per epoch.
    pub(crate) ways_8mb: Vec<u32>,
    /// Ways of MLR-12MB per epoch.
    pub(crate) ways_12mb: Vec<u32>,
    /// Sum of both VMs' normalized IPC at steady state.
    pub(crate) total_norm_ipc: f64,
}

/// Runs the scenario under the given dCat configuration.
///
/// A third memory-intensive VM arrives two thirds into the run and
/// reclaims its baseline (the paper's Section 3.5 worked example): under
/// max-performance dCat re-splits the two receivers' remaining budget by
/// their performance tables, under max-fairness it shaves them evenly.
pub(crate) fn run_with(cfg: DcatConfig, fast: bool) -> TwoReceivers {
    let epochs = if fast { 24 } else { 48 };
    let arrival = 2 * epochs / 3;
    let mut plans = vec![
        VmPlan::always("mlr-8mb", 3, |s| Box::new(Mlr::new(8 * MB, 200 + s))),
        VmPlan::always("mlr-12mb", 3, |s| Box::new(Mlr::new(12 * MB, 300 + s))),
        VmPlan::scheduled(
            "late-comer",
            3,
            vec![crate::scenario::ScheduleItem::window(arrival, epochs)],
            |s| Box::new(Mlr::new(6 * MB, 900 + s)),
        ),
    ];
    for i in 0..4 {
        plans.push(VmPlan::always(format!("lookbusy-{i}"), 2, |_| {
            Box::new(Lookbusy::new())
        }));
    }
    let r = run_scenario(PolicyKind::Dcat(cfg), paper_engine(fast), &plans, epochs);
    let steady = (epochs / 4) as usize;
    let take = |vm: usize| -> f64 {
        let n = r.reports.len().min(steady);
        r.reports[r.reports.len() - n..]
            .iter()
            .map(|e| e[vm].norm_ipc.unwrap_or(0.0))
            .sum::<f64>()
            / n as f64
    };
    TwoReceivers {
        ways_8mb: r.ways_series(0),
        ways_12mb: r.ways_series(1),
        total_norm_ipc: take(0) + take(1),
    }
}

/// Runs the figure's max-performance configuration and prints the series.
pub(crate) fn run(fast: bool) -> TwoReceivers {
    report::section("Figure 14: two memory-intensive VMs, max-performance policy");
    let result = run_with(DcatConfig::max_performance(), fast);
    report::say(format!(
        "MLR-8MB  ways: {}",
        result
            .ways_8mb
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    report::say(format!(
        "MLR-12MB ways: {}",
        result
            .ways_12mb
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    report::say(format!(
        "steady total normalized IPC (both VMs): {:.2}",
        result.total_norm_ipc
    ));
    result
}
