//! Figures 15 & 16: MLR-8MB next to an MLOAD-60MB noisy neighbor.
//!
//! Seven VMs: MLR-8MB (3-way baseline), MLOAD-60MB (3-way baseline), five
//! lookbusy (2-way baselines). Both memory-intensive VMs grow as Unknowns
//! (MLOAD with priority); MLOAD is found Streaming and releases its ways,
//! which MLR then absorbs. Figure 16's claim: dCat improves MLR massively
//! while MLOAD is not hurt versus static partitioning.

use workloads::{Lookbusy, Mload, Mlr};

use crate::experiments::common::{paper_dcat, paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// Combined results for Figures 15 and 16.
#[derive(Debug, Clone)]
pub struct MixedRow {
    /// Ways of the MLR VM per epoch (dCat run).
    pub mlr_ways: Vec<u32>,
    /// Ways of the MLOAD VM per epoch (dCat run).
    pub mload_ways: Vec<u32>,
    /// MLR steady normalized IPC under dCat (to its baseline).
    pub(crate) mlr_norm_ipc: f64,
    /// Fig 16: latency normalized to full cache, dCat run.
    pub(crate) mlr_latency_norm_dcat: f64,
    /// Fig 16: latency normalized to full cache, static run.
    pub(crate) mlr_latency_norm_static: f64,
    /// MLOAD IPC under dCat / MLOAD IPC under static CAT (>= ~1 means the
    /// streaming neighbor was not hurt).
    pub mload_ipc_ratio: f64,
}

fn plans() -> Vec<VmPlan> {
    let mut plans = vec![
        VmPlan::always("mlr-8mb", 3, |s| Box::new(Mlr::new(8 * MB, 400 + s))),
        VmPlan::always("mload-60mb", 3, |_| Box::new(Mload::new(60 * MB))),
    ];
    for i in 0..5 {
        plans.push(VmPlan::always(format!("lookbusy-{i}"), 2, |_| {
            Box::new(Lookbusy::new())
        }));
    }
    plans
}

/// Runs the three scenarios (dCat, static CAT, and the full-cache
/// reference) in parallel and returns them in that order — the
/// determinism regression test compares these records across `--jobs`
/// widths.
pub fn run_results(fast: bool) -> Vec<crate::RunResult> {
    let epochs = if fast { 20 } else { 48 };
    crate::Runner::from_env().map(vec![0usize, 1, 2], |_, which| match which {
        0 => run_scenario(
            PolicyKind::Dcat(paper_dcat()),
            paper_engine(fast),
            &plans(),
            epochs,
        ),
        1 => run_scenario(PolicyKind::StaticCat, paper_engine(fast), &plans(), epochs),
        // Full-cache reference: MLR alone with the whole LLC.
        _ => run_scenario(
            PolicyKind::Shared,
            paper_engine(fast),
            &[VmPlan::always("mlr-8mb", 3, |s| {
                Box::new(Mlr::new(8 * MB, 400 + s))
            })],
            epochs,
        ),
    })
}

/// Runs the scenario under dCat and static CAT plus the full-cache
/// reference, and prints both figures.
pub fn run(fast: bool) -> MixedRow {
    report::section("Figure 15: way allocation for MLR-8MB + MLOAD-60MB under dCat");
    let epochs = if fast { 20 } else { 48 };
    let steady = (epochs / 4) as usize;

    let mut results = run_results(fast);
    let (dcat, stat, full) = {
        let full = results.pop().expect("three runs");
        let stat = results.pop().expect("three runs");
        let dcat = results.pop().expect("three runs");
        (dcat, stat, full)
    };

    let n = dcat.reports.len().min(steady);
    let mlr_norm_ipc = dcat.reports[dcat.reports.len() - n..]
        .iter()
        .map(|e| e[0].norm_ipc.unwrap_or(0.0))
        .sum::<f64>()
        / n as f64;

    let row = MixedRow {
        mlr_ways: dcat.ways_series(0),
        mload_ways: dcat.ways_series(1),
        mlr_norm_ipc,
        mlr_latency_norm_dcat: dcat.steady_latency(0, steady) / full.steady_latency(0, steady),
        mlr_latency_norm_static: stat.steady_latency(0, steady) / full.steady_latency(0, steady),
        mload_ipc_ratio: dcat.steady_ipc(1, steady) / stat.steady_ipc(1, steady),
    };

    report::say(format!(
        "MLR   ways: {}",
        row.mlr_ways
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    report::say(format!(
        "MLOAD ways: {}",
        row.mload_ways
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    report::say(format!(
        "MLR steady normalized IPC under dCat: {:.2}x",
        row.mlr_norm_ipc
    ));

    report::section("Figure 16: normalized (to full cache) latency, dCat vs static");
    report::table(
        &["workload", "dCat / full", "static / full", "note"],
        &[
            vec![
                "MLR-8MB".to_string(),
                format!("{:.2}x", row.mlr_latency_norm_dcat),
                format!("{:.2}x", row.mlr_latency_norm_static),
                "dCat near full-cache".to_string(),
            ],
            vec![
                "MLOAD-60MB".to_string(),
                format!("{:.2}x (IPC vs static)", row.mload_ipc_ratio),
                "1.00x".to_string(),
                "streaming VM unharmed".to_string(),
            ],
        ],
    );
    row
}
