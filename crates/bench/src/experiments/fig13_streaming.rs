//! Figure 13: a streaming workload is detected and defunded.
//!
//! MLOAD-60MB (cyclic scan, no reuse) in a 3-way-baseline VM. dCat grows
//! it like any Unknown workload, sees zero IPC improvement, declares it
//! Streaming when the allocation reaches three times the baseline, and
//! drops it to one way — returning the capacity to the pool.

use workloads::{Lookbusy, Mload};

use crate::experiments::common::{paper_dcat, paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// The timeline plus derived checkpoints.
#[derive(Debug, Clone)]
pub struct StreamingRow {
    /// Ways of the MLOAD VM per epoch.
    pub(crate) ways_series: Vec<u32>,
    /// Peak ways reached during discovery.
    pub peak_ways: u32,
    /// Final ways (should be the 1-way minimum).
    pub final_ways: u32,
}

/// Runs the scenario and returns the full record — the golden
/// decision-trace tests snapshot this.
pub fn run_result(fast: bool) -> crate::RunResult {
    let epochs = if fast { 20 } else { 40 };
    let mut plans = vec![VmPlan::always("mload", 3, |_| {
        Box::new(Mload::new(60 * MB))
    })];
    for i in 0..5 {
        plans.push(VmPlan::always(format!("lookbusy-{i}"), 3, |_| {
            Box::new(Lookbusy::new())
        }));
    }
    run_scenario(
        PolicyKind::Dcat(paper_dcat()),
        paper_engine(fast),
        &plans,
        epochs,
    )
}

/// Runs the scenario.
pub fn run(fast: bool) -> StreamingRow {
    report::section("Figure 13: cache-way allocation and normalized IPC for MLOAD-60MB");
    let r = run_result(fast);
    let ways = r.ways_series(0);
    let row = StreamingRow {
        peak_ways: ways.iter().copied().max().unwrap_or(0),
        final_ways: *ways.last().expect("ran"),
        ways_series: ways,
    };
    let series: Vec<f64> = row.ways_series.iter().map(|&w| w as f64).collect();
    report::ascii_series("MLOAD VM ways over time", &series, 8);
    report::say(format!(
        "ways: {}",
        row.ways_series
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    report::say(format!(
        "peak {} ways (streaming cap = 3x baseline = 9), final {} way(s)",
        row.peak_ways, row.final_ways
    ));
    row
}
