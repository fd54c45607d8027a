//! Figure 10: dCat sizes the allocation to the working set.
//!
//! Six VMs with a 3-way (6.75 MB) baseline; one runs MLR with a working
//! set swept from 4 MB to 16 MB, five run lookbusy. dCat shrinks the
//! lookbusy VMs to one way and grows the MLR VM until its IPC stops
//! improving — the final allocation tracks the working-set size.

use workloads::{Lookbusy, Mlr};

use crate::experiments::common::{paper_dcat, paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, RunResult, VmPlan};

/// One working-set point of the figure.
#[derive(Debug, Clone)]
pub struct DynamicAllocRow {
    /// MLR working set in bytes.
    pub(crate) wss: u64,
    /// Final ways granted to the MLR VM.
    pub(crate) final_ways: u32,
    /// Ways per epoch (timeline).
    pub(crate) ways_series: Vec<u32>,
    /// Normalized IPC (to baseline) per epoch where known.
    pub(crate) norm_ipc_series: Vec<f64>,
    /// Final ways of each lookbusy VM.
    pub(crate) lookbusy_ways: Vec<u32>,
}

/// Builds the 6-VM scenario and runs it under dCat.
pub fn run_one(wss: u64, fast: bool) -> (DynamicAllocRow, RunResult) {
    let epochs = if fast { 16 } else { 44 };
    let mut plans = vec![VmPlan::always("mlr", 3, move |s| {
        Box::new(Mlr::new(wss, 70 + s))
    })];
    for i in 0..5 {
        plans.push(VmPlan::always(format!("lookbusy-{i}"), 3, |_| {
            Box::new(Lookbusy::new())
        }));
    }
    let r = run_scenario(
        PolicyKind::Dcat(paper_dcat()),
        paper_engine(fast),
        &plans,
        epochs,
    );
    let row = DynamicAllocRow {
        wss,
        final_ways: *r.ways_series(0).last().expect("ran"),
        ways_series: r.ways_series(0),
        norm_ipc_series: r
            .reports
            .iter()
            .map(|e| e[0].norm_ipc.unwrap_or(0.0))
            .collect(),
        lookbusy_ways: (1..6)
            .map(|i| *r.ways_series(i).last().expect("ran"))
            .collect(),
    };
    (row, r)
}

/// Runs the working-set sweep.
pub(crate) fn run(fast: bool) -> Vec<DynamicAllocRow> {
    report::section("Figure 10: cache-way allocation and normalized IPC for MLR under dCat");
    let sizes: &[u64] = if fast {
        &[4 * MB, 8 * MB]
    } else {
        &[4 * MB, 8 * MB, 12 * MB, 16 * MB]
    };
    let rows = crate::Runner::from_env().map(sizes.to_vec(), |_, wss| {
        let (row, _) = run_one(wss, fast);
        report::say(format!(
            "MLR-{:>2}MB  ways over time: {}",
            wss / MB,
            row.ways_series
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
        row
    });
    let printed: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let final_norm = r.norm_ipc_series.last().copied().unwrap_or(0.0);
            vec![
                format!("MLR-{}MB", r.wss / MB),
                r.final_ways.to_string(),
                format!("{:.2}x", final_norm),
                format!("{:?}", r.lookbusy_ways),
            ]
        })
        .collect();
    report::table(
        &["workload", "final ways", "final norm. IPC", "lookbusy ways"],
        &printed,
    );
    report::say("(larger working sets earn more ways; lookbusy VMs donate down to 1)");
    rows
}
