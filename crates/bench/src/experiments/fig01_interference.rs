//! Figure 1: impact of cache interference on MLR.
//!
//! MLR with a 6 MB and a 16 MB working set, with and without two
//! MLOAD-60MB noisy neighbors, under a fully shared LLC and under CAT with
//! a 13.5 MB (6-way) dedicated partition. The paper's findings:
//!
//! * shared + noisy destroys MLR's latency;
//! * CAT protects MLR-6MB (6 ways ≥ working set): latency ≈ the
//!   no-neighbor case;
//! * CAT fails MLR-16MB (working set exceeds the partition): latency is
//!   still far worse than the no-neighbor shared case.

use workloads::{Mload, Mlr};

use crate::experiments::common::{paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// Measured latencies (cycles) for one working-set size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InterferenceRow {
    /// Shared cache, no noisy neighbors.
    pub(crate) shared_quiet: f64,
    /// Shared cache with two MLOAD-60MB neighbors.
    pub(crate) shared_noisy: f64,
    /// 6-way CAT partition with the same neighbors.
    pub(crate) cat_noisy: f64,
    /// 6-way CAT partition, no neighbors.
    pub(crate) cat_quiet: f64,
}

fn latency(policy: PolicyKind, wss: u64, noisy: bool, fast: bool) -> f64 {
    let epochs = if fast { 8 } else { 20 };
    let plans = vec![
        VmPlan::always("mlr", 6, move |s| Box::new(Mlr::new(wss, 100 + s))),
        noisy_plan("noisy-1", noisy),
        noisy_plan("noisy-2", noisy),
    ];
    let r = run_scenario(policy, paper_engine(fast), &plans, epochs);
    r.steady_latency(0, (epochs / 4) as usize)
}

fn noisy_plan(name: &str, active: bool) -> VmPlan {
    if active {
        VmPlan::always(name, 7, |_| Box::new(Mload::new(60 * MB)))
    } else {
        VmPlan::idle(name, 7)
    }
}

/// Runs the experiment and prints the figure's bars.
pub(crate) fn run(fast: bool) -> Vec<InterferenceRow> {
    report::section("Figure 1: Impact of cache interference for MLR");
    // Flatten the 2 working sets x 4 configurations into one task list so
    // the sweep fans out across the full `--jobs` width.
    let mut tasks = Vec::new();
    for wss in [6 * MB, 16 * MB] {
        tasks.push((PolicyKind::Shared, wss, false));
        tasks.push((PolicyKind::Shared, wss, true));
        tasks.push((PolicyKind::StaticCat, wss, true));
        tasks.push((PolicyKind::StaticCat, wss, false));
    }
    let lats = crate::Runner::from_env().map(tasks, |_, (policy, wss, noisy)| {
        latency(policy, wss, noisy, fast)
    });
    let mut rows = Vec::new();
    let mut printed = Vec::new();
    for (i, wss) in [6 * MB, 16 * MB].into_iter().enumerate() {
        let l = &lats[i * 4..i * 4 + 4];
        let row = InterferenceRow {
            shared_quiet: l[0],
            shared_noisy: l[1],
            cat_noisy: l[2],
            cat_quiet: l[3],
        };
        printed.push(vec![
            format!("MLR-{}MB", wss / MB),
            format!("{:.1}", row.shared_quiet),
            format!("{:.1}", row.shared_noisy),
            format!("{:.1}", row.cat_noisy),
            format!("{:.1}", row.cat_quiet),
        ]);
        rows.push(row);
    }
    report::table(
        &[
            "workload",
            "shared w/o noisy",
            "shared w/ noisy",
            "CAT w/ noisy",
            "CAT w/o noisy",
        ],
        &printed,
    );
    report::say("(average data-access latency in cycles; lower is better)");
    rows
}
