//! Figure 11: MLR data-access latency normalized to the full cache.
//!
//! For the Figure-10 scenario, the steady-state latency of the MLR VM
//! under dCat and under static 3-way CAT, normalized to MLR running alone
//! with the entire LLC. dCat tracks the full-cache latency closely; static
//! partitioning is far worse once the working set exceeds 3 ways.

use workloads::{Lookbusy, Mlr};

use crate::experiments::common::{paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// One working-set point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LatencyNormRow {
    /// Working set in bytes.
    pub(crate) wss: u64,
    /// dCat latency / full-cache latency.
    pub(crate) dcat_norm: f64,
    /// Static-CAT latency / full-cache latency.
    pub(crate) static_norm: f64,
}

fn steady_latency(policy: PolicyKind, wss: u64, with_neighbors: bool, fast: bool) -> f64 {
    let epochs = if fast { 16 } else { 44 };
    let mut plans = vec![VmPlan::always("mlr", 3, move |s| {
        Box::new(Mlr::new(wss, 70 + s))
    })];
    if with_neighbors {
        for i in 0..5 {
            plans.push(VmPlan::always(format!("lookbusy-{i}"), 3, |_| {
                Box::new(Lookbusy::new())
            }));
        }
    }
    let r = run_scenario(policy, paper_engine(fast), &plans, epochs);
    r.steady_latency(0, (epochs / 4) as usize)
}

/// Runs the comparison.
pub(crate) fn run(fast: bool) -> Vec<LatencyNormRow> {
    report::section("Figure 11: normalized (to full cache) data access latency for MLR");
    let sizes: &[u64] = if fast {
        &[4 * MB, 8 * MB]
    } else {
        &[4 * MB, 8 * MB, 12 * MB, 16 * MB]
    };
    // Flatten the (size x policy) grid so every scenario run is one task.
    let mut tasks = Vec::new();
    for &wss in sizes {
        // Full cache: MLR alone, unmanaged (it can use every way).
        tasks.push((PolicyKind::Shared, wss, false));
        tasks.push((
            PolicyKind::Dcat(crate::experiments::common::paper_dcat()),
            wss,
            true,
        ));
        tasks.push((PolicyKind::StaticCat, wss, true));
    }
    let lats = crate::Runner::from_env().map(tasks, |_, (policy, wss, neighbors)| {
        steady_latency(policy, wss, neighbors, fast)
    });
    let rows: Vec<LatencyNormRow> = sizes
        .iter()
        .enumerate()
        .map(|(i, &wss)| {
            let (full, dcat, stat) = (lats[i * 3], lats[i * 3 + 1], lats[i * 3 + 2]);
            LatencyNormRow {
                wss,
                dcat_norm: dcat / full,
                static_norm: stat / full,
            }
        })
        .collect();
    let printed: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("MLR-{}MB", r.wss / MB),
                format!("{:.2}x", r.dcat_norm),
                format!("{:.2}x", r.static_norm),
            ]
        })
        .collect();
    report::table(
        &["workload", "dCat / full cache", "static CAT / full cache"],
        &printed,
    );
    report::say("(1.0x = full-cache latency; dCat stays close, static CAT does not)");
    rows
}
