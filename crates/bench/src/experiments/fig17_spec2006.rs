//! Figure 17 and Table 3: SPEC CPU2006 under shared / static / dCat.
//!
//! One benchmark VM (4-way, 9 MB baseline) against two MLOAD-60MB noisy
//! VMs and two lookbusy VMs. The metric is work completed per unit of
//! simulated time at steady state (instructions retired over the second
//! half of the run — the inverse-running-time analogue; the paper's
//! multi-hundred-second runs amortize dCat's discovery phase the same
//! way), normalized to the shared-cache run. The paper reports a
//! geo-mean of +25% over shared and +15.7% over static partitioning, with
//! the high-reuse benchmarks (omnetpp, astar) gaining the most and
//! streaming benchmarks gaining nothing. Table 3 records the maximum ways
//! dCat granted each benchmark.

use workloads::{spec_catalog, Lookbusy, Mload, SpecBenchmark};

use crate::experiments::common::{paper_dcat, paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// Results for one benchmark.
#[derive(Debug, Clone)]
pub struct SpecRow {
    /// Benchmark name.
    pub name: &'static str,
    /// dCat performance / shared performance.
    pub dcat_vs_shared: f64,
    /// Static-CAT performance / shared performance.
    pub static_vs_shared: f64,
    /// Maximum ways dCat granted (Table 3).
    pub(crate) max_ways: u32,
}

fn plans(bench: SpecBenchmark) -> Vec<VmPlan> {
    vec![
        VmPlan::always(bench.name, 4, move |s| Box::new(bench.stream(500 + s))),
        VmPlan::always("mload-1", 4, |_| Box::new(Mload::new(60 * MB))),
        VmPlan::always("mload-2", 4, |_| Box::new(Mload::new(60 * MB))),
        VmPlan::always("lookbusy-1", 4, |_| Box::new(Lookbusy::new())),
        VmPlan::always("lookbusy-2", 4, |_| Box::new(Lookbusy::new())),
    ]
}

/// Runs one benchmark under the three policies.
pub(crate) fn run_one(bench: SpecBenchmark, fast: bool) -> SpecRow {
    // Fast mode still needs enough epochs that the last-quarter
    // window sits past dCat's discovery phase (one way per judged
    // interval from 4 to ~7 ways takes ~8 epochs).
    let epochs = if fast { 16 } else { 28 };
    let cfg = paper_engine(fast);
    let shared = run_scenario(PolicyKind::Shared, cfg, &plans(bench), epochs);
    let stat = run_scenario(PolicyKind::StaticCat, cfg, &plans(bench), epochs);
    let dcat = run_scenario(PolicyKind::Dcat(paper_dcat()), cfg, &plans(bench), epochs);
    // Steady-state work rate: instructions over the last quarter of the
    // run, after dCat's discovery phase has converged (the paper's
    // multi-hundred-second runs amortize discovery the same way; with the
    // harness's short runs the early probing epochs would otherwise
    // dominate the mean).
    let steady = |r: &crate::scenario::RunResult| -> f64 {
        let tail = r.epochs.len() * 3 / 4;
        r.epochs[tail..]
            .iter()
            .map(|e| e[0].instructions)
            .sum::<u64>() as f64
    };
    let base = steady(&shared).max(1.0);
    SpecRow {
        name: bench.name,
        dcat_vs_shared: steady(&dcat) / base,
        static_vs_shared: steady(&stat) / base,
        max_ways: dcat.peak_ways(0),
    }
}

/// Runs the full suite (or a 4-benchmark subset in fast mode).
pub fn run(fast: bool) -> Vec<SpecRow> {
    report::section("Figure 17: SPEC CPU2006 performance normalized to shared cache");
    let catalog = spec_catalog();
    let selection: Vec<SpecBenchmark> = if fast {
        catalog
            .into_iter()
            .filter(|b| matches!(b.name, "omnetpp" | "libquantum" | "hmmer" | "soplex"))
            .collect()
    } else {
        catalog
    };
    let rows = crate::Runner::from_env().map(selection, |_, bench| {
        let row = run_one(bench, fast);
        report::say(format!(
            "  {:<12} dCat {:.2}x  static {:.2}x  (max ways {})",
            row.name, row.dcat_vs_shared, row.static_vs_shared, row.max_ways
        ));
        row
    });

    let dcat_geo = report::geo_mean(&rows.iter().map(|r| r.dcat_vs_shared).collect::<Vec<_>>());
    let stat_geo = report::geo_mean(&rows.iter().map(|r| r.static_vs_shared).collect::<Vec<_>>());
    report::say("");
    report::say(format!(
        "geo-mean: dCat {} over shared, {} over static (paper: +25% / +15.7%)",
        report::pct(dcat_geo - 1.0),
        report::pct(dcat_geo / stat_geo - 1.0)
    ));

    report::section("Table 3: maximum cache-ways assigned by dCat");
    let printed: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.name.to_string(), "4".to_string(), r.max_ways.to_string()])
        .collect();
    report::table(&["benchmark", "baseline ways", "max ways (dCat)"], &printed);
    rows
}
