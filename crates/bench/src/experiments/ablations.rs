//! Ablations of dCat's design choices (DESIGN.md §5), each a sweep of one
//! knob on a paper scenario. `ablate_replacement` and `exp_coloring_vs_cat`
//! sweep the simulator rather than the controller and have modules of
//! their own.

use dcat::DcatConfig;
use workloads::{phased::Phase, Lookbusy, Mload, Mlr, PhasedStream};

use crate::experiments::common::{paper_dcat, paper_engine, MB};
use crate::experiments::{fig12_perf_table_reuse, fig14_two_receivers};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};
use crate::Runner;

/// Max-fairness vs. max-performance free-pool distribution (paper
/// Section 3.5) on the Figure-14 scenario.
pub(crate) fn policy(fast: bool) {
    report::section("Ablation: allocation policy (two receivers + late-comer)");
    let runs = Runner::from_env().map(
        vec![DcatConfig::default(), DcatConfig::max_performance()],
        |_, cfg| fig14_two_receivers::run_with(cfg, fast),
    );
    let (fair, perf) = (runs[0].clone(), runs[1].clone());
    report::table(
        &[
            "policy",
            "MLR-8MB final ways",
            "MLR-12MB final ways",
            "total norm IPC",
        ],
        &[
            vec![
                "max-fairness".into(),
                fair.ways_8mb.last().unwrap().to_string(),
                fair.ways_12mb.last().unwrap().to_string(),
                format!("{:.2}", fair.total_norm_ipc),
            ],
            vec![
                "max-performance".into(),
                perf.ways_8mb.last().unwrap().to_string(),
                perf.ways_12mb.last().unwrap().to_string(),
                format!("{:.2}", perf.total_norm_ipc),
            ],
        ],
    );
}

/// Per-phase performance-table reuse on vs. off (the Figure-12
/// mechanism), measured as epochs from restart to peak ways.
pub(crate) fn perf_table(fast: bool) {
    report::section("Ablation: performance-table reuse");
    let runs = Runner::from_env().map(vec![true, false], |_, reuse| {
        fig12_perf_table_reuse::run_with_reuse(fast, reuse)
    });
    let (with, without) = (runs[0].clone(), runs[1].clone());
    report::table(
        &[
            "perf-table reuse",
            "1st run epochs to peak",
            "2nd run epochs to peak",
        ],
        &[
            vec![
                "enabled".into(),
                with.first_run_epochs.to_string(),
                with.second_run_epochs.to_string(),
            ],
            vec![
                "disabled".into(),
                without.first_run_epochs.to_string(),
                without.second_run_epochs.to_string(),
            ],
        ],
    );
    report::say("(with reuse, the second run should converge much faster)");
}

/// One MLR VM and five lookbusy neighbours, the Figure-10 MLR-8MB shape.
fn mlr_with_lookbusy() -> Vec<VmPlan> {
    let mut plans = vec![VmPlan::always("mlr", 3, |s| {
        Box::new(Mlr::new(8 * MB, 70 + s))
    })];
    for i in 0..5 {
        plans.push(VmPlan::always(format!("lookbusy-{i}"), 3, |_| {
            Box::new(Lookbusy::new())
        }));
    }
    plans
}

/// The settle interval (epochs between a ways change and its judgement):
/// too small misjudges cold caches, too large converges slowly.
pub(crate) fn settle(fast: bool) {
    report::section("Ablation: settle intervals before judging a ways change");
    let epochs = if fast { 16 } else { 44 };
    let rows = Runner::from_env().map(vec![1u32, 2, 4], |_, settle| {
        let cfg = DcatConfig {
            settle_intervals: settle,
            ..DcatConfig::default()
        };
        let r = run_scenario(
            PolicyKind::Dcat(cfg),
            paper_engine(fast),
            &mlr_with_lookbusy(),
            epochs,
        );
        let ways = r.ways_series(0);
        let peak = ways.iter().copied().max().unwrap_or(0);
        let first_peak = ways.iter().position(|&w| w == peak).unwrap_or(0);
        vec![
            settle.to_string(),
            peak.to_string(),
            ways.last().unwrap().to_string(),
            first_peak.to_string(),
            format!("{:.2}", r.steady_ipc(0, (epochs / 4) as usize)),
        ]
    });
    report::table(
        &[
            "settle",
            "peak ways",
            "final ways",
            "epoch of peak",
            "steady IPC",
        ],
        &rows,
    );
}

/// Phase-change threshold sensitivity on a workload that alternates
/// between an MLR-like and an MLOAD-like phase.
pub(crate) fn phase_thr(fast: bool) {
    report::section("Ablation: phase-change threshold");
    let epochs = if fast { 20 } else { 48 };
    let rows = Runner::from_env().map(vec![0.02f64, 0.10, 0.50], |_, thr| {
        let cfg = DcatConfig {
            phase_change_thr: thr,
            ..DcatConfig::default()
        };
        let mut plans = vec![VmPlan::always("phased", 3, |s| {
            Box::new(PhasedStream::cycling(vec![
                Phase {
                    stream: Box::new(Mlr::new(6 * MB, 80 + s)),
                    accesses: 400_000,
                },
                Phase {
                    stream: Box::new(Mload::new(30 * MB)),
                    accesses: 400_000,
                },
            ]))
        })];
        for i in 0..5 {
            plans.push(VmPlan::always(format!("lookbusy-{i}"), 3, |_| {
                Box::new(Lookbusy::new())
            }));
        }
        let r = run_scenario(PolicyKind::Dcat(cfg), paper_engine(fast), &plans, epochs);
        let changes: usize = r.reports.iter().filter(|e| e[0].phase_changed).count();
        vec![
            format!("{:.0}%", thr * 100.0),
            changes.to_string(),
            format!("{:.2}", r.steady_ipc(0, (epochs / 4) as usize)),
        ]
    });
    report::table(
        &["phase_change_thr", "phase changes detected", "steady IPC"],
        &rows,
    );
    report::say("(too small: spurious reclaims; too large: stale baselines)");
}

/// Controller interval length (the paper's configurable period): too long
/// reacts slowly, too short judges cold caches. The total simulated
/// cycles are fixed across the sweep.
pub(crate) fn interval(fast: bool) {
    report::section("Ablation: controller interval (cycles per epoch)");
    let budgets: &[u64] = if fast {
        &[1_000_000, 4_000_000]
    } else {
        &[2_000_000, 10_000_000, 30_000_000]
    };
    let rows = Runner::from_env().map(budgets.to_vec(), |_, budget| {
        let mut cfg = paper_engine(fast);
        cfg.cycles_per_epoch = budget;
        let total_cycles: u64 = if fast { 24_000_000 } else { 360_000_000 };
        let epochs = (total_cycles / budget).max(4);
        let r = run_scenario(
            PolicyKind::Dcat(paper_dcat()),
            cfg,
            &mlr_with_lookbusy(),
            epochs,
        );
        let ways = r.ways_series(0);
        let peak = ways.iter().copied().max().unwrap_or(0);
        let first_peak_epoch = ways.iter().position(|&w| w == peak).unwrap_or(0) as u64;
        vec![
            format!("{}M", budget / 1_000_000),
            epochs.to_string(),
            peak.to_string(),
            format!("{}M", first_peak_epoch * budget / 1_000_000),
            format!("{:.2}", r.steady_ipc(0, (epochs / 4) as usize)),
        ]
    });
    report::table(
        &[
            "interval",
            "epochs",
            "peak ways",
            "cycles to peak",
            "steady IPC",
        ],
        &rows,
    );
}
