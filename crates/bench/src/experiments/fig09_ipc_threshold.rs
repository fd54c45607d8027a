//! Figure 9: sensitivity to the IPC-improvement threshold.
//!
//! Same setup as Figure 8, sweeping `ipc_imp_thr` from 3% to 40%. A small
//! threshold keeps the VM in Receiver longer (more ways); a large one
//! stops growth almost immediately. The paper picks 5%.

use dcat::DcatConfig;
use workloads::{Lookbusy, Mlr};

use crate::experiments::common::{paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IpcThrPoint {
    /// The threshold value.
    pub(crate) threshold: f64,
    /// Ways held once the allocation stabilizes.
    pub(crate) ways: u32,
}

/// Runs the sweep.
pub(crate) fn run(fast: bool) -> Vec<IpcThrPoint> {
    report::section("Figure 9: impact of IPC improvement threshold (MLR-8MB, 2-way baseline)");
    let thresholds: &[f64] = if fast {
        &[0.03, 0.40]
    } else {
        &[0.03, 0.05, 0.10, 0.20, 0.40]
    };
    let epochs = if fast { 14 } else { 40 };
    let points = crate::Runner::from_env().map(thresholds.to_vec(), |_, thr| {
        let cfg = DcatConfig {
            ipc_imp_thr: thr,
            ..DcatConfig::default()
        };
        let mut plans = vec![VmPlan::always("mlr", 2, |s| {
            Box::new(Mlr::new(8 * MB, 60 + s))
        })];
        for i in 0..5 {
            plans.push(VmPlan::always(format!("lookbusy-{i}"), 2, |_| {
                Box::new(Lookbusy::new())
            }));
        }
        let r = run_scenario(PolicyKind::Dcat(cfg), paper_engine(fast), &plans, epochs);
        IpcThrPoint {
            threshold: thr,
            ways: *r.ways_series(0).last().expect("epochs ran"),
        }
    });
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| vec![format!("{:.0}%", p.threshold * 100.0), p.ways.to_string()])
        .collect();
    report::table(&["ipc_imp_thr", "allocated ways"], &rows);
    report::say("(smaller threshold -> the Receiver keeps growing longer)");
    points
}
