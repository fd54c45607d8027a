//! Diagnostics: dCat's per-epoch decisions on a paper scenario, one line
//! per epoch — the quickest way to see the controller think.

use workloads::{Lookbusy, Mload, Mlr, RedisModel};

use crate::experiments::common::{paper_dcat, paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// The Redis service beside two MLOAD and two lookbusy VMs: the service's
/// class, ways, IPC, normalized IPC, miss rate and phase changes.
pub fn decisions(fast: bool) {
    let plans = vec![
        VmPlan::always("service", 4, |s| {
            Box::new(RedisModel::paper_default(700 + s))
        }),
        VmPlan::always("mload-1", 4, |_| Box::new(Mload::new(60 * MB))),
        VmPlan::always("mload-2", 4, |_| Box::new(Mload::new(60 * MB))),
        VmPlan::always("lookbusy-1", 4, |_| Box::new(Lookbusy::new())),
        VmPlan::always("lookbusy-2", 4, |_| Box::new(Lookbusy::new())),
    ];
    let r = run_scenario(
        PolicyKind::Dcat(paper_dcat()),
        paper_engine(fast),
        &plans,
        if fast { 16 } else { 36 },
    );
    for (e, rep) in r.reports.iter().enumerate() {
        let d = &rep[0];
        report::say(format!(
            "e{e:>2} class={:<9} ways={:>2} ipc={:.3} norm={:?} miss={:.3} phase_chg={}",
            d.class.to_string(),
            d.ways,
            d.ipc,
            d.norm_ipc.map(|v| (v * 100.0).round() / 100.0),
            d.llc_miss_rate,
            d.phase_changed
        ));
    }
}

/// The Figure-15 scenario: MLR-8MB and MLOAD-60MB side by side.
pub fn fig15(fast: bool) {
    let mut plans = vec![
        VmPlan::always("mlr-8mb", 3, |s| Box::new(Mlr::new(8 * MB, 400 + s))),
        VmPlan::always("mload-60mb", 3, |_| Box::new(Mload::new(60 * MB))),
    ];
    for i in 0..5 {
        plans.push(VmPlan::always(format!("lookbusy-{i}"), 2, |_| {
            Box::new(Lookbusy::new())
        }));
    }
    let r = run_scenario(
        PolicyKind::Dcat(paper_dcat()),
        paper_engine(fast),
        &plans,
        if fast { 16 } else { 24 },
    );
    for (e, rep) in r.reports.iter().enumerate() {
        report::say(format!(
            "e{e:>2} MLR {:<9} w={:>2} n={:<5} | MLOAD {:<9} w={:>2} n={:<5} miss={:.2} ipc={:.4}",
            rep[0].class.to_string(),
            rep[0].ways,
            rep[0].norm_ipc.map_or("-".into(), |v| format!("{v:.2}")),
            rep[1].class.to_string(),
            rep[1].ways,
            rep[1].norm_ipc.map_or("-".into(), |v| format!("{v:.2}")),
            rep[1].llc_miss_rate,
            rep[1].ipc,
        ));
    }
}
