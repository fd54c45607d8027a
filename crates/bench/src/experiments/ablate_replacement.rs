//! Ablation: LLC replacement/insertion policy under an unmanaged shared
//! cache.
//!
//! The paper's premise is that *LRU* sharing lets a streaming neighbor
//! flush a victim's working set — which is why CAT isolation is needed at
//! all. Scan-resistant insertion (BIP, from the DIP work the paper cites
//! for cyclic access patterns) protects the victim in hardware instead;
//! this ablation quantifies how much of dCat's win such hardware would
//! erode.

use host::EngineConfig;
use llc_sim::ReplacementPolicy;
use workloads::{Mload, Mlr};

use crate::experiments::common::MB;
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// Victim results under one LLC policy.
#[derive(Debug, Clone)]
pub struct ReplacementRow {
    /// Policy label.
    pub label: &'static str,
    /// Victim steady IPC.
    pub ipc: f64,
    /// Victim steady data-access latency (cycles).
    pub(crate) latency: f64,
}

fn victim_stats(policy: ReplacementPolicy, fast: bool) -> (f64, f64) {
    let mut cfg = EngineConfig::xeon_e5_v4();
    cfg.cycles_per_epoch = if fast { 1_500_000 } else { 10_000_000 };
    cfg.socket.hierarchy.llc_policy = policy;
    // BIP's protection accumulates at ~1/32 of the victim's fills, so the
    // victim must re-touch its lines often relative to the run length;
    // the fast variant shrinks the working sets accordingly.
    let victim_wss = if fast { MB / 2 } else { 8 * MB };
    let noisy_wss = if fast { 20 * MB } else { 60 * MB };
    let plans = vec![
        VmPlan::always("mlr", 6, move |s| Box::new(Mlr::new(victim_wss, 31 + s))),
        VmPlan::always("noisy-1", 7, move |_| Box::new(Mload::new(noisy_wss))),
        VmPlan::always("noisy-2", 7, move |_| Box::new(Mload::new(noisy_wss))),
    ];
    let epochs = if fast { 30 } else { 36 };
    let r = run_scenario(PolicyKind::Shared, cfg, &plans, epochs);
    let steady = (epochs / 4) as usize;
    (r.steady_ipc(0, steady), r.steady_latency(0, steady))
}

/// Runs the sweep over the four policies.
pub fn run(fast: bool) -> Vec<ReplacementRow> {
    report::section("Ablation: LLC replacement policy (shared cache, MLR-8MB vs 2x MLOAD-60MB)");
    let policies = [
        ("LRU", ReplacementPolicy::Lru),
        ("FIFO", ReplacementPolicy::Fifo),
        ("Random", ReplacementPolicy::Random),
        ("BIP (1/32)", ReplacementPolicy::bip()),
    ];
    let rows = crate::Runner::from_env().map(policies.to_vec(), |_, (label, p)| {
        let (ipc, latency) = victim_stats(p, fast);
        ReplacementRow {
            label,
            ipc,
            latency,
        }
    });
    let printed: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                format!("{:.4}", r.ipc),
                format!("{:.1}", r.latency),
            ]
        })
        .collect();
    report::table(
        &["LLC policy", "victim IPC", "victim latency (cyc)"],
        &printed,
    );
    report::say("(scan-resistant insertion protects the victim without any partitioning,");
    report::say(" at the cost of hardware support no shipping LLC provides per-tenant)");
    rows
}
