//! Fleet churn: policies under tenant arrival/departure pressure.
//!
//! Steady fleets mostly measure steady-state allocation; real IaaS
//! tenants come and go. Churn mode spreads arrivals across the run and
//! shortens lifetimes so slots turn over, which stresses exactly the
//! machinery the policies differ on: dCat re-baselines each newcomer
//! through Unknown, LFOC re-clusters it, Memshare re-opens its ledger.
//! The report shows the active-tenant curve and how each policy's
//! throughput and COS pressure hold up while the population shifts.

use crate::fleet::{run_fleet_with, FleetConfig, FleetPolicy};
use crate::{report, Cli};

/// One policy's summary under churn.
#[derive(Debug, Clone)]
pub(crate) struct FleetChurnRow {
    /// Policy label.
    pub(crate) policy: &'static str,
    /// Total requests completed.
    pub(crate) requests: u64,
    /// Jain fairness over per-tenant lifetime instructions.
    pub(crate) jain: f64,
    /// Mean distinct COS per host-epoch.
    pub(crate) mean_cos: f64,
    /// Active tenants per epoch (identical across policies by
    /// construction: lifecycle traces do not depend on the policy).
    pub(crate) active_series: Vec<u32>,
}

/// Runs the churn comparison at `--tenants N`, by default 1 000 tenants
/// (48 with `--fast`).
///
/// # Errors
///
/// Propagates the [`resctrl::ResctrlError`] of the first fleet run that
/// fails, so the caller classifies it at the exit boundary.
pub(crate) fn run(cli: &Cli) -> Result<Vec<FleetChurnRow>, resctrl::ResctrlError> {
    let default = if cli.fast { 48 } else { 1_000 };
    run_at(cli.tenants.unwrap_or(default), cli.fast)
}

/// Runs the churn comparison at an explicit fleet size.
///
/// # Errors
///
/// Propagates the [`resctrl::ResctrlError`] of the first fleet run that
/// fails.
pub(crate) fn run_at(
    tenants: u32,
    fast: bool,
) -> Result<Vec<FleetChurnRow>, resctrl::ResctrlError> {
    report::section("Fleet churn: cluster cache policies under tenant turnover");
    let mut cfg = FleetConfig::new(tenants, fast);
    cfg.churn = true;
    let mut rows = Vec::new();
    for policy in FleetPolicy::ALL {
        let r = run_fleet_with(policy, &cfg, &mut |_: &str| {})?;
        rows.push(FleetChurnRow {
            policy: r.policy,
            requests: r.total_requests(),
            jain: r.jain_fairness(),
            mean_cos: r.mean_cos_used(),
            active_series: r.rows.iter().map(|e| e.active).collect(),
        });
    }
    if let Some(first) = rows.first() {
        let series: Vec<f64> = first.active_series.iter().map(|&a| f64::from(a)).collect();
        report::ascii_series("active tenants over time", &series, 6);
    }
    report::table(
        &["policy", "requests", "jain", "cos/host"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.to_string(),
                    r.requests.to_string(),
                    format!("{:.4}", r.jain),
                    format!("{:.2}", r.mean_cos),
                ]
            })
            .collect::<Vec<_>>(),
    );
    Ok(rows)
}
