//! Fleet scale: cluster policies compared at increasing tenant counts.
//!
//! The dCat paper stops at one socket; an operator's question is what a
//! per-host cache policy does to a *fleet* — throughput, fairness
//! between tenants, and COS pressure (dCat wants one COS per domain;
//! LFOC and Memshare cluster tenants onto a handful). This experiment
//! runs identical tenant populations (same lifecycle traces, same
//! diurnal load) under all four [`FleetPolicy`] variants at 100, 1 000,
//! and 10 000 tenants and reports per-policy totals, Jain fairness over
//! per-tenant instructions, and mean distinct-COS per host.
//!
//! Full-fidelity 10 000-tenant runs simulate every LLC set of 834 hosts
//! — pass `--sample-sets 8` to run them in minutes; the sampled run is
//! still byte-identical at any `--jobs` width.

use crate::fleet::{run_fleet_with, FleetConfig, FleetPolicy, FleetSink};
use crate::report;

/// One policy × fleet-size cell of the comparison.
#[derive(Debug, Clone)]
pub struct FleetScaleRow {
    /// Policy label.
    pub policy: &'static str,
    /// Fleet size.
    pub tenants: u32,
    /// Total requests completed.
    pub requests: u64,
    /// Total instructions retired.
    pub instructions: u64,
    /// Run-wide LLC miss rate.
    pub miss_rate: f64,
    /// Jain fairness over per-tenant lifetime instructions.
    pub jain: f64,
    /// Mean distinct COS per host-epoch.
    pub mean_cos: f64,
}

/// The standard ladder: a small smoke in fast mode, the paper-style
/// 100/1 000/10 000 ladder otherwise.
pub fn ladder(fast: bool) -> &'static [u32] {
    if fast {
        &[48]
    } else {
        &[100, 1_000, 10_000]
    }
}

/// Runs the standard [`ladder`], keeping no frames.
///
/// # Errors
///
/// Propagates the [`resctrl::ResctrlError`] of the first fleet run that
/// fails, so the binary classifies it at the exit boundary.
pub fn run(fast: bool) -> Result<Vec<FleetScaleRow>, resctrl::ResctrlError> {
    run_at(ladder(fast), fast, &mut |_: &str| {})
}

/// Runs the comparison at explicit fleet sizes (the `--tenants N` path
/// of the binary), handing every run's frame stream to `frames`: fleet
/// size by fleet size, policy by policy, in report order.
///
/// # Errors
///
/// Propagates the [`resctrl::ResctrlError`] of the first fleet run that
/// fails.
pub fn run_at(
    tenant_counts: &[u32],
    fast: bool,
    frames: &mut FleetSink<'_>,
) -> Result<Vec<FleetScaleRow>, resctrl::ResctrlError> {
    report::section("Fleet scale: cluster cache policies at increasing tenant counts");
    let mut rows = Vec::new();
    // Policies run serially: run_fleet_with fans its hosts over the worker
    // pool internally, so the parallelism budget is already spent.
    for &tenants in tenant_counts {
        let cfg = FleetConfig::new(tenants, fast);
        for policy in FleetPolicy::ALL {
            let r = run_fleet_with(policy, &cfg, frames)?;
            rows.push(FleetScaleRow {
                policy: r.policy,
                tenants,
                requests: r.total_requests(),
                instructions: r.total_instructions(),
                miss_rate: r.miss_rate(),
                jain: r.jain_fairness(),
                mean_cos: r.mean_cos_used(),
            });
        }
    }
    report::table(
        &[
            "tenants", "policy", "requests", "Mins", "miss%", "jain", "cos/host",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.tenants.to_string(),
                    r.policy.to_string(),
                    r.requests.to_string(),
                    format!("{:.1}", r.instructions as f64 / 1e6),
                    format!("{:.2}", r.miss_rate * 100.0),
                    format!("{:.4}", r.jain),
                    format!("{:.2}", r.mean_cos),
                ]
            })
            .collect::<Vec<_>>(),
    );
    Ok(rows)
}
