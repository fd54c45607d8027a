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

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::fleet::{run_fleet_with, FleetConfig, FleetPolicy, FleetSink};
use crate::{report, Cli};

/// One policy × fleet-size cell of the comparison.
#[derive(Debug, Clone)]
pub(crate) struct FleetScaleRow {
    /// Policy label.
    pub(crate) policy: &'static str,
    /// Fleet size.
    pub(crate) tenants: u32,
    /// Total requests completed.
    pub(crate) requests: u64,
    /// Total instructions retired.
    pub(crate) instructions: u64,
    /// Run-wide LLC miss rate.
    pub(crate) miss_rate: f64,
    /// Jain fairness over per-tenant lifetime instructions.
    pub(crate) jain: f64,
    /// Mean distinct COS per host-epoch.
    pub(crate) mean_cos: f64,
}

/// The standard ladder: a small smoke in fast mode, the paper-style
/// 100/1 000/10 000 ladder otherwise.
pub(crate) fn ladder(fast: bool) -> &'static [u32] {
    if fast {
        &[48]
    } else {
        &[100, 1_000, 10_000]
    }
}

/// Runs the standard [`ladder`], or one fleet size with `--tenants N`.
/// `--frames-out PATH` streams every run's `dcat-frames/v2` segments to
/// PATH as the hosts finish — fleet size by fleet size, policy by policy
/// — for `dcat-top --replay`; memory stays flat however large the fleet.
/// Large fleets want `--sample-sets 8 --jobs <cores>`.
///
/// # Errors
///
/// Propagates the [`resctrl::ResctrlError`] of the first fleet run that
/// fails, so the caller classifies it at the exit boundary.
///
/// # Panics
///
/// Panics if the frames file cannot be written.
pub(crate) fn run(cli: &Cli) -> Result<Vec<FleetScaleRow>, resctrl::ResctrlError> {
    let counts = cli
        .tenants
        .map_or_else(|| ladder(cli.fast).to_vec(), |n| vec![n]);
    let Some(path) = cli.frames_out.as_deref() else {
        return run_at(&counts, cli.fast, &mut |_: &str| {});
    };
    let file = File::create(path).unwrap_or_else(|e| export_failed(path, e));
    // The first write error is kept and the rest of the stream dropped.
    let mut out = Ok(BufWriter::new(file));
    let r = run_at(&counts, cli.fast, &mut |segment: &str| {
        if let Ok(w) = &mut out {
            if let Err(e) = w.write_all(segment.as_bytes()) {
                out = Err(e);
            }
        }
    });
    if let Err(e) = out.and_then(|mut w| w.flush()) {
        export_failed(path, e);
    }
    r
}

fn export_failed(path: &Path, e: std::io::Error) -> ! {
    panic!("frames export to {}: {e}", path.display());
}

/// Runs the comparison at explicit fleet sizes, handing every run's
/// frame stream to `frames`: fleet size by fleet size, policy by policy,
/// in report order.
///
/// # Errors
///
/// Propagates the [`resctrl::ResctrlError`] of the first fleet run that
/// fails.
pub(crate) fn run_at(
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
