//! Tables 4–6: Redis, PostgreSQL, and Elasticsearch under the three
//! policies.
//!
//! One service VM (4-way baseline) against two MLOAD-60MB and two lookbusy
//! VMs, matching the paper's setup. Throughput is requests per simulated
//! second; latency is the per-request mean (Tables 4–5) plus the 99th
//! percentile (Table 6). Paper results: Redis +57.6% over shared / +26.6%
//! over static; PostgreSQL +5.7% TPS over shared and −10.7% latency vs
//! static; Elasticsearch ~+10% mean and +11.6% p99 over both.

use workloads::{AccessStream, ElasticsearchModel, Lookbusy, Mload, PostgresModel, RedisModel};

use crate::experiments::common::{paper_dcat, paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, VmPlan};

/// Which service a run models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// Table 4: Redis GETs (Memtier).
    Redis,
    /// Table 5: PostgreSQL SELECTs (pgbench).
    Postgres,
    /// Table 6: Elasticsearch reads (YCSB workload C).
    Elasticsearch,
}

impl Service {
    fn label(self) -> &'static str {
        match self {
            Service::Redis => "Redis (Table 4)",
            Service::Postgres => "PostgreSQL (Table 5)",
            Service::Elasticsearch => "Elasticsearch (Table 6)",
        }
    }

    fn stream(self, fast: bool, seed: u64) -> Box<dyn AccessStream> {
        match self {
            // Fast mode shrinks the datasets so tests stay quick; full
            // mode uses the paper's sizes.
            Service::Redis => {
                if fast {
                    Box::new(RedisModel::new(100_000, 128, 0.99, seed))
                } else {
                    Box::new(RedisModel::paper_default(seed))
                }
            }
            Service::Postgres => {
                if fast {
                    Box::new(PostgresModel::new(500_000, seed))
                } else {
                    Box::new(PostgresModel::paper_default(seed))
                }
            }
            Service::Elasticsearch => {
                if fast {
                    Box::new(ElasticsearchModel::new(20_000, 1024, seed))
                } else {
                    Box::new(ElasticsearchModel::paper_default(seed))
                }
            }
        }
    }
}

/// Measurements for one (service, policy) pair.
#[derive(Debug, Clone, Copy)]
pub struct ServiceRun {
    /// Requests completed per million simulated cycles.
    pub throughput: f64,
    /// Mean request *service* latency in cycles.
    pub mean_latency: f64,
    /// 99th-percentile service latency in cycles.
    pub p99_latency: f64,
    /// Mean client-observed latency under load (see [`queueing`]).
    pub queued_mean: f64,
    /// 99th-percentile client-observed latency under load.
    pub queued_p99: f64,
}

/// Client-observed latency under a fixed offered load.
///
/// The paper measures latency from the client side while the server is
/// saturated by Memtier/pgbench/YCSB; that latency includes queueing,
/// which amplifies throughput differences into tail-latency differences.
/// The simulator produces pure service times, so the client view is
/// derived with an M/M/1 sojourn model at a fixed offered load: the same
/// arrival rate for every policy (70% of the shared-cache policy's
/// capacity), with `W = 1 / (mu - lambda)` and an exponential tail
/// (`p99 = W * ln 100`).
pub mod queueing {
    /// Fraction of the shared policy's capacity used as the offered load.
    pub const OFFERED_LOAD: f64 = 0.7;

    /// Mean sojourn time for service rate `mu` and arrival rate `lambda`,
    /// both in requests per cycle. Returns `f64::INFINITY` when the
    /// system is overloaded.
    pub fn mean_sojourn(mu: f64, lambda: f64) -> f64 {
        if mu <= lambda {
            f64::INFINITY
        } else {
            1.0 / (mu - lambda)
        }
    }

    /// 99th percentile of the (exponential) M/M/1 sojourn distribution.
    pub fn p99_sojourn(mu: f64, lambda: f64) -> f64 {
        mean_sojourn(mu, lambda) * 100f64.ln()
    }
}

/// One service's three policy runs.
#[derive(Debug, Clone)]
pub struct ServiceTable {
    /// Which service.
    pub service: Service,
    /// Shared-cache measurements.
    pub shared: ServiceRun,
    /// Static-CAT measurements.
    pub static_cat: ServiceRun,
    /// dCat measurements.
    pub dcat: ServiceRun,
}

fn measure(service: Service, policy: PolicyKind, fast: bool) -> ServiceRun {
    let epochs = if fast { 12 } else { 36 };
    let cfg = paper_engine(fast);
    let plans = vec![
        VmPlan::always("service", 4, move |s| service.stream(fast, 700 + s)),
        VmPlan::always("mload-1", 4, |_| Box::new(Mload::new(60 * MB))),
        VmPlan::always("mload-2", 4, |_| Box::new(Mload::new(60 * MB))),
        VmPlan::always("lookbusy-1", 4, |_| Box::new(Lookbusy::new())),
        VmPlan::always("lookbusy-2", 4, |_| Box::new(Lookbusy::new())),
    ];
    let r = run_scenario(policy, cfg, &plans, epochs);
    // Steady state: drop the first half (warm-up + discovery).
    let half = (epochs / 2) as usize;
    let requests: u64 = r.epochs[half..]
        .iter()
        .map(|e| e[0].requests_completed)
        .sum();
    let cycles: u64 = r.epochs[half..].iter().map(|e| e[0].cycles.max(1)).sum();
    // The latency samples accumulate over the whole run; take the tail
    // half as steady state.
    let lats = &r.request_latencies[0];
    let steady_lats = &lats[lats.len() / 2..];
    ServiceRun {
        throughput: requests as f64 / (cycles as f64 / 1.0e6),
        mean_latency: report::mean(steady_lats),
        p99_latency: if steady_lats.is_empty() {
            0.0
        } else {
            report::percentile(steady_lats, 99.0)
        },
        queued_mean: 0.0,
        queued_p99: 0.0,
    }
}

/// Fills in the client-observed latencies at a fixed offered load (70% of
/// the shared policy's capacity).
fn apply_queueing(table: &mut ServiceTable) {
    let lambda = queueing::OFFERED_LOAD * table.shared.throughput / 1.0e6;
    for run in [&mut table.shared, &mut table.static_cat, &mut table.dcat] {
        let mu = run.throughput / 1.0e6;
        run.queued_mean = queueing::mean_sojourn(mu, lambda);
        run.queued_p99 = queueing::p99_sojourn(mu, lambda);
    }
}

/// Runs one service under all three policies and prints its table.
pub fn run_service(service: Service, fast: bool) -> ServiceTable {
    report::section(service.label());
    let policies = vec![
        PolicyKind::Shared,
        PolicyKind::StaticCat,
        PolicyKind::Dcat(paper_dcat()),
    ];
    let runs = crate::Runner::from_env().map(policies, |_, policy| measure(service, policy, fast));
    let mut t = ServiceTable {
        service,
        shared: runs[0],
        static_cat: runs[1],
        dcat: runs[2],
    };
    apply_queueing(&mut t);
    let rows: Vec<Vec<String>> = [
        ("shared", t.shared),
        ("static CAT", t.static_cat),
        ("dCat", t.dcat),
    ]
    .iter()
    .map(|(name, r)| {
        vec![
            name.to_string(),
            format!("{:.1}", r.throughput),
            format!("{:.0}", r.mean_latency),
            format!("{:.0}", r.p99_latency),
            format!("{:.0}", r.queued_mean),
            format!("{:.0}", r.queued_p99),
        ]
    })
    .collect();
    report::table(
        &[
            "policy",
            "req / Mcycle",
            "svc mean (cyc)",
            "svc p99 (cyc)",
            "client mean (cyc)",
            "client p99 (cyc)",
        ],
        &rows,
    );
    report::say(format!(
        "dCat throughput: {} vs shared, {} vs static; client p99: {} vs static",
        report::pct(t.dcat.throughput / t.shared.throughput - 1.0),
        report::pct(t.dcat.throughput / t.static_cat.throughput - 1.0),
        report::pct(t.dcat.queued_p99 / t.static_cat.queued_p99 - 1.0),
    ));
    t
}

/// Runs all three services.
pub fn run(fast: bool) -> Vec<ServiceTable> {
    let services = vec![Service::Redis, Service::Postgres, Service::Elasticsearch];
    crate::Runner::from_env().map(services, |_, service| run_service(service, fast))
}

/// Table 5: the PostgreSQL table, then its three-instance variant.
pub fn run_tab05(fast: bool) {
    run_service(Service::Postgres, fast);
    run_postgres_multi(fast);
}

/// The paper's multi-instance variant: three PostgreSQL VMs next to the
/// same adversaries ("we observed the similar improvement with dCat").
/// Returns per-instance dCat/static throughput ratios.
pub fn run_postgres_multi(fast: bool) -> Vec<f64> {
    report::section("Table 5 (variant): three PostgreSQL instances");
    let epochs = if fast { 12 } else { 30 };
    let cfg = paper_engine(fast);
    let build = || {
        vec![
            VmPlan::always("pg-1", 3, move |s| Service::Postgres.stream(fast, 810 + s)),
            VmPlan::always("pg-2", 3, move |s| Service::Postgres.stream(fast, 820 + s)),
            VmPlan::always("pg-3", 3, move |s| Service::Postgres.stream(fast, 830 + s)),
            VmPlan::always("mload", 4, |_| Box::new(Mload::new(60 * MB))),
            VmPlan::always("lookbusy", 3, |_| Box::new(Lookbusy::new())),
        ]
    };
    let policies = vec![PolicyKind::StaticCat, PolicyKind::Dcat(paper_dcat())];
    let mut runs = crate::Runner::from_env().map(policies, |_, policy| {
        run_scenario(policy, cfg, &build(), epochs)
    });
    let dcat = runs.pop().expect("two runs");
    let stat = runs.pop().expect("two runs");
    let half = (epochs / 2) as usize;
    let throughput = |r: &crate::scenario::RunResult, vm: usize| {
        let requests: u64 = r.epochs[half..]
            .iter()
            .map(|e| e[vm].requests_completed)
            .sum();
        let cycles: u64 = r.epochs[half..].iter().map(|e| e[vm].cycles.max(1)).sum();
        requests as f64 / (cycles as f64 / 1.0e6)
    };
    let mut ratios = Vec::new();
    let mut rows = Vec::new();
    for vm in 0..3 {
        let ratio = throughput(&dcat, vm) / throughput(&stat, vm).max(1e-9);
        rows.push(vec![
            format!("pg-{}", vm + 1),
            format!("{:.1}", throughput(&stat, vm)),
            format!("{:.1}", throughput(&dcat, vm)),
            report::pct(ratio - 1.0),
        ]);
        ratios.push(ratio);
    }
    report::table(
        &[
            "instance",
            "static req/Mcyc",
            "dCat req/Mcyc",
            "dCat vs static",
        ],
        &rows,
    );
    ratios
}
