//! The paper's promise, read as numbers a test can hold: a tenant under
//! dCat does no worse than under static CAT at its reserved ways
//! (PAPER.md §1, steps 1 and 5), and better where ways are spare.
//!
//! Three setups, each under static CAT and dCat, at three seeds:
//!
//! * `services` — the system benchmark's `socket_services` socket: Redis,
//!   PostgreSQL and Elasticsearch at paper sizes, a lookbusy donor and a
//!   phase-cycling tenant seated between them, and MLOAD-60MB;
//! * `mixed` — the Fig. 15 socket (MLR-8MB, MLOAD-60MB, five lookbusy),
//!   as the benchmark's `socket_mixed` seeds it;
//! * `fleet` — the diurnal fleet at full LLC fidelity, under static CAT
//!   and every fleet policy.
//!
//! Per socket tenant: dCat's steady-window IPC over static CAT's. Per
//! setup: the minimum of those (the guarantee) and the geometric mean of
//! the throughput ratios (requests where the tenant serves them, else
//! IPC; the benefit) — the system benchmark's `guarantee_min_ratio` and
//! `benefit_geomean_ratio`. A fleet tenant's ratio is over its lifetime
//! instructions under dCat max-fairness, and each fleet policy adds its
//! Jain fairness, LLC miss rate and LLC hit share (LLC hits over all
//! references). `crates/bench/tests/promise_floor.rs` holds every value
//! to `tests/golden/promise_floor.txt`.

use dcat::DcatConfig;
use host::EngineConfig;
use llc_sim::SimFidelity;
use smallrng::split_seed;
use workloads::phased::Phase;
use workloads::{
    ElasticsearchModel, Lookbusy, Mload, Mlr, PhasedStream, PostgresModel, RedisModel,
};

use crate::experiments::common::MB;
use crate::fleet::{run_fleet, run_fleet_static, FleetConfig, FleetPolicy, FleetResult};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, RunResult, ScheduleItem, VmPlan};
use crate::Runner;

/// The seeds every setup runs at: the system benchmark's default and two
/// others.
pub const SEEDS: [u64; 3] = [20_180_423, 7, 31_337];

/// Socket epochs and cycles per epoch: the system benchmark's full run.
const SOCKET_EPOCHS: u64 = 24;
const SOCKET_CYCLES: u64 = 1_500_000;

/// One number the floor holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// `setup/seed/name`, e.g. `services/7/min` or
    /// `fleet/7/lfoc.jain`.
    pub key: String,
    /// The value.
    pub value: f64,
}

impl Reading {
    /// Whether a smaller value is the better one (a miss rate); every
    /// other reading is better larger.
    pub fn lower_is_better(&self) -> bool {
        self.key.ends_with(".miss_rate")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Socket {
    Services,
    Mixed,
}

const SOCKETS: [Socket; 2] = [Socket::Services, Socket::Mixed];

impl Socket {
    fn label(self) -> &'static str {
        match self {
            Socket::Services => "services",
            Socket::Mixed => "mixed",
        }
    }

    /// The tenants, as the system benchmark seats and seeds them.
    /// Reserved ways add up to the socket's 20.
    fn plans(self, seed: u64) -> Vec<VmPlan> {
        let stream = |n| split_seed(seed, n);
        let lookbusy = |name: String| VmPlan::always(name, 2, |_| Box::new(Lookbusy::new()));
        match self {
            Socket::Mixed => {
                let mlr = stream(1);
                let mut plans = vec![
                    VmPlan::always("mlr-8mb", 3, move |r| Box::new(Mlr::new(8 * MB, mlr + r))),
                    VmPlan::always("mload-60mb", 3, |_| Box::new(Mload::new(60 * MB))),
                ];
                plans.extend((0..5).map(|i| lookbusy(format!("lookbusy-{i}"))));
                plans
            }
            Socket::Services => {
                let (redis, postgres, es, phased) = (stream(1), stream(2), stream(3), stream(4));
                // dCat grows only into adjacent free ways, so the tenants
                // that give ways up sit between the services.
                let window = ScheduleItem::window(2, SOCKET_EPOCHS * 2 / 3);
                vec![
                    VmPlan::always("redis", 4, move |r| {
                        Box::new(RedisModel::paper_default(redis + r))
                    }),
                    lookbusy("lookbusy".to_string()),
                    VmPlan::always("postgres", 4, move |r| {
                        Box::new(PostgresModel::paper_default(postgres + r))
                    }),
                    VmPlan::scheduled("phased", 3, vec![window], move |r| {
                        Box::new(PhasedStream::cycling(vec![
                            Phase {
                                stream: Box::new(Mlr::new(6 * MB, phased + r)),
                                accesses: 400_000,
                            },
                            Phase {
                                stream: Box::new(Mload::new(30 * MB)),
                                accesses: 600_000,
                            },
                        ]))
                    }),
                    VmPlan::always("elasticsearch", 4, move |r| {
                        Box::new(ElasticsearchModel::paper_default(es + r))
                    }),
                    VmPlan::always("mload-60mb", 3, |_| Box::new(Mload::new(60 * MB))),
                ]
            }
        }
    }

    fn run(self, seed: u64, policy: PolicyKind) -> RunResult {
        let mut cfg = EngineConfig::xeon_e5_v4();
        cfg.cycles_per_epoch = SOCKET_CYCLES;
        cfg.seed = split_seed(seed, 0);
        cfg.llc_fidelity = SimFidelity::Full;
        run_scenario(policy, cfg, &self.plans(seed), SOCKET_EPOCHS)
    }
}

/// The diurnal fleet the system benchmark's `fleet_diurnal` runs, at full
/// LLC fidelity.
fn fleet_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::new(240, true);
    cfg.epochs = 16;
    cfg.cycles_per_epoch = 120_000;
    cfg.seed = seed;
    cfg.llc_fidelity = SimFidelity::Full;
    cfg
}

/// One simulation of the sweep.
#[derive(Debug, Clone, Copy)]
enum Job {
    Socket(Socket, u64, bool),
    Fleet(u64, Option<FleetPolicy>),
}

enum Ran {
    Socket(RunResult),
    Fleet(FleetResult),
}

fn jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for seed in SEEDS {
        for socket in SOCKETS {
            jobs.push(Job::Socket(socket, seed, false));
            jobs.push(Job::Socket(socket, seed, true));
        }
        jobs.push(Job::Fleet(seed, None));
        jobs.extend(FleetPolicy::ALL.map(|p| Job::Fleet(seed, Some(p))));
    }
    jobs
}

fn run_job(job: Job) -> Ran {
    match job {
        Job::Socket(socket, seed, dcat) => Ran::Socket(socket.run(
            seed,
            if dcat {
                PolicyKind::Dcat(DcatConfig::default())
            } else {
                PolicyKind::StaticCat
            },
        )),
        Job::Fleet(seed, policy) => {
            let cfg = fleet_config(seed);
            let ran = match policy {
                None => run_fleet_static(&cfg),
                Some(p) => run_fleet(p, &cfg),
            };
            Ran::Fleet(ran.unwrap_or_else(|e| panic!("promise fleet at seed {seed}: {e}")))
        }
    }
}

/// Geometric mean; 1 for an empty slice (no tenant to compare).
fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        1.0
    } else {
        report::geo_mean(values)
    }
}

/// A socket's readings: per active tenant dCat's steady IPC over static
/// CAT's, then `min` of those and `geomean` of the throughput ratios.
fn socket_readings(socket: Socket, seed: u64, stat: &RunResult, dcat: &RunResult) -> Vec<Reading> {
    let steady = (SOCKET_EPOCHS / 4) as usize;
    let tail_requests = |r: &RunResult, vm: usize| -> u64 {
        r.epochs[r.epochs.len() - steady..]
            .iter()
            .map(|e| e[vm].requests_completed)
            .sum()
    };
    let key = |name: &str| format!("{}/{seed}/{name}", socket.label());
    let mut out = Vec::new();
    let mut ipc_ratios = Vec::new();
    let mut gains = Vec::new();
    for (vm, plan) in socket.plans(seed).iter().enumerate() {
        let (s_ipc, d_ipc) = (stat.steady_ipc(vm, steady), dcat.steady_ipc(vm, steady));
        if s_ipc <= 0.0 {
            continue;
        }
        let ratio = d_ipc / s_ipc;
        ipc_ratios.push(ratio);
        let (s_req, d_req) = (tail_requests(stat, vm), tail_requests(dcat, vm));
        gains.push(if s_req > 0 {
            d_req as f64 / s_req as f64
        } else {
            ratio
        });
        out.push(Reading {
            key: key(&plan.name),
            value: ratio,
        });
    }
    let min = ipc_ratios.iter().copied().fold(f64::INFINITY, f64::min);
    out.push(Reading {
        key: key("min"),
        value: min,
    });
    out.push(Reading {
        key: key("geomean"),
        value: geomean(&gains),
    });
    out
}

/// A fleet's readings: `min` and `geomean` of dCat max-fairness over
/// static CAT per tenant that ran, then each policy's fairness, miss rate
/// and LLC hit share.
fn fleet_readings(seed: u64, stat: &FleetResult, policies: &[FleetResult]) -> Vec<Reading> {
    let key = |name: &str| format!("fleet/{seed}/{name}");
    let dcat = &policies[0];
    let mut ins_ratios = Vec::new();
    let mut gains = Vec::new();
    for (t, &s_ins) in stat.tenant_instructions.iter().enumerate() {
        if s_ins == 0 {
            continue;
        }
        let ratio = dcat.tenant_instructions[t] as f64 / s_ins as f64;
        ins_ratios.push(ratio);
        let s_req = stat.tenant_requests[t];
        gains.push(if s_req > 0 {
            dcat.tenant_requests[t] as f64 / s_req as f64
        } else {
            ratio
        });
    }
    let mut out = vec![
        Reading {
            key: key("min"),
            value: ins_ratios.iter().copied().fold(f64::INFINITY, f64::min),
        },
        Reading {
            key: key("geomean"),
            value: geomean(&gains),
        },
    ];
    for r in std::iter::once(stat).chain(policies) {
        for (name, value) in [
            ("jain", r.jain_fairness()),
            ("miss_rate", r.miss_rate()),
            ("llc_hit_share", r.llc_hit_share()),
        ] {
            out.push(Reading {
                key: key(&format!("{}.{name}", r.policy)),
                value,
            });
        }
    }
    out
}

/// Runs every setup at every seed (in parallel up to `--jobs`) and
/// returns the readings per seed: `services`, `mixed`, then `fleet`.
pub fn measure() -> Vec<Reading> {
    let mut ran = Runner::from_env()
        .map(jobs(), |_, job| run_job(job))
        .into_iter();
    let mut out = Vec::new();
    for seed in SEEDS {
        for socket in SOCKETS {
            let [stat, dcat] = [(); 2].map(|()| match ran.next() {
                Some(Ran::Socket(r)) => r,
                _ => unreachable!("jobs() runs static CAT, then dCat, per socket"),
            });
            out.extend(socket_readings(socket, seed, &stat, &dcat));
        }
        let fleets: Vec<FleetResult> = (0..=FleetPolicy::ALL.len())
            .map(|_| match ran.next() {
                Some(Ran::Fleet(r)) => r,
                _ => unreachable!("jobs() runs static CAT, then every fleet policy"),
            })
            .collect();
        out.extend(fleet_readings(seed, &fleets[0], &fleets[1..]));
    }
    out
}

/// The floor file's text: a comment, then `key value` per reading with
/// the value in `push_f64`'s shortest round-trip form.
pub fn render_floor(readings: &[Reading]) -> String {
    let mut out = String::from(
        "# dcat-bench promise: dCat over static CAT (and the fleet policies' own figures).\n\
         # A value may move only the better way, and is then rewritten here.\n",
    );
    for r in readings {
        out.push_str(&r.key);
        out.push(' ');
        dcat_obs::json::push_f64(&mut out, r.value);
        out.push('\n');
    }
    out
}

/// Prints every reading, one row per setup and name, one column per seed.
pub fn run() {
    report::section("Promise: dCat over static CAT per tenant, steady window, at three seeds");
    let readings = measure();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for r in &readings {
        let (setup, rest) = r.key.split_once('/').unwrap_or((&r.key, ""));
        let name = format!("{setup} {}", rest.split_once('/').map_or(rest, |(_, n)| n));
        let at = match names.iter().position(|n| *n == name) {
            Some(at) => at,
            None => {
                names.push(name.clone());
                rows.push(vec![name; 1]);
                rows.len() - 1
            }
        };
        rows[at].push(format!("{:.4}", r.value));
    }
    let seeds: Vec<String> = SEEDS.iter().map(u64::to_string).collect();
    let mut header = vec!["reading"];
    header.extend(seeds.iter().map(String::as_str));
    report::table(&header, &rows);
    let guarantee = readings
        .iter()
        .filter(|r| r.key.ends_with("/min"))
        .map(|r| r.value)
        .fold(f64::INFINITY, f64::min);
    report::say(format!(
        "lowest guarantee (min over setups and seeds): {guarantee:.4}"
    ));
}
