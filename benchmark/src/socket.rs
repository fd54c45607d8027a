//! `socket_mixed` and `socket_services`: one Xeon-E5 socket under static
//! CAT, then under dCat, through `dcat_bench::scenario::run_scenario`.
//!
//! `socket_mixed` is the paper's Figure-15 tenant mix (MLR-8MB, MLOAD-60MB,
//! five lookbusy): four references in five stop in L1/L2, so the
//! hierarchy's hit path and the engine's slice loop do the work.
//! `socket_services` runs the three service models at the paper's data
//! sizes next to MLOAD and a phase-cycling tenant that starts and stops:
//! most references reach the LLC and miss, footprints run to hundreds of
//! MB, and the page mapper and the evict path dominate instead.

use std::sync::{Arc, Mutex};

use dcat::{DcatConfig, DcatController, DomainReport, StaticCatPolicy};
use dcat_bench::report::capture_obs;
use dcat_bench::scenario::{run_scenario, PolicyKind, RunResult, ScheduleItem, VmPlan};
use dcat_obs::Snapshot;
use host::{EngineConfig, VmEpochStats, VmSpec};
use smallrng::split_seed;
use workloads::phased::Phase;
use workloads::{
    ElasticsearchModel, Lookbusy, Mload, Mlr, PhasedStream, PostgresModel, RedisModel,
};

use crate::harness::{timed, PartOutcome};
use crate::hostloop::{run_host, HostRun, HostSpec, Policy};
use crate::meters::Capture;
use crate::span::Trace;
use crate::stats::{geomean, percentile, Fnv};

const MB: u64 = 1024 * 1024;

/// References drawn from every stream at set-up to fingerprint the inputs.
const FINGERPRINT_REFS: usize = 100_000;

/// The two policies every socket workload runs, in part order.
pub const PARTS: [&str; 2] = ["static-cat", "dcat"];

/// Which tenant mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mixed,
    Services,
}

/// One socket workload's generated inputs and first outputs.
pub struct Socket {
    pub kind: Kind,
    seed: u64,
    pub epochs: u64,
    cycles_per_epoch: u64,
    /// FNV-1a over the first references of every tenant's stream.
    pub input_digest: u64,
    /// First result per part, kept for the simulated metrics.
    first: [Option<RunResult>; 2],
    /// Metrics snapshot of the first dCat run.
    pub snapshot: Option<Snapshot>,
}

/// FNV-1a over what the ISSUE names: per epoch, per VM — instructions,
/// cycles, l1_ref, llc_ref, llc_miss, ways, class.
fn sim_digest(epochs: &[Vec<VmEpochStats>], reports: &[Vec<DomainReport>]) -> u64 {
    let mut h = Fnv::new();
    for (stats, reports) in epochs.iter().zip(reports) {
        for (s, r) in stats.iter().zip(reports) {
            for v in [s.instructions, s.cycles, s.l1_ref, s.llc_ref, s.llc_miss] {
                h.word(v);
            }
            h.word(u64::from(s.ways));
            h.text(&r.class.to_string());
        }
    }
    h.finish()
}

/// Validates a frame stream and its shape.
pub fn check_frames(text: &str, segments: usize, frames_each: usize) -> Result<(), String> {
    let segs = dcat_obs::frames::parse_stream(text).map_err(|e| format!("frame stream: {e}"))?;
    if segs.len() != segments || segs.iter().any(|s| s.frames.len() != frames_each) {
        return Err(format!(
            "frame stream: expected {segments} segments of {frames_each} frames"
        ));
    }
    Ok(())
}

impl Socket {
    /// Generates the inputs for `seed`. The seed moves every stream's
    /// random sequence and the frame placement, never the sizes.
    pub fn new(kind: Kind, seed: u64, tiny: bool) -> Self {
        let (epochs, cycles_per_epoch) = if tiny { (6, 150_000) } else { (24, 1_500_000) };
        let mut socket = Socket {
            kind,
            seed,
            epochs,
            cycles_per_epoch,
            input_digest: 0,
            first: [None, None],
            snapshot: None,
        };
        let mut h = Fnv::new();
        let mut batch = Vec::new();
        for plan in socket.plans() {
            let mut stream = (plan.factory)(0);
            stream.next_batch(&mut batch, FINGERPRINT_REFS);
            h.text(&plan.name);
            for r in &batch {
                h.word(r.vaddr.0 << 2 | u64::from(r.ends_request) << 1 | r.kind as u64);
            }
        }
        socket.input_digest = h.finish();
        socket
    }

    fn stream_seed(&self, stream: u64) -> u64 {
        split_seed(self.seed, stream)
    }

    /// The tenants. Reserved ways add up to the socket's 20.
    pub fn plans(&self) -> Vec<VmPlan> {
        let lookbusy = |name: String| VmPlan::always(name, 2, |_| Box::new(Lookbusy::new()));
        match self.kind {
            Kind::Mixed => {
                let mlr = self.stream_seed(1);
                let mut plans = vec![
                    VmPlan::always("mlr-8mb", 3, move |restart| {
                        Box::new(Mlr::new(8 * MB, mlr + restart))
                    }),
                    VmPlan::always("mload-60mb", 3, |_| Box::new(Mload::new(60 * MB))),
                ];
                plans.extend((0..5).map(|i| lookbusy(format!("lookbusy-{i}"))));
                plans
            }
            Kind::Services => {
                let (redis, postgres, es, phased) = (
                    self.stream_seed(1),
                    self.stream_seed(2),
                    self.stream_seed(3),
                    self.stream_seed(4),
                );
                // The phased tenant arrives late and leaves early, so
                // reclaim, flush and unmap all run.
                let window = ScheduleItem::window(2, self.epochs * 2 / 3);
                // dCat grows a partition into adjacent free ways only, so
                // the tenants that will give ways up (lookbusy, the phased
                // tenant once it leaves) sit between the services.
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

    pub fn engine_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig::xeon_e5_v4();
        cfg.cycles_per_epoch = self.cycles_per_epoch;
        cfg.seed = self.stream_seed(0);
        cfg
    }

    fn policy(part: usize) -> PolicyKind {
        match part {
            0 => PolicyKind::StaticCat,
            _ => PolicyKind::Dcat(DcatConfig::default()),
        }
    }

    /// VM-epochs one part attempts.
    pub fn part_intervals(&self) -> u64 {
        self.epochs * self.plans().len() as u64
    }

    /// One `run_scenario` under part `part`'s policy, timed, then checked.
    pub fn run_part(&mut self, part: usize) -> PartOutcome {
        let plans = self.plans();
        let cfg = self.engine_config();
        let epochs = self.epochs;
        let ((result, _text, snapshot), wall_s, cpu_s) =
            timed(|| capture_obs(|| run_scenario(Self::policy(part), cfg, &plans, epochs)));

        let mut problems = Vec::new();
        if let Err(e) = check_frames(&result.frames, 1, epochs as usize) {
            problems.push(format!("{}: {e}", PARTS[part]));
        }
        if let Err(e) = dcat_obs::check_prometheus(&snapshot.to_prometheus()) {
            problems.push(format!("{}: metrics snapshot: {e}", PARTS[part]));
        }
        let intervals = self.part_intervals();
        let outcome = PartOutcome {
            intervals,
            failed: if problems.is_empty() { 0 } else { intervals },
            wall_s,
            cpu_s,
            digest: sim_digest(&result.epochs, &result.reports),
            l1_refs: result.epochs.iter().flatten().map(|s| s.l1_ref).sum(),
            problems,
        };
        if self.first[part].is_none() {
            self.first[part] = Some(result);
            if part == 1 {
                self.snapshot = Some(snapshot);
            }
        }
        outcome
    }

    /// The first static and dCat results; both parts must have run.
    fn pair(&self) -> (&RunResult, &RunResult) {
        match &self.first {
            [Some(s), Some(d)] => (s, d),
            _ => panic!("both policies run before simulated metrics are read"),
        }
    }

    /// The frame stream of the first dCat run.
    pub fn dcat_frames(&self) -> &str {
        &self.pair().1.frames
    }

    /// One line per tenant: the class initial and ways dCat reported each
    /// epoch of its first run (`K3 U4 R5 ...`).
    pub fn dcat_decisions(&self) -> Vec<String> {
        let dcat = self.pair().1;
        self.plans()
            .iter()
            .enumerate()
            .map(|(vm, plan)| {
                let series: Vec<String> = dcat
                    .reports
                    .iter()
                    .map(|e| format!("{:.1}{}", e[vm].class.to_string(), e[vm].ways))
                    .collect();
                format!("{:14} {}", plan.name, series.join(" "))
            })
            .collect()
    }

    /// `(guarantee_min_ratio, benefit_geomean_ratio)`: over the last
    /// quarter of the epochs, per tenant, dCat over static CAT — the
    /// minimum of the IPC ratios, and the geometric mean of the
    /// throughput ratios (requests where the tenant serves requests, else
    /// IPC). Tenants idle in that window are left out.
    pub fn promise(&self) -> (f64, f64) {
        let (stat, dcat) = self.pair();
        let steady = (self.epochs / 4).max(1) as usize;
        let tail_requests = |r: &RunResult, vm: usize| -> u64 {
            r.epochs[r.epochs.len() - steady..]
                .iter()
                .map(|e| e[vm].requests_completed)
                .sum()
        };
        let mut ipc_ratios = Vec::new();
        let mut gain_ratios = Vec::new();
        for vm in 0..self.plans().len() {
            let (s_ipc, d_ipc) = (stat.steady_ipc(vm, steady), dcat.steady_ipc(vm, steady));
            if s_ipc <= 0.0 {
                continue;
            }
            ipc_ratios.push(d_ipc / s_ipc);
            let (s_req, d_req) = (tail_requests(stat, vm), tail_requests(dcat, vm));
            gain_ratios.push(if s_req > 0 {
                d_req as f64 / s_req as f64
            } else {
                d_ipc / s_ipc
            });
        }
        let guarantee = ipc_ratios.iter().copied().fold(f64::INFINITY, f64::min);
        (guarantee, geomean(&gain_ratios))
    }

    /// Geometric mean, over the tenants that serve requests, of p99
    /// request cycles under dCat over static CAT; 0 where none do.
    pub fn p99_latency_ratio(&self) -> f64 {
        let (stat, dcat) = self.pair();
        let ratios: Vec<f64> = stat
            .request_latencies
            .iter()
            .zip(&dcat.request_latencies)
            .filter(|(s, d)| !s.is_empty() && !d.is_empty())
            .map(|(s, d)| percentile(d, 99.0) / percentile(s, 99.0))
            .collect();
        geomean(&ratios)
    }

    /// The benchmark's own epoch loop ([`run_host`]) under part `part`'s
    /// policy, following the same schedule `run_scenario` follows.
    pub fn traced_part(
        &self,
        part: usize,
        trace: &mut Trace,
        capture: Option<Arc<Mutex<Capture>>>,
    ) -> (HostRun, u64) {
        let plans = self.plans();
        let vms = plans
            .iter()
            .enumerate()
            .map(|(i, p)| {
                VmSpec::new(
                    p.name.clone(),
                    vec![2 * i as u32, 2 * i as u32 + 1],
                    p.reserved_ways,
                )
            })
            .collect();
        let spec = HostSpec {
            engine: self.engine_config(),
            vms,
            epochs: self.epochs,
            frame_source: format!("scenario:{}", PARTS[part]),
            policy_label: PARTS[part],
            count_filler: false,
            capture,
            build_policy: Box::new(move |handles, cat| {
                Ok(match part {
                    0 => Policy::Other(Box::new(StaticCatPolicy::new(handles, cat)?)),
                    _ => Policy::Dcat(Box::new(DcatController::new(
                        DcatConfig::default(),
                        handles,
                        cat,
                    )?)),
                })
            }),
        };
        let mut restarts = vec![0u64; plans.len()];
        let run = run_host(spec, trace, |epoch, sched| {
            for (i, plan) in plans.iter().enumerate() {
                for item in &plan.schedule {
                    if item.start == epoch {
                        sched.start(i, (plan.factory)(restarts[i]));
                        restarts[i] += 1;
                    }
                    if item.stop == Some(epoch) {
                        sched.stop(i);
                    }
                }
            }
        });
        let digest = sim_digest(&run.epochs, &run.reports);
        (run, digest)
    }
}
