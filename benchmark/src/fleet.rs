//! `fleet_diurnal`: twenty small hosts of twelve single-core tenants on a
//! day-shaped load curve, through `dcat_bench::fleet::run_fleet` under
//! each of the four fleet policies. Many small engines at sampled LLC
//! fidelity with short epochs: what this workload pays is the fixed cost
//! per host-interval — a policy tick, a frame, a `Pool::map` hand-off —
//! that the socket workloads spread over millions of references.

use std::sync::{Arc, Mutex};

use dcat::{
    CachePolicy, DcatConfig, DcatController, LfocConfig, LfocPolicy, MemshareConfig,
    MemsharePolicy, StaticCatPolicy,
};
use dcat_bench::fleet::{run_fleet, FleetConfig, FleetPolicy, FleetResult, TenantSpec};
use host::{EngineConfig, VmSpec};
use llc_sim::{CacheGeometry, HierarchyConfig, SimFidelity};
use smallrng::split_seed;

use crate::harness::{timed, PartOutcome};
use crate::hostloop::{run_host, HostRun, HostSpec, Policy};
use crate::meters::Capture;
use crate::socket::check_frames;
use crate::span::Trace;
use crate::stats::{geomean, Fnv};

/// References drawn from every tenant's stream at set-up to fingerprint
/// the inputs.
const FINGERPRINT_REFS: usize = 2_000;

/// `dcat_bench::fleet` derives host `h`'s engine seed from this stream
/// offset (its `HOST_SEED_STREAM`).
const HOST_SEED_STREAM: u64 = 1 << 32;

/// Which policy governs the benchmark's own copy of host 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// One of `run_fleet`'s policies.
    Fleet(FleetPolicy),
    /// Static CAT at the reserved sizes: the reference the promise
    /// metrics divide by, which `run_fleet` does not offer.
    Static,
}

/// The fleet workload's generated inputs and first outputs.
pub struct Fleet {
    pub cfg: FleetConfig,
    pub tenants: Vec<TenantSpec>,
    pub input_digest: u64,
    first: [Option<FleetResult>; 4],
}

fn fleet_digest(r: &FleetResult) -> u64 {
    let mut h = Fnv::new();
    for row in &r.rows {
        for v in [
            row.epoch,
            u64::from(row.active),
            row.instructions,
            row.llc_ref,
            row.llc_miss,
            row.requests,
            row.cos_used_sum,
            u64::from(row.cos_used_max),
        ] {
            h.word(v);
        }
        for c in row.classes {
            h.word(c);
        }
    }
    h.word(tenant_totals_digest(
        &r.tenant_instructions,
        &r.tenant_requests,
    ));
    h.finish()
}

/// Digest of per-tenant lifetime `(instructions, requests)`: the part of
/// the fleet digest the traced copy of host 0 must reproduce.
pub fn tenant_totals_digest(instructions: &[u64], requests: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for (i, r) in instructions.iter().zip(requests) {
        h.word(*i);
        h.word(*r);
    }
    h.finish()
}

impl Fleet {
    /// Generates the fleet for `seed`: every tenant's service, lifetime,
    /// diurnal phase and stream derive from it.
    pub fn new(seed: u64, tiny: bool) -> Self {
        let mut cfg = FleetConfig::new(if tiny { 36 } else { 240 }, true);
        cfg.epochs = if tiny { 6 } else { 16 };
        cfg.cycles_per_epoch = if tiny { 40_000 } else { 120_000 };
        cfg.seed = seed;
        cfg.llc_fidelity = SimFidelity::Sampled { one_in: 8 };
        let tenants = TenantSpec::generate(&cfg);
        let mut h = Fnv::new();
        let mut batch = Vec::new();
        for t in &tenants {
            h.word(t.arrival_epoch);
            h.word(t.departure_epoch);
            h.text(t.service.label());
            t.stream().next_batch(&mut batch, FINGERPRINT_REFS);
            for r in &batch {
                h.word(r.vaddr.0 << 1 | u64::from(r.ends_request));
            }
        }
        Fleet {
            cfg,
            tenants,
            input_digest: h.finish(),
            first: [None, None, None, None],
        }
    }

    /// Tenant-epochs one part attempts.
    pub fn part_intervals(&self) -> u64 {
        u64::from(self.cfg.tenants) * self.cfg.epochs
    }

    /// One `run_fleet` under `FleetPolicy::ALL[part]`, timed, then checked.
    pub fn run_part(&mut self, part: usize) -> PartOutcome {
        let policy = FleetPolicy::ALL[part];
        let intervals = self.part_intervals();
        let (result, wall_s, cpu_s) = timed(|| run_fleet(policy, &self.cfg));
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                return PartOutcome {
                    intervals,
                    failed: intervals,
                    wall_s,
                    cpu_s,
                    problems: vec![format!("{}: run_fleet: {e}", policy.label())],
                    ..PartOutcome::default()
                }
            }
        };
        let mut problems = Vec::new();
        let hosts = self.cfg.hosts() as usize;
        if let Err(e) = check_frames(&result.frames, hosts, self.cfg.epochs as usize) {
            problems.push(format!("{}: {e}", policy.label()));
        }
        let outcome = PartOutcome {
            intervals,
            failed: if problems.is_empty() { 0 } else { intervals },
            wall_s,
            cpu_s,
            digest: fleet_digest(&result),
            l1_refs: 0,
            problems,
        };
        self.first[part].get_or_insert(result);
        outcome
    }

    /// First result under `FleetPolicy::ALL[part]`; the part must have run.
    pub fn result(&self, part: usize) -> &FleetResult {
        self.first[part]
            .as_ref()
            .expect("every policy runs before simulated metrics are read")
    }

    /// Minimum over the policies of Jain's fairness index.
    pub fn jain_fairness_min(&self) -> f64 {
        (0..4)
            .map(|p| self.result(p).jain_fairness())
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum over the policies of the run-wide LLC miss rate.
    pub fn llc_miss_rate_max(&self) -> f64 {
        (0..4)
            .map(|p| self.result(p).miss_rate())
            .fold(0.0, f64::max)
    }

    /// `(guarantee_min_ratio, benefit_geomean_ratio)` on host 0's twelve
    /// tenants: lifetime instructions under dCat max-fairness (from
    /// `run_fleet`) over those under static CAT (the benchmark's copy of
    /// host 0) — the minimum, and the geometric mean with requests in
    /// place of instructions where the tenant completes requests.
    pub fn promise(&self) -> (f64, f64) {
        let dcat = self.result(0);
        let stat = self.run_shard(ShardPolicy::Static, &mut Trace::new(false), None);
        let mut ins_ratios = Vec::new();
        let mut gain_ratios = Vec::new();
        for (slot, (&s_ins, &s_req)) in stat.instructions.iter().zip(&stat.requests).enumerate() {
            if s_ins == 0 {
                continue;
            }
            let ins_ratio = dcat.tenant_instructions[slot] as f64 / s_ins as f64;
            ins_ratios.push(ins_ratio);
            gain_ratios.push(if s_req > 0 {
                dcat.tenant_requests[slot] as f64 / s_req as f64
            } else {
                ins_ratio
            });
        }
        let guarantee = ins_ratios.iter().copied().fold(f64::INFINITY, f64::min);
        (guarantee, geomean(&gain_ratios))
    }

    /// Host `h`'s engine, as `dcat_bench::fleet` builds it (that function
    /// is private there; the traced pass's digest check is what keeps
    /// this copy honest).
    pub fn host_engine_config(&self, host: u32) -> EngineConfig {
        let mut cfg = EngineConfig::xeon_e5_v4();
        cfg.socket.hierarchy = HierarchyConfig {
            cores: self.cfg.tenants_per_host,
            l1: CacheGeometry::new(64, 8, 64),
            l2: CacheGeometry::new(128, 8, 64),
            llc: CacheGeometry::from_capacity(2 * 1024 * 1024, 16),
            llc_policy: Default::default(),
        };
        cfg.cycles_per_epoch = self.cfg.cycles_per_epoch;
        cfg.memory_bytes = 256 * 1024 * 1024;
        cfg.seed = split_seed(self.cfg.seed, HOST_SEED_STREAM + u64::from(host));
        cfg.llc_fidelity = self.cfg.llc_fidelity;
        cfg
    }

    /// The benchmark's own epoch loop ([`run_host`]) over host 0's shard,
    /// following the schedule a fleet host follows.
    pub fn run_shard(
        &self,
        policy: ShardPolicy,
        trace: &mut Trace,
        capture: Option<Arc<Mutex<Capture>>>,
    ) -> Shard {
        let per_host = self.cfg.tenants_per_host as usize;
        let shard = &self.tenants[..per_host.min(self.tenants.len())];
        let vms = shard
            .iter()
            .enumerate()
            .map(|(slot, t)| VmSpec::new(format!("t{}", t.id), vec![slot as u32], 1))
            .collect();
        let spec = HostSpec {
            engine: self.host_engine_config(0),
            vms,
            epochs: self.cfg.epochs,
            frame_source: "fleet-host:0".to_string(),
            policy_label: match policy {
                ShardPolicy::Static => "static-cat",
                ShardPolicy::Fleet(p) => p.label(),
            },
            count_filler: true,
            capture,
            build_policy: Box::new(move |handles, cat| {
                let other = |p: Box<dyn CachePolicy>| Policy::Other(p);
                Ok(match policy {
                    ShardPolicy::Static => other(Box::new(StaticCatPolicy::new(handles, cat)?)),
                    ShardPolicy::Fleet(FleetPolicy::DcatMaxFairness) => Policy::Dcat(Box::new(
                        DcatController::new(DcatConfig::default(), handles, cat)?,
                    )),
                    ShardPolicy::Fleet(FleetPolicy::DcatMaxPerformance) => Policy::Dcat(Box::new(
                        DcatController::new(DcatConfig::max_performance(), handles, cat)?,
                    )),
                    ShardPolicy::Fleet(FleetPolicy::Lfoc) => other(Box::new(LfocPolicy::new(
                        handles,
                        cat,
                        LfocConfig::default(),
                    )?)),
                    ShardPolicy::Fleet(FleetPolicy::Memshare) => other(Box::new(
                        MemsharePolicy::new(handles, cat, MemshareConfig::default())?,
                    )),
                })
            }),
        };
        let run = run_host(spec, trace, |epoch, sched| {
            for (slot, t) in shard.iter().enumerate() {
                if t.arrival_epoch == epoch && t.departure_epoch > epoch {
                    sched.start(slot, t.stream());
                }
                if t.departure_epoch == epoch && sched.has_workload(slot) {
                    sched.stop(slot);
                }
            }
        });
        let totals = |f: fn(&host::VmEpochStats) -> u64| -> Vec<u64> {
            (0..shard.len())
                .map(|slot| run.epochs.iter().map(|e| f(&e[slot])).sum())
                .collect()
        };
        Shard {
            instructions: totals(|s| s.instructions),
            requests: totals(|s| s.requests_completed),
            run,
        }
    }
}

/// What one run of the benchmark's copy of host 0 hands back.
pub struct Shard {
    /// Lifetime instructions per slot.
    pub instructions: Vec<u64>,
    /// Lifetime completed requests per slot.
    pub requests: Vec<u64>,
    pub run: HostRun,
}
