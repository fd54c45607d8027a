//! Fleet: the cluster-level scenario layer.
//!
//! The dCat paper evaluates one socket at a time; an IaaS operator runs
//! *fleets* — hundreds of hosts, each carrying a dozen single-core
//! tenants that arrive, idle through the night, peak at noon, and
//! depart. This module models that layer so cluster-scale policies can
//! be compared under identical load:
//!
//! * **Tenant lifecycle** — [`TenantSpec::generate`] derives every
//!   tenant's service kind, arrival/departure epochs, diurnal phase, and
//!   workload seed from `split_seed(seed, tenant_id)`, so adding a
//!   tenant never reshuffles another's trace. Service models
//!   (Redis/PostgreSQL/Elasticsearch plus the paper's MLR/MLOAD
//!   microbenchmarks) are wrapped in [`workloads::DiurnalStream`] so
//!   request rates follow a day curve.
//! * **Sharded multi-host engine** — tenants pack onto hosts of
//!   [`FleetConfig::tenants_per_host`] single-core slots (kept under
//!   dCat's `num_closids - 1` domain ceiling). Hosts share nothing, so a
//!   host lives exactly as long as its run: [`host::Pool`] hands each
//!   worker a host index, the worker generates the shard, builds the
//!   host, runs every epoch and drops it, and only plain results come
//!   back — streamed to the coordinator in host order and folded as they
//!   arrive, so reports, metrics, and decision traces are byte-identical
//!   at any `--jobs` width, and what a run holds is a few hosts and
//!   results per worker however large the fleet (`run_fleet_with`).
//! * **Policy comparison** — every host runs one [`FleetPolicy`]: dCat
//!   max-fairness, dCat max-performance, LFOC-style clustering
//!   ([`dcat::LfocPolicy`]), or Memshare-style share accounting
//!   ([`dcat::MemsharePolicy`]).
//!
//! Ten-thousand-tenant runs are made tractable by sampled LLC fidelity
//! (`--sample-sets N`); the whole layer stays deterministic under it.

use std::fmt::Write as _;

use dcat::{DcatConfig, LfocConfig, Totals, WorkloadClass, WorkloadHandle};
use dcat_obs::Tracer;
use host::{Engine, EngineConfig, Pool, VmSpec};
use llc_sim::CacheGeometry;
use resctrl::{CacheController, ResctrlError};
use smallrng::{split_seed, SmallRng};
use workloads::{
    AccessStream, DiurnalStream, ElasticsearchModel, Mload, Mlr, PostgresModel, RedisModel,
};

use crate::report;
use crate::scenario::{HostLoop, PolicyKind};

/// Completed requests per diurnal curve step; small enough that a
/// tenant's load visibly moves over a run.
const CURVE_REQUESTS_PER_STEP: u64 = 64;

/// RNG stream offset separating host-engine seeds from tenant seeds
/// (tenant ids occupy the low streams).
const HOST_SEED_STREAM: u64 = 1 << 32;

/// The service a tenant runs. Mix weights live in `TenantSpec::new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// Zipfian GET/SET key-value cache.
    Redis,
    /// B-tree point queries over a heap.
    Postgres,
    /// Term-lookup + posting-scan search.
    Elasticsearch,
    /// The paper's MLR random-read microbenchmark (cache-sensitive
    /// batch analytics).
    Analytics,
    /// The paper's MLOAD cyclic scan (streaming; working set larger
    /// than the LLC).
    Streaming,
}

impl ServiceKind {
    /// Short name for traces.
    pub fn label(&self) -> &'static str {
        match self {
            ServiceKind::Redis => "redis",
            ServiceKind::Postgres => "postgres",
            ServiceKind::Elasticsearch => "elasticsearch",
            ServiceKind::Analytics => "analytics",
            ServiceKind::Streaming => "streaming",
        }
    }
}

/// One tenant's whole lifecycle, derived deterministically from the
/// fleet seed and the tenant id.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Fleet-wide tenant index.
    pub id: u32,
    /// Service model the tenant runs.
    pub service: ServiceKind,
    /// Epoch the workload starts (inclusive).
    pub arrival_epoch: u64,
    /// Epoch the workload stops (exclusive); may exceed the run length.
    pub departure_epoch: u64,
    /// Diurnal curve offset (tenants live in different time zones).
    pub phase: usize,
    /// Workload seed.
    pub seed: u64,
}

impl TenantSpec {
    /// Tenant `id`'s lifecycle trace, drawn from its own
    /// `split_seed(cfg.seed, id)` stream, so it is the same whatever the
    /// fleet's size and whoever derives it.
    pub(crate) fn new(cfg: &FleetConfig, id: u32) -> TenantSpec {
        let seed = split_seed(cfg.seed, u64::from(id));
        let mut rng = SmallRng::seed_from_u64(seed);
        let service = match rng.gen_range(0..100) {
            0..=34 => ServiceKind::Redis,
            35..=59 => ServiceKind::Postgres,
            60..=74 => ServiceKind::Elasticsearch,
            75..=87 => ServiceKind::Analytics,
            _ => ServiceKind::Streaming,
        };
        let phase = rng.gen_range_usize(0..workloads::DAY_CURVE.len());
        let e = cfg.epochs.max(2);
        let (arrival_epoch, lifetime) = if cfg.churn {
            // Churn mode: arrivals spread over most of the run, lifetimes
            // short enough that slots turn over.
            let arrival = rng.gen_range(0..(3 * e).div_ceil(4));
            let lifetime = rng.gen_range(e.div_ceil(4)..(3 * e).div_ceil(4).max(2));
            (arrival, lifetime)
        } else {
            // Steady mode: most tenants present from the start and stay; a
            // minority arrives mid-run.
            let arrival = if rng.gen_range(0..100) < 75 {
                0
            } else {
                rng.gen_range(1..e.div_ceil(2).max(2))
            };
            let lifetime = rng.gen_range((2 * e).div_ceil(3)..2 * e);
            (arrival, lifetime)
        };
        TenantSpec {
            id,
            service,
            arrival_epoch,
            departure_epoch: arrival_epoch + lifetime.max(1),
            phase,
            seed,
        }
    }

    /// Generates the whole fleet's lifecycle traces (`TenantSpec::new`
    /// for every id), so traces are stable under fleet-size changes.
    pub fn generate(cfg: &FleetConfig) -> Vec<TenantSpec> {
        (0..cfg.tenants)
            .map(|id| TenantSpec::new(cfg, id))
            .collect()
    }

    /// Builds the tenant's diurnally modulated access stream. Working
    /// sets are sized for the fleet host's 2 MiB / 16-way LLC: the
    /// services fit in a few ways, analytics wants many, and streaming
    /// exceeds the cache entirely (the paper's Donor/Receiver/Streaming
    /// spread).
    ///
    /// The wrapper is built per arm, around the concrete model, so the one
    /// `dyn` layer is the box the engine holds: the wrapper's call into
    /// the model, once per request reference, resolves statically.
    pub fn stream(&self) -> Box<dyn AccessStream> {
        fn day(inner: impl AccessStream + 'static, phase: usize) -> Box<dyn AccessStream> {
            Box::new(DiurnalStream::day(inner, CURVE_REQUESTS_PER_STEP, phase))
        }
        match self.service {
            ServiceKind::Redis => day(RedisModel::new(6_000, 128, 0.99, self.seed), self.phase),
            ServiceKind::Postgres => day(PostgresModel::new(8_000, self.seed), self.phase),
            ServiceKind::Elasticsearch => {
                day(ElasticsearchModel::new(1_500, 512, self.seed), self.phase)
            }
            ServiceKind::Analytics => day(Mlr::new(3 * 1024 * 1024 / 2, self.seed), self.phase),
            ServiceKind::Streaming => day(Mload::new(6 * 1024 * 1024), self.phase),
        }
    }
}

/// Which cluster policy governs every host of the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetPolicy {
    /// dCat with the max-fairness allocator (the paper's default).
    DcatMaxFairness,
    /// dCat with the max-performance allocator.
    DcatMaxPerformance,
    /// LFOC-style miss-rate clustering onto few shared COS.
    Lfoc,
    /// Memshare-style share accounting with a lending ledger.
    Memshare,
}

impl FleetPolicy {
    /// Every policy the fleet experiments compare, in report order.
    pub const ALL: [FleetPolicy; 4] = [
        FleetPolicy::DcatMaxFairness,
        FleetPolicy::DcatMaxPerformance,
        FleetPolicy::Lfoc,
        FleetPolicy::Memshare,
    ];

    /// Display name used in reports, traces, and metric labels.
    pub fn label(&self) -> &'static str {
        match self {
            FleetPolicy::DcatMaxFairness => "dcat-maxfair",
            FleetPolicy::DcatMaxPerformance => "dcat-maxperf",
            FleetPolicy::Lfoc => "lfoc",
            FleetPolicy::Memshare => "memshare",
        }
    }

    fn kind(&self) -> PolicyKind {
        match self {
            FleetPolicy::DcatMaxFairness => PolicyKind::Dcat(DcatConfig::default()),
            FleetPolicy::DcatMaxPerformance => PolicyKind::Dcat(DcatConfig::max_performance()),
            FleetPolicy::Lfoc => PolicyKind::Lfoc(LfocConfig::default()),
            FleetPolicy::Memshare => PolicyKind::Memshare,
        }
    }
}

/// Fleet shape and budgets.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Total tenants across the fleet.
    pub tenants: u32,
    /// Single-core tenant slots per host. Must stay at or below 15 so a
    /// dCat controller (one COS per domain plus COS0) fits 16 closids.
    pub tenants_per_host: u32,
    /// Epochs (policy intervals) to run.
    pub epochs: u64,
    /// Cycle budget per core per epoch.
    pub cycles_per_epoch: u64,
    /// Churn mode: short lifetimes and spread arrivals instead of the
    /// steady mostly-resident population.
    pub churn: bool,
    /// Fleet seed; everything derives from it.
    pub seed: u64,
    /// LLC fidelity for every host (sampled sets make 10 k-tenant runs
    /// tractable).
    pub llc_fidelity: llc_sim::SimFidelity,
}

impl FleetConfig {
    /// Standard configuration at the given scale. `fast` shrinks epoch
    /// counts and cycle budgets for tests and CI smokes. The LLC
    /// fidelity follows the process-global `--sample-sets` flag.
    pub fn new(tenants: u32, fast: bool) -> Self {
        FleetConfig {
            tenants,
            tenants_per_host: 12,
            epochs: if fast { 8 } else { 16 },
            cycles_per_epoch: if fast { 120_000 } else { 400_000 },
            churn: false,
            seed: 0xF1EE7,
            llc_fidelity: crate::runner::llc_fidelity(),
        }
    }

    /// Hosts needed to carry the fleet.
    pub fn hosts(&self) -> u32 {
        self.tenants.div_ceil(self.tenants_per_host.max(1))
    }

    /// The per-host engine configuration: a small socket with one core
    /// per tenant slot and a 2 MiB, 16-way LLC (room for the paper's
    /// Donor/Receiver dynamics without the full Xeon's simulation cost).
    fn host_engine(&self, host: u32) -> EngineConfig {
        let mut cfg = EngineConfig::xeon_e5_v4();
        cfg.socket.hierarchy = llc_sim::HierarchyConfig {
            cores: self.tenants_per_host,
            l1: CacheGeometry::new(64, 8, 64),
            l2: CacheGeometry::new(128, 8, 64),
            llc: CacheGeometry::from_capacity(2 * 1024 * 1024, 16),
            llc_policy: Default::default(),
        };
        cfg.cycles_per_epoch = self.cycles_per_epoch;
        cfg.memory_bytes = 256 * 1024 * 1024;
        cfg.seed = split_seed(self.seed, HOST_SEED_STREAM + u64::from(host));
        cfg.llc_fidelity = self.llc_fidelity;
        cfg
    }
}

/// Index into [`FleetEpochRow::classes`] for a workload class.
fn class_idx(class: WorkloadClass) -> usize {
    match class {
        WorkloadClass::Keeper => 0,
        WorkloadClass::Donor => 1,
        WorkloadClass::Receiver => 2,
        WorkloadClass::Streaming => 3,
        WorkloadClass::Unknown => 4,
        WorkloadClass::Reclaim => 5,
    }
}

/// Label order matching `class_idx`.
const CLASS_LABELS: [&str; 6] = [
    "keeper",
    "donor",
    "receiver",
    "streaming",
    "unknown",
    "reclaim",
];

/// Aggregated outcome of one host epoch.
#[derive(Clone, Copy, Default)]
struct HostEpoch {
    instructions: u64,
    l1_ref: u64,
    llc_ref: u64,
    llc_miss: u64,
    requests: u64,
    active: u32,
    classes: [u64; 6],
    /// Distinct COS programmed on the host after the tick.
    cos_used: u32,
}

/// What a host's run leaves behind: plain data, everything the
/// coordinator's fold reads and nothing that borrows from the engine.
struct HostRun {
    /// One entry per epoch the host completed.
    epochs: Vec<HostEpoch>,
    /// The tick error that stopped the host at epoch `epochs.len()`, if
    /// one did.
    error: Option<ResctrlError>,
    /// Lifetime instructions per tenant slot.
    instructions: Vec<u64>,
    /// Lifetime completed requests per tenant slot.
    requests: Vec<u64>,
    /// The host's finished `dcat-frames/v2` segment.
    frames: String,
    #[cfg(test)]
    _live: live::Guard,
}

/// One host: its engine, its policy's control loop, and its tenant shard.
/// Built, run and dropped by one pool worker ([`HostState::run`]).
struct HostState {
    engine: Engine,
    ctl: HostLoop,
    label: &'static str,
    tenants: Vec<TenantSpec>,
    /// Lifetime instructions per tenant slot (`u64` sums, exact in any
    /// order).
    instructions: Vec<u64>,
    /// Lifetime completed requests per tenant slot.
    requests: Vec<u64>,
    /// Per-host `dcat-frames/v2` segment: written on the worker, handed
    /// back as its finished `String`, passed to the run's [`FleetSink`] in
    /// host order by the coordinator.
    frames: dcat_obs::FrameWriter,
    #[cfg(test)]
    _live: live::Guard,
}

impl HostState {
    /// Builds host `host`: its shard is the next `tenants_per_host` ids
    /// of the fleet, generated here, on the worker that runs it.
    fn build(
        cfg: &FleetConfig,
        label: &'static str,
        kind: PolicyKind,
        host: u32,
    ) -> Result<Self, ResctrlError> {
        let per_host = cfg.tenants_per_host.max(1);
        let first = host.saturating_mul(per_host);
        let shard: Vec<TenantSpec> = (first..cfg.tenants.min(first.saturating_add(per_host)))
            .map(|id| TenantSpec::new(cfg, id))
            .collect();
        let vms: Vec<VmSpec> = shard
            .iter()
            .enumerate()
            .map(|(slot, t)| VmSpec::new(format!("t{}", t.id), vec![slot as u32], 1))
            .collect();
        let handles: Vec<WorkloadHandle> = vms
            .iter()
            .map(|v| WorkloadHandle::new(v.name.clone(), v.cores.clone(), v.reserved_ways))
            .collect();
        let mut engine =
            Engine::new(cfg.host_engine(host), vms).expect("fleet shard must fit the host");
        let ctl = kind.host_loop(handles, &mut engine.cat())?;
        Ok(HostState {
            engine,
            ctl,
            label,
            instructions: vec![0; shard.len()],
            requests: vec![0; shard.len()],
            tenants: shard,
            frames: dcat_obs::FrameWriter::new(&format!("fleet-host:{host}")),
            #[cfg(test)]
            _live: live::Guard::enter(&live::HOSTS),
        })
    }

    /// Runs every epoch, stopping at the first tick error, and keeps only
    /// what the fold reads: the engine, the policy loop, the streams and
    /// the page tables drop here, on the worker, before the next host is
    /// built.
    fn run(mut self, epochs: u64) -> HostRun {
        let mut ran = Vec::with_capacity(epochs as usize);
        let mut error = None;
        for epoch in 0..epochs {
            match self.step(epoch) {
                Ok(he) => ran.push(he),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        HostRun {
            epochs: ran,
            error,
            instructions: self.instructions,
            requests: self.requests,
            frames: self.frames.into_string(),
            #[cfg(test)]
            _live: live::Guard::enter(&live::RUNS),
        }
    }

    /// Runs one epoch: schedule arrivals/departures, simulate, tick the
    /// policy, and aggregate. Everything is local to the host, so hosts
    /// can run on any pool worker without ordering effects.
    fn step(&mut self, epoch: u64) -> Result<HostEpoch, ResctrlError> {
        for (slot, t) in self.tenants.iter().enumerate() {
            if t.arrival_epoch == epoch && t.departure_epoch > epoch {
                self.engine.start_workload(slot, t.stream());
            }
            if t.departure_epoch == epoch && self.engine.has_workload(slot) {
                self.engine.stop_workload(slot);
            }
        }
        let stats = self.engine.run_epoch();
        let snapshots = self.engine.snapshots();
        let obs = self.ctl.step(
            &mut Totals(&snapshots),
            &mut self.engine.cat(),
            &mut Tracer::disabled(),
            |_, _| {},
        )?;
        self.frames
            .push(dcat::frame_from_observation(&obs, self.label, obs.ext));

        let mut out = HostEpoch::default();
        for (slot, s) in stats.iter().enumerate() {
            out.instructions += s.instructions;
            out.l1_ref += s.l1_ref;
            out.llc_ref += s.llc_ref;
            out.llc_miss += s.llc_miss;
            out.requests += s.requests_completed;
            if self.engine.has_workload(slot) {
                out.active += 1;
            }
            self.instructions[slot] += s.instructions;
            self.requests[slot] += s.requests_completed;
            // Latencies are counted into requests_completed; drain them
            // so the per-VM buffers stay bounded over long runs.
            let _ = self.engine.take_request_latencies(slot);
        }
        for r in obs.reports {
            out.classes[class_idx(r.class)] += 1;
        }
        let cores = self.tenants.len() as u32;
        let cat = self.engine.cat();
        // A bit per COS id: the host has 16 closids.
        let cos = (0..cores)
            .filter_map(|c| cat.core_cos(c).ok())
            .fold(0u32, |set, id| set | 1 << id.0);
        out.cos_used = cos.count_ones();
        Ok(out)
    }
}

/// One fleet-wide epoch of aggregates.
#[derive(Debug, Clone, Copy)]
pub struct FleetEpochRow {
    /// Epoch index.
    pub epoch: u64,
    /// Tenants with a running workload.
    pub active: u32,
    /// Instructions retired fleet-wide.
    pub instructions: u64,
    /// Memory references fleet-wide (every one starts at L1).
    pub(crate) l1_ref: u64,
    /// LLC references fleet-wide.
    pub llc_ref: u64,
    /// LLC misses fleet-wide.
    pub llc_miss: u64,
    /// Requests completed fleet-wide.
    pub requests: u64,
    /// Domain-class counts: keeper, donor, receiver, streaming, unknown,
    /// reclaim.
    pub classes: [u64; 6],
    /// Sum over hosts of distinct COS in use (mean = `/ hosts`).
    pub cos_used_sum: u64,
    /// Largest per-host COS count.
    pub cos_used_max: u32,
}

impl FleetEpochRow {
    /// Fleet-wide LLC miss rate this epoch.
    pub(crate) fn miss_rate(&self) -> f64 {
        if self.llc_ref == 0 {
            0.0
        } else {
            self.llc_miss as f64 / self.llc_ref as f64
        }
    }
}

/// Everything a fleet run produces.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Policy label.
    pub(crate) policy: &'static str,
    /// Fleet size.
    pub(crate) tenants: u32,
    /// Host count.
    pub hosts: u32,
    /// Per-epoch aggregates.
    pub rows: Vec<FleetEpochRow>,
    /// Lifetime instructions per tenant (fleet order).
    pub tenant_instructions: Vec<u64>,
    /// Lifetime completed requests per tenant (fleet order).
    pub tenant_requests: Vec<u64>,
    /// Per-epoch JSONL decision trace (one line per epoch).
    pub trace: String,
    /// `dcat-frames/v2` stream: one `fleet-host:<n>` segment per host,
    /// concatenated in host order, one frame per host-epoch. Byte-identical
    /// at any `--jobs` width (each segment is written by the one worker
    /// that runs its host). Excluded from [`FleetResult::serialize`], which
    /// predates it. Filled by [`run_fleet`]; empty from `run_fleet_with`,
    /// which hands the segments to its sink instead.
    pub frames: String,
}

impl FleetResult {
    /// Total instructions retired across the run.
    pub(crate) fn total_instructions(&self) -> u64 {
        self.rows.iter().map(|r| r.instructions).sum()
    }

    /// Total requests completed across the run.
    pub(crate) fn total_requests(&self) -> u64 {
        self.rows.iter().map(|r| r.requests).sum()
    }

    /// Run-wide LLC miss rate.
    pub fn miss_rate(&self) -> f64 {
        let refs: u64 = self.rows.iter().map(|r| r.llc_ref).sum();
        let miss: u64 = self.rows.iter().map(|r| r.llc_miss).sum();
        if refs == 0 {
            0.0
        } else {
            miss as f64 / refs as f64
        }
    }

    /// Share of all memory references that hit in the LLC.
    pub(crate) fn llc_hit_share(&self) -> f64 {
        let refs: u64 = self.rows.iter().map(|r| r.l1_ref).sum();
        let hits: u64 = self.rows.iter().map(|r| r.llc_ref - r.llc_miss).sum();
        if refs == 0 {
            0.0
        } else {
            hits as f64 / refs as f64
        }
    }

    /// Jain's fairness index over per-tenant lifetime instructions,
    /// counting only tenants that ever ran. 1.0 = perfectly even.
    pub fn jain_fairness(&self) -> f64 {
        let xs: Vec<f64> = self
            .tenant_instructions
            .iter()
            .filter(|&&v| v > 0)
            .map(|&v| v as f64)
            .collect();
        if xs.is_empty() {
            return 1.0;
        }
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            1.0
        } else {
            (sum * sum) / (xs.len() as f64 * sq)
        }
    }

    /// Mean distinct-COS count per host-epoch (the COS-pressure figure
    /// of merit for the clustering policies).
    pub fn mean_cos_used(&self) -> f64 {
        if self.rows.is_empty() || self.hosts == 0 {
            return 0.0;
        }
        let sum: u64 = self.rows.iter().map(|r| r.cos_used_sum).sum();
        sum as f64 / (self.rows.len() as f64 * f64::from(self.hosts))
    }

    /// Canonical text form: the determinism oracle for the `--jobs`
    /// byte-identity tests and the CI smoke diff.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet policy={} tenants={} hosts={} epochs={}",
            self.policy,
            self.tenants,
            self.hosts,
            self.rows.len()
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "epoch={} active={} ins={} llc_ref={} llc_miss={} req={} \
                 classes={}/{}/{}/{}/{}/{} cos_sum={} cos_max={}",
                r.epoch,
                r.active,
                r.instructions,
                r.llc_ref,
                r.llc_miss,
                r.requests,
                r.classes[0],
                r.classes[1],
                r.classes[2],
                r.classes[3],
                r.classes[4],
                r.classes[5],
                r.cos_used_sum,
                r.cos_used_max,
            );
        }
        for (id, (ins, req)) in self
            .tenant_instructions
            .iter()
            .zip(&self.tenant_requests)
            .enumerate()
        {
            let _ = writeln!(out, "tenant={id} ins={ins} req={req}");
        }
        let _ = writeln!(
            out,
            "total ins={} req={} miss_rate={:.6} jain={:.6} mean_cos={:.3}",
            self.total_instructions(),
            self.total_requests(),
            self.miss_rate(),
            self.jain_fairness(),
            self.mean_cos_used(),
        );
        out
    }
}

/// Where a fleet run's `dcat-frames/v2` stream goes: called with each
/// host's finished segment, in host order, as the coordinator folds the
/// host. `&mut |_: &str| {}` keeps nothing; a closure over a `String`
/// keeps the stream, one over a writer streams it to a file.
pub(crate) type FleetSink<'a> = dyn FnMut(&str) + 'a;

/// Runs one fleet under one policy, its whole frame stream kept in
/// [`FleetResult::frames`]: `run_fleet_with` into a `String`, which
/// states the errors and panics.
pub fn run_fleet(policy: FleetPolicy, cfg: &FleetConfig) -> Result<FleetResult, ResctrlError> {
    let hosts = cfg.hosts() as usize;
    let mut frames = String::new();
    let result = run_fleet_with(policy, cfg, &mut |segment: &str| {
        // Sized once, from the first host's segment (hosts' segments
        // differ by about 1%), so the stream is one allocation rather
        // than a chain of doublings copied between hosts' builds.
        if frames.is_empty() {
            frames.reserve(segment.len() * hosts * 9 / 8);
        }
        frames.push_str(segment);
    })?;
    Ok(FleetResult { frames, ..result })
}

/// Runs one fleet under one policy, handing each host's frame segment to
/// `frames` in host order; the [`FleetResult::frames`] it returns is empty.
///
/// Hosts share nothing, so a host's lifetime is its run: the pool's work
/// item is the host index, and the worker that claims it generates the
/// host's shard, builds the host, runs all its epochs and drops it,
/// returning only the `HostRun` — live simulator state is one host per
/// worker, not one per host. [`Pool::stream`] delivers the runs to the
/// coordinator (the calling thread) in host order, never more than
/// `2 × jobs` of them finished and waiting, and the coordinator folds each
/// as it arrives and drops it, so memory follows `--jobs`, not the host
/// count. After the last host it records the decision trace and metrics
/// epoch-major. Workers never touch the metrics registry, the output sink
/// or `frames`, so results are byte-identical at any `--jobs` width.
///
/// # Errors
///
/// Returns the [`ResctrlError`] of the first policy build or tick that
/// fails, so callers classify it through `severity()` like every other
/// allocation-path error. "First" is: a build error on any host, lowest
/// host first, before any tick error; among tick errors the lowest epoch,
/// then the lowest host. What other hosts ran in the meantime is
/// discarded; `frames` has seen every host's segment by then.
///
/// # Panics
///
/// Panics if a shard cannot fit its host (config error). The host is
/// built on a pool worker; [`Pool::stream`] re-raises the worker's panic
/// on the calling thread.
pub(crate) fn run_fleet_with(
    policy: FleetPolicy,
    cfg: &FleetConfig,
    frames: &mut FleetSink<'_>,
) -> Result<FleetResult, ResctrlError> {
    let pool = Pool::new(crate::runner::jobs());
    stream_hosts(pool, policy.label(), &policy.kind(), cfg, frames)
}

/// The same fleet with every host under static CAT at the reserved sizes:
/// the reference a fleet policy's gains are read against. It is not a
/// [`FleetPolicy`], as no fleet experiment ranks it; its frame stream is
/// not kept.
pub(crate) fn run_fleet_static(cfg: &FleetConfig) -> Result<FleetResult, ResctrlError> {
    let pool = Pool::new(crate::runner::jobs());
    stream_hosts(
        pool,
        "static-cat",
        &PolicyKind::StaticCat,
        cfg,
        &mut |_: &str| {},
    )
}

/// [`run_fleet_with`] on an explicit pool, under any policy.
fn stream_hosts(
    pool: Pool,
    label: &'static str,
    kind: &PolicyKind,
    cfg: &FleetConfig,
    frames: &mut FleetSink<'_>,
) -> Result<FleetResult, ResctrlError> {
    let mut fold = Fold::new(cfg);
    pool.stream(
        (0..cfg.hosts()).collect(),
        |_, host| Ok(HostState::build(cfg, label, kind.clone(), host)?.run(cfg.epochs)),
        |_, ran| fold.host(ran, frames),
    );
    fold.finish(label, cfg)
}

/// The coordinator's half of [`run_fleet_with`], which states the error
/// order this implements: host runs are folded one at a time, in host
/// order, into per-epoch rows and per-tenant totals, and dropped.
struct Fold {
    /// Per-epoch sums over the hosts folded so far (`u64` sums and a max,
    /// exact in any order).
    rows: Vec<FleetEpochRow>,
    tenant_instructions: Vec<u64>,
    tenant_requests: Vec<u64>,
    /// The lowest host's build error.
    build_error: Option<ResctrlError>,
    /// The tick error of the lowest epoch, then the lowest host, with
    /// that epoch.
    tick_error: Option<(u64, ResctrlError)>,
}

impl Fold {
    fn new(cfg: &FleetConfig) -> Self {
        let row = |epoch| FleetEpochRow {
            epoch,
            active: 0,
            instructions: 0,
            l1_ref: 0,
            llc_ref: 0,
            llc_miss: 0,
            requests: 0,
            classes: [0; 6],
            cos_used_sum: 0,
            cos_used_max: 0,
        };
        Fold {
            rows: (0..cfg.epochs).map(row).collect(),
            tenant_instructions: Vec::with_capacity(cfg.tenants as usize),
            tenant_requests: Vec::with_capacity(cfg.tenants as usize),
            build_error: None,
            tick_error: None,
        }
    }

    /// Folds the next host's run and passes its frame segment on.
    fn host(&mut self, ran: Result<HostRun, ResctrlError>, frames: &mut FleetSink<'_>) {
        let run = match ran {
            Ok(run) => run,
            Err(e) => {
                self.build_error.get_or_insert(e);
                return;
            }
        };
        for (row, he) in self.rows.iter_mut().zip(&run.epochs) {
            row.active += he.active;
            row.instructions += he.instructions;
            row.l1_ref += he.l1_ref;
            row.llc_ref += he.llc_ref;
            row.llc_miss += he.llc_miss;
            row.requests += he.requests;
            for (acc, c) in row.classes.iter_mut().zip(he.classes) {
                *acc += c;
            }
            row.cos_used_sum += u64::from(he.cos_used);
            row.cos_used_max = row.cos_used_max.max(he.cos_used);
        }
        if let Some(e) = run.error {
            // Hosts arrive in host order, so an equal epoch keeps the
            // lower host's error.
            let epoch = run.epochs.len() as u64;
            if self
                .tick_error
                .as_ref()
                .is_none_or(|(first, _)| epoch < *first)
            {
                self.tick_error = Some((epoch, e));
            }
        }
        // Shards are consecutive runs of the tenant ids, so host order is
        // fleet order.
        self.tenant_instructions.extend(run.instructions);
        self.tenant_requests.extend(run.requests);
        frames(&run.frames);
    }

    /// Records the trace and the `fleet_*` metrics epoch-major, as when
    /// the hosts ran in lockstep: every epoch of a clean run, the epochs
    /// before the failing one on a tick error, none on a build error.
    fn finish(self, label: &'static str, cfg: &FleetConfig) -> Result<FleetResult, ResctrlError> {
        if let Some(e) = self.build_error {
            return Err(e);
        }
        let mut rows = self.rows;
        if let Some((epoch, _)) = &self.tick_error {
            rows.truncate(*epoch as usize);
        }
        let mut trace = String::new();
        for row in &rows {
            let _ = writeln!(
                trace,
                "{{\"epoch\":{},\"policy\":\"{}\",\"active\":{},\"requests\":{},\
                 \"instructions\":{},\"miss_rate\":{:.6},\"classes\":[{},{},{},{},{},{}],\
                 \"cos_sum\":{},\"cos_max\":{}}}",
                row.epoch,
                label,
                row.active,
                row.requests,
                row.instructions,
                row.miss_rate(),
                row.classes[0],
                row.classes[1],
                row.classes[2],
                row.classes[3],
                row.classes[4],
                row.classes[5],
                row.cos_used_sum,
                row.cos_used_max,
            );
            report::record(|reg| {
                reg.counter_add("fleet_epochs_total", &[("policy", label)], 1);
                reg.counter_add("fleet_requests_total", &[("policy", label)], row.requests);
                reg.counter_add(
                    "fleet_instructions_total",
                    &[("policy", label)],
                    row.instructions,
                );
                for (i, name) in CLASS_LABELS.iter().enumerate() {
                    if row.classes[i] > 0 {
                        reg.counter_add(
                            "fleet_class_ticks_total",
                            &[("policy", label), ("class", name)],
                            row.classes[i],
                        );
                    }
                }
            });
        }
        if let Some((_, e)) = self.tick_error {
            return Err(e);
        }
        let result = FleetResult {
            policy: label,
            tenants: cfg.tenants,
            hosts: cfg.hosts(),
            rows,
            tenant_instructions: self.tenant_instructions,
            tenant_requests: self.tenant_requests,
            trace,
            frames: String::new(),
        };
        report::record(|reg| {
            reg.counter_add("fleet_runs_total", &[("policy", label)], 1);
            reg.gauge_set(
                "fleet_mean_cos_used",
                &[("policy", label)],
                result.mean_cos_used(),
            );
        });
        Ok(result)
    }
}

/// Test-only gauges of the hosts and of the finished host runs alive, each
/// with its running maximum. A guard counts into the gauge of the thread
/// that made it until it drops, on whichever thread that is, so concurrent
/// tests do not count each other's values; on a one-job pool every host
/// and run of a fleet is made on the calling thread.
#[cfg(test)]
mod live {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Arc;
    use std::thread::LocalKey;

    #[derive(Default)]
    pub(super) struct Gauge {
        live: AtomicUsize,
        max: AtomicUsize,
    }

    thread_local! {
        /// [`super::HostState`]: entered by `build`, left at the end of `run`.
        pub(super) static HOSTS: Arc<Gauge> = Arc::default();
        /// [`super::HostRun`]: entered at the end of `run`, left when the
        /// coordinator has folded it.
        pub(super) static RUNS: Arc<Gauge> = Arc::default();
    }

    pub(super) struct Guard(Arc<Gauge>);

    impl Guard {
        pub(super) fn enter(gauge: &'static LocalKey<Arc<Gauge>>) -> Self {
            let gauge = gauge.with(Arc::clone);
            let live = gauge.live.fetch_add(1, Relaxed) + 1;
            gauge.max.fetch_max(live, Relaxed);
            Guard(gauge)
        }
    }

    impl Drop for Guard {
        fn drop(&mut self) {
            self.0.live.fetch_sub(1, Relaxed);
        }
    }

    /// The most values alive at once in this thread's `gauge` since the
    /// last call.
    pub(super) fn take_max(gauge: &'static LocalKey<Arc<Gauge>>) -> usize {
        gauge.with(|g| g.max.swap(g.live.load(Relaxed), Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn tiny(tenants: u32) -> FleetConfig {
        let mut cfg = FleetConfig::new(tenants, true);
        cfg.epochs = 4;
        cfg.cycles_per_epoch = 40_000;
        cfg.llc_fidelity = llc_sim::SimFidelity::Sampled { one_in: 8 };
        cfg
    }

    #[test]
    fn lifecycle_traces_are_stable_under_fleet_growth() {
        let small = TenantSpec::generate(&tiny(8));
        let large = TenantSpec::generate(&tiny(64));
        for (a, b) in small.iter().zip(&large) {
            assert_eq!(a.service, b.service);
            assert_eq!(a.arrival_epoch, b.arrival_epoch);
            assert_eq!(a.departure_epoch, b.departure_epoch);
            assert_eq!(a.seed, b.seed);
        }
    }

    #[test]
    fn lifecycles_are_plausible() {
        let cfg = tiny(100);
        let specs = TenantSpec::generate(&cfg);
        assert!(specs.iter().all(|t| t.departure_epoch > t.arrival_epoch));
        let at_start = specs.iter().filter(|t| t.arrival_epoch == 0).count();
        assert!(at_start > 50, "steady fleets start mostly populated");
        let kinds: BTreeSet<&str> = specs.iter().map(|t| t.service.label()).collect();
        assert!(kinds.len() >= 4, "the service mix should be diverse");
    }

    #[test]
    fn every_policy_runs_a_small_fleet() {
        for policy in FleetPolicy::ALL {
            let r = run_fleet(policy, &tiny(24)).expect("tiny fleet runs");
            assert_eq!(r.hosts, 2);
            assert_eq!(r.rows.len(), 4);
            assert!(r.total_instructions() > 0, "{}: fleet ran", policy.label());
            assert!(r.trace.lines().count() == 4);
            let jain = r.jain_fairness();
            assert!((0.0..=1.0).contains(&jain), "jain in range, got {jain}");
        }
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let a = run_fleet(FleetPolicy::Lfoc, &tiny(24)).expect("tiny fleet runs");
        let b = run_fleet(FleetPolicy::Lfoc, &tiny(24)).expect("tiny fleet runs");
        assert_eq!(a.serialize(), b.serialize());
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.frames, b.frames);
    }

    #[test]
    fn fleet_frame_stream_has_one_segment_per_host() {
        let r = run_fleet(FleetPolicy::Memshare, &tiny(24)).expect("tiny fleet runs");
        let segs = dcat_obs::frames::parse_stream(&r.frames).expect("fleet frames validate");
        assert_eq!(segs.len(), r.hosts as usize);
        for (h, seg) in segs.iter().enumerate() {
            assert_eq!(seg.source, format!("fleet-host:{h}"));
            assert_eq!(seg.frames.len(), r.rows.len());
            assert!(
                seg.frames.iter().all(|f| f.ext.memshare.is_some()),
                "memshare host frames carry the ledger ext"
            );
        }
    }

    #[test]
    fn a_fleet_run_holds_one_host_at_a_time() {
        crate::runner::set_jobs(1);
        let cfg = tiny(72);
        assert_eq!(cfg.hosts(), 6);
        for policy in FleetPolicy::ALL {
            live::take_max(&live::HOSTS);
            run_fleet(policy, &cfg).expect("tiny fleet runs");
            assert_eq!(
                live::take_max(&live::HOSTS),
                1,
                "{}: each host must be dropped before the next is built",
                policy.label()
            );
        }
    }

    #[test]
    fn the_coordinator_holds_one_host_run_at_a_time() {
        // An explicit one-job pool: the `--jobs` global is shared with
        // concurrent tests.
        let cfg = tiny(72);
        for policy in FleetPolicy::ALL {
            live::take_max(&live::RUNS);
            stream_hosts(
                Pool::new(1),
                policy.label(),
                &policy.kind(),
                &cfg,
                &mut |_: &str| {},
            )
            .expect("tiny fleet runs");
            assert_eq!(
                live::take_max(&live::RUNS),
                1,
                "{}: each host's run must be folded and dropped before the next host runs",
                policy.label()
            );
        }
    }

    #[test]
    fn a_shard_that_cannot_fit_panics_on_the_caller() {
        // 17 reserved ways on a 16-way LLC: every host's build panics,
        // whichever pool thread claims it.
        let mut cfg = tiny(136);
        cfg.tenants_per_host = 17;
        crate::runner::set_jobs(4);
        let caught = std::panic::catch_unwind(|| run_fleet(FleetPolicy::Lfoc, &cfg));
        crate::runner::set_jobs(1);
        let payload = caught.expect_err("the shard does not fit");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            message.starts_with("fleet shard must fit the host"),
            "got {message}"
        );
    }

    /// A synthetic host result: `epochs` completed, then stopped by
    /// `InvalidCore(stopped_by)` if given (the payload tells errors apart).
    fn host_run(epochs: usize, stopped_by: Option<u32>) -> Result<HostRun, ResctrlError> {
        Ok(HostRun {
            epochs: vec![HostEpoch::default(); epochs],
            error: stopped_by.map(ResctrlError::InvalidCore),
            instructions: vec![0; 12],
            requests: vec![0; 12],
            frames: String::new(),
            _live: live::Guard::enter(&live::RUNS),
        })
    }

    /// Feeds `ran` to the coordinator's fold in host order, as
    /// [`Pool::stream`] delivers it, and finishes it.
    fn fold_hosts(
        label: &'static str,
        cfg: &FleetConfig,
        ran: Vec<Result<HostRun, ResctrlError>>,
    ) -> Result<FleetResult, ResctrlError> {
        let mut fold = Fold::new(cfg);
        for run in ran {
            fold.host(run, &mut |_: &str| {});
        }
        fold.finish(label, cfg)
    }

    /// Folds six synthetic hosts that all ran five clean epochs, except
    /// as `edit` says.
    fn fold(
        edit: impl FnOnce(&mut Vec<Result<HostRun, ResctrlError>>),
    ) -> Result<FleetResult, ResctrlError> {
        let mut cfg = tiny(72);
        cfg.epochs = 5;
        let mut ran: Vec<_> = (0..6).map(|_| host_run(5, None)).collect();
        edit(&mut ran);
        fold_hosts("synthetic", &cfg, ran)
    }

    /// Host `host`'s synthetic run: `epochs` completed with aggregates
    /// that differ by host and epoch, then stopped by
    /// `InvalidCore(stopped_by)` if given.
    fn busy_run(host: u64, epochs: u64, stopped_by: Option<u32>) -> Result<HostRun, ResctrlError> {
        let mut run = host_run(0, stopped_by)?;
        run.epochs = (0..epochs)
            .map(|epoch| HostEpoch {
                instructions: 1_000 * host + epoch,
                l1_ref: 1_000 + host,
                llc_ref: 100 + host,
                llc_miss: 10 * epoch + host,
                requests: 7 * host + epoch,
                active: 12,
                classes: [host, epoch, 1, 0, 0, 0],
                cos_used: ((host + epoch) % 5 + 1) as u32,
            })
            .collect();
        Ok(run)
    }

    #[test]
    fn a_tick_error_records_the_epochs_before_it() {
        // What the fold before streaming recorded for these hosts: the
        // `fleet_*` counters of epochs 0–2 and no run-level series when
        // host 2 stops at epoch 3, and these trace lines for epochs 0–2
        // when it does not.
        const METRICS: &str = "\
# TYPE fleet_class_ticks_total counter
fleet_class_ticks_total{class=\"donor\",policy=\"synthetic\"} 18
fleet_class_ticks_total{class=\"keeper\",policy=\"synthetic\"} 45
fleet_class_ticks_total{class=\"receiver\",policy=\"synthetic\"} 18
# TYPE fleet_epochs_total counter
fleet_epochs_total{policy=\"synthetic\"} 3
# TYPE fleet_instructions_total counter
fleet_instructions_total{policy=\"synthetic\"} 45018
# TYPE fleet_requests_total counter
fleet_requests_total{policy=\"synthetic\"} 333
";
        const TRACE: &str = "\
{\"epoch\":0,\"policy\":\"synthetic\",\"active\":72,\"requests\":105,\"instructions\":15000,\"miss_rate\":0.024390,\"classes\":[15,0,6,0,0,0],\"cos_sum\":16,\"cos_max\":5}
{\"epoch\":1,\"policy\":\"synthetic\",\"active\":72,\"requests\":111,\"instructions\":15006,\"miss_rate\":0.121951,\"classes\":[15,6,6,0,0,0],\"cos_sum\":17,\"cos_max\":5}
{\"epoch\":2,\"policy\":\"synthetic\",\"active\":72,\"requests\":117,\"instructions\":15012,\"miss_rate\":0.219512,\"classes\":[15,12,6,0,0,0],\"cos_sum\":18,\"cos_max\":5}
";
        let mut cfg = tiny(72);
        cfg.epochs = 5;
        let hosts = |stop: Option<u64>| -> Vec<_> {
            (0..6)
                .map(|h| match stop {
                    Some(epoch) if h == 2 => busy_run(h, epoch, Some(302)),
                    _ => busy_run(h, 5, None),
                })
                .collect()
        };

        let (failed, _, snap) =
            report::capture_obs(|| fold_hosts("synthetic", &cfg, hosts(Some(3))));
        let e = failed.expect_err("host 2 stopped");
        assert!(matches!(e, ResctrlError::InvalidCore(302)), "got {e:?}");
        assert_eq!(snap.to_prometheus(), METRICS);

        let (clean, _, _) = report::capture_obs(|| fold_hosts("synthetic", &cfg, hosts(None)));
        let trace = clean.expect("a clean fleet folds").trace;
        assert_eq!(
            trace.split_inclusive('\n').take(3).collect::<String>(),
            TRACE
        );
    }

    fn fold_error(edit: impl FnOnce(&mut Vec<Result<HostRun, ResctrlError>>)) -> ResctrlError {
        fold(edit).expect_err("a host failed")
    }

    #[test]
    fn error_precedence_is_build_then_epoch_then_host() {
        assert_eq!(fold(|_| {}).expect("a clean fleet folds").rows.len(), 5);

        // A build error on host 3 beats a tick error on host 0 at epoch 0.
        let e = fold_error(|ran| {
            ran[0] = host_run(0, Some(100));
            ran[3] = Err(ResctrlError::InvalidCore(103));
            ran[4] = Err(ResctrlError::InvalidCore(104));
        });
        assert!(matches!(e, ResctrlError::InvalidCore(103)), "got {e:?}");

        // The lower epoch wins whatever the host order.
        let e = fold_error(|ran| {
            ran[1] = host_run(4, Some(401));
            ran[5] = host_run(2, Some(205));
        });
        assert!(matches!(e, ResctrlError::InvalidCore(205)), "got {e:?}");

        // Equal epochs: the lower host.
        let e = fold_error(|ran| {
            ran[4] = host_run(3, Some(304));
            ran[2] = host_run(3, Some(302));
        });
        assert!(matches!(e, ResctrlError::InvalidCore(302)), "got {e:?}");
    }

    #[test]
    fn clustering_policies_bound_cos_pressure() {
        let r = run_fleet(FleetPolicy::Lfoc, &tiny(24)).expect("tiny fleet runs");
        for row in &r.rows {
            assert!(
                row.cos_used_max <= LfocConfig::default().max_clusters + 1,
                "epoch {}: lfoc used {} cos",
                row.epoch,
                row.cos_used_max
            );
        }
    }
}
