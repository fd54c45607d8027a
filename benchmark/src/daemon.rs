//! `daemon_churn`: the deployment path with no simulator in it.
//!
//! `dcat::daemon::run_daemon_observed` ticks against a resctrl fixture tree
//! (20 ways, 12 domains) with a zero interval, while the observer plays
//! the external sampler: a seeded, closed-loop analytic tenant model
//! whose miss rate falls with the ways the daemon just granted, with
//! seeded phase jumps, rewrites the telemetry CSV between ticks. Every
//! Figure-6 class and the apply path stay busy; `dcat`, `resctrl` and
//! `obs` do all the work, `llc_sim` and `workloads` none.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dcat::daemon::{run_daemon_observed, DaemonConfig, ObsOptions};
use dcat::{
    DcatConfig, DcatController, DomainReport, Event, FileTelemetry, ResiliencePolicy,
    TelemetryFeed, WorkloadHandle,
};
use dcat_obs::{FrameWriter, PolicyExt, Snapshot};
use perf_events::CounterSnapshot;
use resctrl::retry::{RetryEvent, RetryPolicy, RetryingController};
use resctrl::{CacheController, CatCapabilities, Cbm, FsBackend};
use smallrng::{split_seed, SmallRng};

use crate::harness::{timed, PartOutcome};
use crate::meters::{CatTotals, TimingCat};
use crate::procfs;
use crate::span::Trace;
use crate::stats::{geomean, Fnv};

const WAYS: u32 = 20;
/// Open-loop sampler steps digested at set-up to fingerprint the inputs.
const FINGERPRINT_TICKS: usize = 2_000;
/// Ticks dropped before tick gaps are summarised.
pub const WARMUP_TICKS: usize = 100;
/// Cycles every tenant's cores burn between two samples.
const CYCLES_PER_TICK: f64 = 2_000_000.0;
/// Cycles an LLC miss stalls a tenant.
const MISS_PENALTY: f64 = 180.0;

/// One program phase of a modelled tenant.
#[derive(Debug, Clone, Copy)]
struct PhaseModel {
    /// Memory references per instruction: dCat's phase signature.
    refs_per_instr: f64,
    /// LLC references per instruction.
    llc_per_instr: f64,
    /// Miss rate with no cache at all.
    miss_hi: f64,
    /// Miss rate once the working set fits.
    miss_floor: f64,
    /// Ways at which the working set fits.
    need_ways: f64,
    cpi_exec: f64,
}

impl PhaseModel {
    /// Falls quadratically from `miss_hi` to `miss_floor` at `need_ways`.
    fn miss_rate(&self, ways: u32) -> f64 {
        let short = (1.0 - f64::from(ways) / self.need_ways).max(0.0);
        self.miss_floor + (self.miss_hi - self.miss_floor) * short * short
    }

    fn ipc(&self, ways: u32) -> f64 {
        1.0 / (self.cpi_exec + self.llc_per_instr * self.miss_rate(ways) * MISS_PENALTY)
    }
}

/// Cache-hungry: gains steadily up to eight ways.
const HUNGRY: PhaseModel = PhaseModel {
    refs_per_instr: 0.34,
    llc_per_instr: 0.03,
    miss_hi: 0.7,
    miss_floor: 0.01,
    need_ways: 8.0,
    cpi_exec: 0.6,
};
/// Streaming: misses whatever it is given.
const STREAMING: PhaseModel = PhaseModel {
    refs_per_instr: 0.5,
    llc_per_instr: 0.05,
    miss_hi: 0.95,
    miss_floor: 0.9,
    need_ways: 400.0,
    cpi_exec: 0.5,
};
/// Compute-bound: hardly touches the LLC.
const QUIET: PhaseModel = PhaseModel {
    refs_per_instr: 0.2,
    llc_per_instr: 0.0002,
    miss_hi: 0.1,
    miss_floor: 0.1,
    need_ways: 1.0,
    cpi_exec: 0.5,
};
/// Fits its reservation: few misses at two ways, many below.
const SNUG: PhaseModel = PhaseModel {
    refs_per_instr: 0.27,
    llc_per_instr: 0.01,
    miss_hi: 0.5,
    miss_floor: 0.012,
    need_ways: 2.0,
    cpi_exec: 0.7,
};

/// Phase sets a tenant cycles through; neighbours in a set differ by
/// well over dCat's 10% phase threshold in `refs_per_instr`.
const ARCHETYPES: [&[PhaseModel]; 6] = [
    &[HUNGRY, QUIET],
    &[STREAMING, SNUG],
    &[QUIET, HUNGRY, SNUG],
    &[SNUG, STREAMING],
    &[HUNGRY, SNUG],
    &[QUIET, STREAMING],
];

struct Tenant {
    name: String,
    reserved: u32,
    phases: &'static [PhaseModel],
    phase: usize,
    /// Ways in force for the coming interval.
    ways: u32,
    totals: CounterSnapshot,
    /// Steady-window IPC sums under the granted and the reserved ways.
    ipc_granted: f64,
    ipc_reserved: f64,
}

/// The closed-loop sampler: tenants, their seeded phase schedule, and the
/// CSV they are rendered into.
struct Sampler {
    tenants: Vec<Tenant>,
    rng: SmallRng,
    /// A tenant jumps phase with probability `1 / jump_every` per tick.
    jump_every: u64,
    csv: String,
}

impl Sampler {
    fn new(seed: u64, domains: &[WorkloadHandle]) -> Self {
        let mut rng = SmallRng::seed_from_u64(split_seed(seed, 1));
        let tenants = domains
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let phases = ARCHETYPES[i % ARCHETYPES.len()];
                Tenant {
                    name: d.name.clone(),
                    reserved: d.reserved_ways,
                    phases,
                    phase: rng.gen_range_usize(0..phases.len()),
                    ways: d.reserved_ways,
                    totals: CounterSnapshot::default(),
                    ipc_granted: 0.0,
                    ipc_reserved: 0.0,
                }
            })
            .collect();
        Sampler {
            tenants,
            rng,
            jump_every: 250,
            csv: String::new(),
        }
    }

    /// Advances every tenant by one interval at its current ways, adopts
    /// the ways the daemon just reported for the next one, and renders
    /// the CSV. `steady` marks the window the promise metrics average.
    fn step(&mut self, reports: &[DomainReport], steady: bool) {
        self.csv.clear();
        self.csv
            .push_str("# name,l1_ref,llc_ref,llc_miss,ret_ins,cycles\n");
        for (i, t) in self.tenants.iter_mut().enumerate() {
            if self.rng.gen_range(0..self.jump_every) == 0 {
                t.phase = (t.phase + 1) % t.phases.len();
            }
            let model = t.phases[t.phase];
            let instructions = CYCLES_PER_TICK * model.ipc(t.ways);
            let llc_ref = instructions * model.llc_per_instr;
            t.totals.ret_ins += instructions as u64;
            t.totals.cycles += CYCLES_PER_TICK as u64;
            t.totals.l1_ref += (instructions * model.refs_per_instr) as u64;
            t.totals.llc_ref += llc_ref as u64;
            t.totals.llc_miss += (llc_ref * model.miss_rate(t.ways)) as u64;
            if steady {
                t.ipc_granted += model.ipc(t.ways);
                t.ipc_reserved += model.ipc(t.reserved);
            }
            if let Some(r) = reports.get(i) {
                t.ways = r.ways;
            }
            let c = &t.totals;
            let _ = writeln!(
                self.csv,
                "{},{},{},{},{},{}",
                t.name, c.l1_ref, c.llc_ref, c.llc_miss, c.ret_ins, c.cycles
            );
        }
    }
}

/// The daemon workload's generated inputs, its fixture tree, and the
/// first run's outputs.
pub struct Daemon {
    seed: u64,
    pub ticks: u64,
    pub root: PathBuf,
    domains: Vec<WorkloadHandle>,
    /// FNV-1a over the telemetry the sampler emits when nobody answers.
    pub input_digest: u64,
    first: Option<FirstRun>,
}

/// What the first measured run leaves behind for the simulated metrics
/// and the probes.
pub struct FirstRun {
    pub guarantee_min_ratio: f64,
    pub benefit_geomean_ratio: f64,
    pub frames: String,
    pub metrics: Snapshot,
    /// Per-tick host microseconds, warm-up dropped.
    pub tick_us: Vec<f64>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn domains() -> Vec<WorkloadHandle> {
    // Six tenants reserve two ways and six one: 18 of 20.
    (0..12u32)
        .map(|i| WorkloadHandle::new(format!("tenant-{i:02}"), vec![i], if i < 6 { 2 } else { 1 }))
        .collect()
}

/// FNV-1a over every tick's class and ways per domain.
fn fold_reports(h: &mut Fnv, reports: &[DomainReport]) {
    for r in reports {
        h.text(&r.class.to_string());
        h.word(u64::from(r.ways));
    }
}

/// Every domain's mask is present and the set is a legal CAT layout.
fn check_masks(reports: &[DomainReport]) -> Result<(), String> {
    let masks: Option<Vec<Cbm>> = reports
        .iter()
        .map(|r| r.cbm.and_then(|m| u32::try_from(m).ok()).map(Cbm))
        .collect();
    let masks = masks.ok_or("a domain has no mask")?;
    resctrl::invariants::check_layout(&masks, WAYS)
}

impl Daemon {
    /// Creates the fixture tree and the tenant set for `seed`. The tree
    /// is removed when the value is dropped.
    ///
    /// The tree goes on `/dev/shm` when that is writable, else under
    /// `out_dir`. A real resctrl mount is an in-memory kernfs, and a
    /// disk filesystem measures its journal instead of the daemon: on
    /// this box's ext4 the same ticks took 17 times as long and varied
    /// 2.5-fold from run to run.
    pub fn new(seed: u64, tiny: bool, out_dir: &Path) -> std::io::Result<Self> {
        let name = format!("dcat-sysbench-fixture-{}", std::process::id());
        let mut daemon = Daemon {
            seed,
            ticks: if tiny { 300 } else { 12_000 },
            root: Path::new("/dev/shm").join(&name),
            domains: domains(),
            input_digest: 0,
            first: None,
        };
        // Fingerprint the inputs: the sampler run open-loop, every tenant
        // held at its reservation.
        let mut sampler = Sampler::new(seed, &daemon.domains);
        let mut h = Fnv::new();
        for _ in 0..FINGERPRINT_TICKS {
            sampler.step(&[], false);
            h.text(&sampler.csv);
        }
        daemon.input_digest = h.finish();
        if daemon.reset_tree().is_err() {
            let _ = std::fs::remove_dir_all(&daemon.root);
            daemon.root = out_dir.join(&name);
            daemon.reset_tree()?;
        }
        Ok(daemon)
    }

    /// A freshly mounted tree and the tick-0 telemetry sample.
    fn reset_tree(&self) -> std::io::Result<Sampler> {
        let _ = std::fs::remove_dir_all(&self.root);
        std::fs::create_dir_all(&self.root)?;
        FsBackend::create_fixture(&self.root, CatCapabilities::with_ways(WAYS), 12)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let mut sampler = Sampler::new(self.seed, &self.domains);
        sampler.step(&[], false);
        std::fs::write(self.telemetry_path(), &sampler.csv)?;
        Ok(sampler)
    }

    fn telemetry_path(&self) -> PathBuf {
        self.root.join("telemetry.csv")
    }

    /// Whether the fixture tree sits on tmpfs, as a real resctrl mount's
    /// in-memory kernfs does; `None` without `/proc`.
    pub fn fixture_on_tmpfs(&self) -> Option<bool> {
        procfs::fs_type_of(&self.root).map(|t| t == "tmpfs")
    }

    /// Domain-ticks one run attempts.
    pub fn part_intervals(&self) -> u64 {
        self.ticks * self.domains.len() as u64
    }

    fn steady_from(&self) -> u64 {
        self.ticks - self.ticks / 4
    }

    /// One `run_daemon_observed` over `ticks` ticks. The wall time is the
    /// sum of the gaps between the observer's exit and its next entry
    /// plus the frame export the observer does as `dcatd` would — so the
    /// benchmark's own sampler (model step, CSV write, checks) is left
    /// out. CPU time cannot be split per tick, so the process's is
    /// apportioned by the same wall-time share.
    pub fn run_part(&mut self) -> PartOutcome {
        let intervals = self.part_intervals();
        let mut sampler = match self.reset_tree() {
            Ok(s) => s,
            Err(e) => {
                return PartOutcome {
                    intervals,
                    failed: intervals,
                    problems: vec![format!("fixture tree: {e}")],
                    ..PartOutcome::default()
                }
            }
        };
        let cfg = DaemonConfig {
            resctrl_root: self.root.clone(),
            telemetry_path: self.telemetry_path(),
            domains: self.domains.clone(),
            dcat: DcatConfig::default(),
            interval: Duration::ZERO,
            max_ticks: Some(self.ticks),
            resilience: ResiliencePolicy::default(),
            fault_plan: None,
            obs: ObsOptions::default(),
        };
        let telemetry_path = self.telemetry_path();
        let steady_from = self.steady_from();
        let n_domains = self.domains.len() as u64;
        let keep_frames = self.first.is_none();

        let mut digest = Fnv::new();
        let mut failed = 0u64;
        let mut problems: Vec<String> = Vec::new();
        let mut tick_ns: Vec<f64> = Vec::with_capacity(self.ticks as usize);
        let mut sampler_ns = 0f64;
        let mut frames = FrameWriter::new("dcatd");
        let mut last_reports: Vec<DomainReport> = Vec::new();
        let mut last_exit = Instant::now();

        let (outcome, _wall, cpu_s) = timed(|| {
            last_exit = Instant::now();
            run_daemon_observed(&cfg, |obs| {
                let ext = PolicyExt {
                    cos: n_domains as u32,
                    ..PolicyExt::default()
                };
                frames.push(dcat::frame_from_observation(obs, "dcat", ext));
                if !keep_frames {
                    frames.clear_buffer();
                }
                let exported = Instant::now();
                tick_ns.push((exported - last_exit).as_nanos() as f64);

                fold_reports(&mut digest, obs.reports);
                let violated = obs
                    .events
                    .iter()
                    .any(|e| matches!(e, Event::InvariantViolation { .. }));
                let bad_masks = check_masks(obs.reports).err();
                if obs.degraded || violated || bad_masks.is_some() {
                    failed += n_domains;
                    if problems.len() < 5 {
                        problems.push(format!(
                            "tick {}: degraded={} invariant_violation={violated} masks={bad_masks:?}",
                            obs.tick, obs.degraded
                        ));
                    }
                }
                sampler.step(obs.reports, obs.tick > steady_from);
                if let Err(e) = std::fs::write(&telemetry_path, &sampler.csv) {
                    problems.push(format!("tick {}: telemetry write: {e}", obs.tick));
                }
                last_reports = obs.reports.to_vec();
                last_exit = Instant::now();
                sampler_ns += (last_exit - exported).as_nanos() as f64;
            })
        });

        let metrics = match outcome {
            Ok(o) => Some(o.metrics),
            Err(e) => {
                let done = tick_ns.len() as u64 * n_domains;
                failed += intervals.saturating_sub(done);
                problems.push(format!("run_daemon: {e}"));
                None
            }
        };
        if let Err(e) = self.check_final_schemata(&last_reports) {
            failed = failed.max(n_domains);
            problems.push(e);
        }
        let daemon_ns: f64 = tick_ns.iter().sum();

        if self.first.is_none() {
            if let Some(metrics) = metrics {
                let frames = frames.into_string();
                if let Err(e) = crate::socket::check_frames(&frames, 1, self.ticks as usize) {
                    failed = failed.max(n_domains);
                    problems.push(e);
                }
                if let Err(e) = dcat_obs::check_prometheus(&metrics.to_prometheus()) {
                    failed = failed.max(n_domains);
                    problems.push(format!("metrics snapshot: {e}"));
                }
                let ratios: Vec<f64> = sampler
                    .tenants
                    .iter()
                    .map(|t| t.ipc_granted / t.ipc_reserved)
                    .collect();
                self.first = Some(FirstRun {
                    guarantee_min_ratio: ratios.iter().copied().fold(f64::INFINITY, f64::min),
                    benefit_geomean_ratio: geomean(&ratios),
                    frames,
                    metrics,
                    tick_us: tick_ns
                        .iter()
                        .skip(WARMUP_TICKS.min(tick_ns.len() / 2))
                        .map(|ns| ns / 1e3)
                        .collect(),
                });
            }
        }

        PartOutcome {
            intervals,
            failed: failed.min(intervals),
            wall_s: daemon_ns / 1e9,
            cpu_s: cpu_s.map(|c| c * daemon_ns / (daemon_ns + sampler_ns)),
            digest: digest.finish(),
            l1_refs: 0,
            problems,
        }
    }

    /// The first run's leftovers; a run must have completed.
    pub fn first(&self) -> &FirstRun {
        self.first
            .as_ref()
            .expect("the daemon runs before its outputs are read")
    }

    /// The tree's schemata must say what the last reports say.
    fn check_final_schemata(&self, reports: &[DomainReport]) -> Result<(), String> {
        let backend = FsBackend::open(&self.root).map_err(|e| format!("reopen tree: {e}"))?;
        for (d, r) in self.domains.iter().zip(reports) {
            for &core in &d.cores {
                let on_disk = backend
                    .core_cos(core)
                    .and_then(|cos| backend.cos_mask(cos))
                    .map_err(|e| format!("{}: read back: {e}", d.name))?;
                if Some(u64::from(on_disk.0)) != r.cbm {
                    return Err(format!(
                        "{}: schemata {on_disk} differs from the last report {:?}",
                        d.name, r.cbm
                    ));
                }
            }
        }
        Ok(())
    }

    /// The benchmark's own tick loop over the public layer calls the
    /// daemon makes: `TelemetryFeed::read`, `parse_telemetry_lossy`,
    /// `DcatController::tick` on a retrying `FsBackend`, frame export —
    /// a span around each, the sampler under `bench.sampler`.
    pub fn traced(&self, trace: &mut Trace) -> Result<TracedDaemon, String> {
        let mut sampler = self
            .reset_tree()
            .map_err(|e| format!("fixture tree: {e}"))?;
        let mut out = TracedDaemon::default();
        let err = |e: resctrl::ResctrlError| e.to_string();

        let setup = trace.enter("dcat.controller_new");
        let backend = FsBackend::open(&self.root).map_err(err)?;
        let mut cat = TimingCat::new(RetryingController::new(backend, RetryPolicy::default()));
        let mut controller =
            DcatController::new(DcatConfig::default(), self.domains.clone(), &mut cat)
                .map_err(err)?;
        trace.exit(setup);
        out.charge_cat(trace, setup, cat.take());

        let mut feed = FileTelemetry::new(self.telemetry_path());
        let mut frames = FrameWriter::new("dcatd");
        let mut digest = Fnv::new();
        let mut snapshots = vec![CounterSnapshot::default(); self.domains.len()];
        for tick in 1..=self.ticks {
            let whole = trace.enter("bench.tick");
            let text = trace
                .scope("dcat.telemetry_read", |_| feed.read(tick))
                .map_err(err)?;
            let (samples, issues) = trace.scope("dcat.telemetry_parse", |_| {
                dcat::parse_telemetry_lossy(&text)
            });
            if !issues.is_empty() {
                return Err(format!("tick {tick}: malformed telemetry rows"));
            }
            for (slot, d) in snapshots.iter_mut().zip(&self.domains) {
                *slot = *samples
                    .get(&d.name)
                    .ok_or_else(|| format!("tick {tick}: {} missing", d.name))?;
            }

            let id = trace.enter("dcat.tick");
            let reports = controller.tick(&snapshots, &mut cat).map_err(err)?;
            trace.exit(id);
            out.retries += cat
                .inner_mut()
                .take_events()
                .iter()
                .filter(|e| matches!(e, RetryEvent::Retried { .. }))
                .count() as u64;
            out.charge_cat(trace, id, cat.take());

            trace.scope("obs.frame_export", |_| {
                let ext = PolicyExt {
                    cos: self.domains.len() as u32,
                    ..PolicyExt::default()
                };
                frames.push(dcat::frame_from_reports(tick, "dcat", &reports, ext));
            });
            trace.exit(whole);

            let sampling = trace.enter("bench.sampler");
            fold_reports(&mut digest, &reports);
            out.phase_changes += reports.iter().filter(|r| r.phase_changed).count() as u64;
            sampler.step(&reports, false);
            std::fs::write(self.telemetry_path(), &sampler.csv)
                .map_err(|e| format!("tick {tick}: telemetry write: {e}"))?;
            trace.exit(sampling);
        }
        out.digest = digest.finish();
        out.frames = frames.into_string();
        out.max_perf_split_us = crate::probes::max_perf_split_us(&controller);
        Ok(out)
    }
}

/// What the traced tick loop hands back besides its spans.
#[derive(Default)]
pub struct TracedDaemon {
    pub digest: u64,
    pub frames: String,
    pub cat: CatTotals,
    pub retries: u64,
    pub phase_changes: u64,
    pub max_perf_split_us: f64,
}

impl TracedDaemon {
    /// Hangs the filesystem backend's operations under `parent`.
    fn charge_cat(&mut self, trace: &mut Trace, parent: crate::span::SpanId, t: CatTotals) {
        trace.leaf(parent, "resctrl.program_cos", t.program_ns, t.program_calls);
        trace.leaf(parent, "resctrl.assign_core", t.assign_ns, t.assign_calls);
        trace.leaf(parent, "resctrl.flush_cbm", t.flush_ns, t.flush_calls);
        trace.leaf(parent, "resctrl.read", t.read_ns, t.read_calls);
        self.cat.add(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modelled_miss_rate_falls_with_ways_and_ipc_rises() {
        for model in [HUNGRY, STREAMING, QUIET, SNUG] {
            for ways in 1..WAYS {
                assert!(model.miss_rate(ways + 1) <= model.miss_rate(ways));
                assert!(model.ipc(ways + 1) >= model.ipc(ways));
            }
        }
        assert!(HUNGRY.ipc(8) > 1.5 * HUNGRY.ipc(2), "hungry tenants gain");
        assert!(
            STREAMING.ipc(20) < 1.05 * STREAMING.ipc(1),
            "streaming ones do not"
        );
    }

    #[test]
    fn neighbouring_phases_differ_by_more_than_the_phase_threshold() {
        for set in ARCHETYPES {
            for (a, b) in set.iter().zip(set.iter().cycle().skip(1)) {
                let change = (a.refs_per_instr - b.refs_per_instr).abs() / a.refs_per_instr;
                assert!(change > 0.10, "{change}");
            }
        }
    }

    #[test]
    fn the_sampler_is_a_function_of_its_seed() {
        let render = |seed| {
            let mut s = Sampler::new(seed, &domains());
            for _ in 0..500 {
                s.step(&[], false);
            }
            s.csv
        };
        assert_eq!(render(7), render(7));
        assert_ne!(render(7), render(8));
    }
}
