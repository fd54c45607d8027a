//! One run of one workload: the untraced pass that yields the end-to-end
//! metrics, and the traced pass that yields the per-layer ledger.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dcat_bench::fleet::FleetPolicy;
use llc_sim::{CoreCounters, SimFidelity};

use crate::daemon::Daemon;
use crate::fleet::{tenant_totals_digest, Fleet, ShardPolicy};
use crate::harness::{p50_p95_p99, timed_setup, Opts, Report, Rounds};
use crate::hostloop::HostRun;
use crate::meters::{Capture, CatTotals, StreamTotals};
use crate::metrics::{LAYERS, PER_LAYER};
use crate::probes::{self, Replay};
use crate::procfs;
use crate::socket::{Kind, Socket};
use crate::span::{layer_self_ns, Trace};
use crate::stats::{median, percentile};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "socket_mixed",
    "socket_services",
    "fleet_diurnal",
    "daemon_churn",
];

/// References the replay probes capture: half warms, half is timed.
const CAPTURE_REFS: usize = 1_000_000;

/// Most untraced/traced pairs one traced run makes: the daemon's pair is
/// well under a second and 100 000 spans, and every span stays in memory.
const MAX_PAIRS: u32 = 8;

/// Runs `workload` once. With `trace` the metrics are the per-layer ones,
/// without it the end-to-end ones.
pub fn run(workload: &str, opts: &Opts, trace: bool) -> Result<Report, String> {
    // Everything is single-threaded: on two shared cores a second worker
    // measures the scheduler, not the program.
    dcat_bench::runner::set_jobs(1);
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let mut report = match (workload, trace) {
        ("socket_mixed", false) => socket_untraced(Kind::Mixed, opts),
        ("socket_services", false) => socket_untraced(Kind::Services, opts),
        ("fleet_diurnal", false) => fleet_untraced(opts),
        ("daemon_churn", false) => daemon_untraced(opts)?,
        ("socket_mixed", true) => socket_traced(Kind::Mixed, workload, opts)?,
        ("socket_services", true) => socket_traced(Kind::Services, workload, opts)?,
        ("fleet_diurnal", true) => fleet_traced(workload, opts)?,
        ("daemon_churn", true) => daemon_traced(workload, opts)?,
        _ => {
            return Err(format!(
                "unknown workload '{workload}' (one of {WORKLOADS:?})"
            ))
        }
    };
    if trace {
        report.set("bench.spin_calibration_ns", probes::spin_calibration_ns());
        // A layer the workload never enters reports 0, so every run
        // carries every declared per-layer metric.
        for d in PER_LAYER {
            report.metrics.entry(d.name.to_string()).or_insert(0.0);
        }
        report.set(
            "bench.sim_digest_lo32",
            (report.digest & 0xffff_ffff) as f64,
        );
    }
    Ok(report)
}

/// Fills in what every untraced report shares.
fn end_to_end(report: &mut Report, rounds: &Rounds, setup_s: f64, promise: Option<(f64, f64)>) {
    report.attempted = rounds.attempted();
    report.failed = rounds.failed();
    report.problems = rounds.problems();
    report.digest = rounds.digest();
    report.set("setup_s", setup_s);
    report.set("domain_intervals_per_s", rounds.intervals_per_s());
    // Without /proc these two are left out, not reported as zero.
    if let Some(cpu) = rounds.cpu_us_per_interval() {
        report.set("cpu_us_per_interval", cpu);
    }
    if let Some(rss) = procfs::peak_rss_mb() {
        report.set("peak_rss_mb", rss);
    }
    match promise {
        Some((guarantee, benefit)) => {
            report.set("guarantee_min_ratio", guarantee);
            report.set("benefit_geomean_ratio", benefit);
        }
        None => report
            .problems
            .push("no complete round: simulated metrics unavailable".to_string()),
    }
    report.notes.push(format!(
        "rounds {}  round_wall_s {:.3}",
        rounds.parts.first().map_or(0, Vec::len),
        rounds.round_wall_s()
    ));
    for (part, outcomes) in rounds.parts.iter().enumerate() {
        let walls: Vec<String> = outcomes
            .iter()
            .map(|o| format!("{:.4}", o.wall_s))
            .collect();
        report
            .notes
            .push(format!("part {part} wall_s {}", walls.join(" ")));
    }
}

/// Whether every part completed its first execution without a problem.
fn first_round_complete(rounds: &Rounds) -> bool {
    rounds.parts.iter().all(|p| {
        p.first()
            .is_some_and(|o| o.problems.is_empty() && o.failed == 0)
    })
}

fn socket_untraced(kind: Kind, opts: &Opts) -> Report {
    let (mut socket, setup_s) = timed_setup(|| Socket::new(kind, opts.seed, opts.tiny));
    let intervals = socket.part_intervals();
    let rounds = Rounds::measure(opts.seconds, &[intervals; 2], |p| socket.run_part(p));
    let mut report = Report::default();
    let promise = first_round_complete(&rounds).then(|| socket.promise());
    end_to_end(&mut report, &rounds, setup_s, promise);
    report.notes.push(format!(
        "input_digest {:016x}  sim_refs_per_s {:.0}",
        socket.input_digest,
        rounds.sim_refs_per_s()
    ));
    if promise.is_some() {
        report.notes.extend(socket.dcat_decisions());
    }
    report
}

fn fleet_untraced(opts: &Opts) -> Report {
    let (mut fleet, setup_s) = timed_setup(|| Fleet::new(opts.seed, opts.tiny));
    let intervals = fleet.part_intervals();
    let rounds = Rounds::measure(opts.seconds, &[intervals; 4], |p| fleet.run_part(p));
    let mut report = Report::default();
    let promise = first_round_complete(&rounds).then(|| fleet.promise());
    end_to_end(&mut report, &rounds, setup_s, promise);
    report
        .notes
        .push(format!("input_digest {:016x}", fleet.input_digest));
    report
}

fn daemon_untraced(opts: &Opts) -> Result<Report, String> {
    let (daemon, setup_s) = timed_setup(|| Daemon::new(opts.seed, opts.tiny, &opts.out_dir));
    let mut daemon = daemon.map_err(|e| format!("fixture tree: {e}"))?;
    let intervals = daemon.part_intervals();
    let rounds = Rounds::measure(opts.seconds, &[intervals], |_| daemon.run_part());
    let mut report = Report::default();
    let promise = first_round_complete(&rounds).then(|| {
        let first = daemon.first();
        (first.guarantee_min_ratio, first.benefit_geomean_ratio)
    });
    end_to_end(&mut report, &rounds, setup_s, promise);
    report.notes.push(format!(
        "input_digest {:016x}  fixture {}  tmpfs {:?}",
        daemon.input_digest,
        daemon.root.display(),
        daemon.fixture_on_tmpfs()
    ));
    Ok(report)
}

/// Alternates one untraced round through the public entry points with
/// one traced round of the benchmark's own loop until the time is used
/// up or [`MAX_PAIRS`] are made, so both passes see the same weather.
struct Passes {
    reference: Rounds,
    traced_rounds: u32,
}

fn alternate(
    seconds: f64,
    part_intervals: &[u64],
    mut untraced_part: impl FnMut(usize) -> crate::harness::PartOutcome,
    mut traced_round: impl FnMut(u32) -> Result<(), String>,
) -> Result<Passes, String> {
    let start = Instant::now();
    let mut passes = Passes {
        reference: Rounds {
            parts: vec![Vec::new(); part_intervals.len()],
        },
        traced_rounds: 0,
    };
    loop {
        let pair_start = Instant::now();
        let one = Rounds::measure(0.0, part_intervals, &mut untraced_part);
        for (all, mut new) in passes.reference.parts.iter_mut().zip(one.parts) {
            all.append(&mut new);
        }
        if !passes.reference.problems().is_empty() {
            return Ok(passes);
        }
        traced_round(passes.traced_rounds)?;
        passes.traced_rounds += 1;
        let pair = pair_start.elapsed().as_secs_f64();
        if passes.traced_rounds == MAX_PAIRS
            || start.elapsed().as_secs_f64() + pair / 2.0 >= seconds
        {
            return Ok(passes);
        }
    }
}

/// What the traced passes of the simulated workloads accumulate.
#[derive(Default)]
struct SimTotals {
    streams: StreamTotals,
    cat: CatTotals,
    counters: CoreCounters,
    phase_changes: u64,
    max_perf_split_us: Option<f64>,
}

impl SimTotals {
    fn add(&mut self, run: &HostRun) {
        self.streams.add(run.streams);
        self.cat.add(run.cat);
        self.counters = self.counters.merged_with(&run.counters);
        self.phase_changes += run.phase_changes();
        if run.max_perf_split_us.is_some() {
            self.max_perf_split_us = run.max_perf_split_us;
        }
    }
}

/// Per-layer metrics the simulated workloads share.
fn sim_layer_metrics(
    report: &mut Report,
    trace: &Trace,
    totals: &SimTotals,
    rounds: f64,
    replay: &Replay,
) {
    let s = &totals.streams;
    let refs = s.refs.max(1) as f64;
    report.set("workloads.next_batch_ns_per_ref", s.ns as f64 / refs);
    report.set("workloads.refs", s.refs as f64 / rounds);
    report.set("workloads.batches", s.batches as f64 / rounds);
    report.set(
        "workloads.diurnal_filler_share",
        s.filler_refs as f64 / refs,
    );

    report.set("llc_sim.translate_ns_per_ref", replay.translate_ns_per_ref);
    report.set("llc_sim.mapped_pages", replay.mapped_pages as f64);
    let c = &totals.counters;
    let l1 = c.l1_ref.max(1) as f64;
    report.set("llc_sim.l1_hit_share", (c.l1_ref - c.l1_miss) as f64 / l1);
    report.set("llc_sim.l2_hit_share", (c.l1_miss - c.llc_ref) as f64 / l1);
    report.set(
        "llc_sim.llc_hit_share",
        (c.llc_ref - c.llc_miss) as f64 / l1,
    );
    report.set("llc_sim.llc_miss_share", c.llc_miss as f64 / l1);

    let epochs = trace.durations("host.run_epoch");
    let (p50, p95, _) = p50_p95_p99(&epochs);
    report.set("host.run_epoch_ms_p50", p50 / 1e6);
    report.set("host.run_epoch_ms_p95", p95 / 1e6);
    let epoch_ns: f64 = epochs.iter().sum();
    let inner_ns =
        s.ns as f64 + s.refs as f64 * (replay.translate_ns_per_ref + replay.access_ns_per_ref);
    report.set(
        "host.engine_self_share",
        (epoch_ns - inner_ns) / epoch_ns.max(1.0),
    );
    report.set(
        "host.engine_new_ms",
        median(&trace.durations("host.engine_new")) / 1e6,
    );
    report.set(
        "host.snapshots_us",
        median(&trace.durations("host.snapshots")) / 1e3,
    );
    report.set(
        "host.cat_flush_us_per_call",
        totals.cat.flush_ns as f64 / 1e3 / totals.cat.flush_calls.max(1) as f64,
    );

    tick_metrics(report, trace);
    report.set("dcat.phase_changes", totals.phase_changes as f64 / rounds);
    report.set(
        "dcat.max_perf_split_us",
        totals.max_perf_split_us.unwrap_or(0.0),
    );
}

/// `dcat.tick_*` from the `dcat.tick` spans.
fn tick_metrics(report: &mut Report, trace: &Trace) {
    let (p50, p95, p99) = p50_p95_p99(&trace.durations("dcat.tick"));
    report.set("dcat.tick_us_p50", p50 / 1e3);
    report.set("dcat.tick_us_p95", p95 / 1e3);
    report.set("dcat.tick_us_p99", p99 / 1e3);
    if let Some((self_ns, total_ns, _)) = trace.self_times(None).get("dcat.tick") {
        report.set(
            "dcat.tick_self_share",
            *self_ns as f64 / (*total_ns).max(1) as f64,
        );
    }
}

/// Probes that need nothing from the run, and the frame/metrics probes
/// on what the untraced pass wrote.
fn common_probes(
    report: &mut Report,
    trace: &Trace,
    frames: &str,
    snapshot: Option<&dcat_obs::Snapshot>,
) -> Result<(), String> {
    report.set("host.pool_map_us_jobs1", probes::pool_map_us(1, 20));
    report.set("host.pool_map_us_jobs2", probes::pool_map_us(2, 20));
    let obs = probes::obs_probe(frames)?;
    report.set(
        "obs.frame_encode_us_per_frame",
        median(&trace.durations("obs.frame_export")) / 1e3,
    );
    report.set("obs.frame_bytes_per_frame", obs.frame_bytes_per_frame);
    report.set(
        "obs.parse_stream_us_per_frame",
        obs.parse_stream_us_per_frame,
    );
    report.set("top.render_us_per_frame", obs.top_render_us_per_frame);
    report.set("dcat.ways_moved_per_tick", obs.ways_moved_per_tick);
    if let Some(snapshot) = snapshot {
        let (render_us, series) = probes::metrics_probe(snapshot)?;
        report.set("obs.metrics_render_us", render_us);
        report.set("obs.metric_series", series as f64);
    }
    Ok(())
}

/// How one workload's traced round maps onto its untraced round.
struct LedgerShape<'a> {
    /// Estimated `llc_sim` nanoseconds per traced round (references times
    /// probe cost). The layer has no span of its own because it runs
    /// inside `Engine::run_epoch`, so this much is moved out of `host`.
    llc_sim_ns: f64,
    /// Spans the untraced wall time does not contain either (the
    /// daemon's sampler).
    excluded: &'a [&'a str],
    /// Untraced rounds one traced round stands for: the fleet's traced
    /// round is one host of twenty.
    scale: f64,
}

/// The ledger: each layer's self time in the best traced round as a
/// share of the best untraced round's wall time, what is left over, and
/// how much longer the traced round took.
///
/// Returns the traced round it used, which is the one written out.
fn ledger(report: &mut Report, trace: &Trace, passes: &Passes, shape: LedgerShape<'_>) -> u32 {
    let untraced_ns = passes.reference.round_wall_s() * 1e9;
    // A traced round is as long as its root spans: what the benchmark
    // does between them (probes, digests) belongs to neither pass. The
    // best one is held against the best untraced round.
    let mut round_ns: BTreeMap<u32, f64> = BTreeMap::new();
    for s in &trace.spans {
        if s.parent.is_none() && !shape.excluded.contains(&s.name) {
            *round_ns.entry(s.run).or_default() += s.dur_ns() as f64;
        }
    }
    let (best_run, traced_ns) = round_ns
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0, 0.0));
    let times = trace.self_times(Some(best_run));
    let excluded_ns = |layer: &str| -> u64 {
        shape
            .excluded
            .iter()
            .filter(|name| name.split('.').next() == Some(layer))
            .filter_map(|name| times.get(name).map(|t| t.0))
            .sum()
    };
    let mut per_layer: BTreeMap<&str, f64> = LAYERS
        .iter()
        .map(|l| (*l, (layer_self_ns(&times, l) - excluded_ns(l)) as f64))
        .collect();
    *per_layer.entry("host").or_default() -= shape.llc_sim_ns;
    *per_layer.entry("llc_sim").or_default() += shape.llc_sim_ns;

    let mut covered = 0.0;
    for (layer, ns) in &per_layer {
        let share = ns * shape.scale / untraced_ns;
        covered += share;
        report.set(&format!("{layer}.self_share"), share);
    }
    report.set("bench.ledger_residual_share", 1.0 - covered);
    report.set(
        "bench.trace_overhead_share",
        traced_ns * shape.scale / untraced_ns - 1.0,
    );
    report.notes.push(format!(
        "pairs {}  best untraced_round_s {:.3}  best traced_round_s {:.3}",
        passes.traced_rounds,
        untraced_ns / 1e9,
        traced_ns / 1e9
    ));
    best_run
}

/// Finishes a traced report: counts, digest check, trace file.
fn finish_traced(
    report: &mut Report,
    workload: &str,
    opts: &Opts,
    trace: &Trace,
    ledger_run: u32,
    passes: &Passes,
    digest_mismatch: bool,
) -> Result<(), String> {
    report.attempted = passes.reference.attempted();
    report.failed = passes.reference.failed();
    report.problems.extend(passes.reference.problems());
    report.digest = passes.reference.digest();
    if digest_mismatch {
        report
            .problems
            .push("traced pass: sim_digest differs from the untraced pass".to_string());
        report.failed = report.attempted;
    }
    report.set("host.sim_refs_per_s", passes.reference.sim_refs_per_s());
    let path = opts.out_dir.join(format!("trace-{workload}.jsonl"));
    trace
        .write_jsonl(&path, ledger_run)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.notes.push(format!(
        "trace {} (round {ledger_run} of {} spans in all)",
        path.display(),
        trace.spans.len()
    ));
    Ok(())
}

fn socket_traced(kind: Kind, workload: &str, opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let socket = std::cell::RefCell::new(Socket::new(kind, opts.seed, opts.tiny));
    let intervals = socket.borrow().part_intervals();
    let mut trace = Trace::new(true);
    let capture = Arc::new(Mutex::new(Capture::new(CAPTURE_REFS)));
    let mut totals = SimTotals::default();
    let mut traced_digests = [0u64; 2];
    let mut masks = None;

    let passes = alternate(
        opts.seconds,
        &[intervals; 2],
        |p| socket.borrow_mut().run_part(p),
        |round| {
            trace.set_run(round);
            for (part, slot) in traced_digests.iter_mut().enumerate() {
                // References are captured once, under dCat.
                let cap = (round == 0 && part == 1).then(|| capture.clone());
                let (run, digest) = socket.borrow().traced_part(part, &mut trace, cap);
                *slot = digest;
                totals.add(&run);
                if part == 1 {
                    masks = Some((run.fill_masks, run.primary_cores));
                }
            }
            Ok(())
        },
    )?;
    let socket = socket.into_inner();
    let reference_digests: Vec<u64> = passes
        .reference
        .parts
        .iter()
        .map(|p| p.first().map_or(0, |o| o.digest))
        .collect();
    let mismatch = reference_digests != traced_digests;

    let rounds = f64::from(passes.traced_rounds.max(1));
    let (fill_masks, cores) = masks.unwrap_or_default();
    let captured = capture.lock().expect("no stream holds the capture now");
    let replay = probes::replay(
        &captured,
        &socket.engine_config(),
        SimFidelity::Full,
        &fill_masks,
        &cores,
    );
    report.set("llc_sim.access_ns_per_ref", replay.access_ns_per_ref);
    sim_layer_metrics(&mut report, &trace, &totals, rounds, &replay);
    if passes.reference.problems().is_empty() {
        common_probes(
            &mut report,
            &trace,
            socket.dcat_frames(),
            socket.snapshot.as_ref(),
        )?;
        report.set("bench.svc_p99_latency_ratio", socket.p99_latency_ratio());
    }
    let llc_sim_ns = totals.streams.refs as f64 / rounds
        * (replay.translate_ns_per_ref + replay.access_ns_per_ref);
    let shape = LedgerShape {
        llc_sim_ns,
        excluded: &[],
        scale: 1.0,
    };
    let ledger_run = ledger(&mut report, &trace, &passes, shape);
    finish_traced(
        &mut report,
        workload,
        opts,
        &trace,
        ledger_run,
        &passes,
        mismatch,
    )?;
    Ok(report)
}

fn fleet_traced(workload: &str, opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let fleet = std::cell::RefCell::new(Fleet::new(opts.seed, opts.tiny));
    let intervals = fleet.borrow().part_intervals();
    let mut trace = Trace::new(true);
    let capture = Arc::new(Mutex::new(Capture::new(CAPTURE_REFS)));
    let mut totals = SimTotals::default();
    let mut traced_digests = [0u64; 4];
    let mut masks = None;

    let passes = alternate(
        opts.seconds,
        &[intervals; 4],
        |p| fleet.borrow_mut().run_part(p),
        |round| {
            trace.set_run(round);
            for (part, policy) in FleetPolicy::ALL.into_iter().enumerate() {
                let cap = (round == 0 && part == 0).then(|| capture.clone());
                let shard = fleet
                    .borrow()
                    .run_shard(ShardPolicy::Fleet(policy), &mut trace, cap);
                traced_digests[part] = tenant_totals_digest(&shard.instructions, &shard.requests);
                totals.add(&shard.run);
                if part == 0 {
                    masks = Some((shard.run.fill_masks, shard.run.primary_cores));
                }
            }
            Ok(())
        },
    )?;
    let fleet = fleet.into_inner();
    let complete = passes.reference.problems().is_empty();

    // The traced pass re-runs host 0 only: its per-tenant totals must be
    // the ones `run_fleet` reported for the first shard.
    let per_host = fleet.cfg.tenants_per_host as usize;
    let mismatch = complete
        && (0..4).any(|part| {
            let r = fleet.result(part);
            let n = per_host.min(r.tenant_instructions.len());
            tenant_totals_digest(&r.tenant_instructions[..n], &r.tenant_requests[..n])
                != traced_digests[part]
        });

    let rounds = f64::from(passes.traced_rounds.max(1));
    let (fill_masks, cores) = masks.unwrap_or_default();
    let captured = capture.lock().expect("no stream holds the capture now");
    let engine = fleet.host_engine_config(0);
    let full = probes::replay(&captured, &engine, SimFidelity::Full, &fill_masks, &cores);
    let sampled = probes::replay(
        &captured,
        &engine,
        fleet.cfg.llc_fidelity,
        &fill_masks,
        &cores,
    );
    report.set("llc_sim.access_ns_per_ref", full.access_ns_per_ref);
    report.set(
        "llc_sim.access_sampled_ns_per_ref",
        sampled.access_ns_per_ref,
    );
    // The fleet runs sampled: that is the cost its ledger is charged.
    sim_layer_metrics(&mut report, &trace, &totals, rounds, &sampled);

    if complete {
        common_probes(&mut report, &trace, &fleet.result(0).frames, None)?;
        report.set("bench.fleet_jain_fairness", fleet.jain_fairness_min());
        report.set("bench.fleet_llc_miss_rate", fleet.llc_miss_rate_max());
        for (part, policy) in FleetPolicy::ALL.into_iter().enumerate() {
            report.set(
                &format!("dcat.cos_per_host.{}", policy.label()),
                fleet.result(part).mean_cos_used(),
            );
        }
        report.set("host.pool_scaling_2", pool_scaling_2(opts));
    }

    // One traced round covers host 0 of the fleet's twenty: its spans are
    // scaled to the fleet before they are held against the fleet's wall
    // time, which assumes host 0 is a typical host.
    let shape = LedgerShape {
        llc_sim_ns: totals.streams.refs as f64 / rounds
            * (sampled.translate_ns_per_ref + sampled.access_ns_per_ref),
        excluded: &[],
        scale: f64::from(fleet.cfg.hosts()),
    };
    let ledger_run = ledger(&mut report, &trace, &passes, shape);
    finish_traced(
        &mut report,
        workload,
        opts,
        &trace,
        ledger_run,
        &passes,
        mismatch,
    )?;
    Ok(report)
}

/// Wall time of a quarter-length dCat fleet at one worker over the same
/// at two. Informational: two workers on two shared cores mostly measure
/// the neighbours.
fn pool_scaling_2(opts: &Opts) -> f64 {
    let mut fleet = Fleet::new(opts.seed, opts.tiny);
    fleet.cfg.epochs = (fleet.cfg.epochs / 4).max(1);
    let mut wall = |jobs: usize| {
        dcat_bench::runner::set_jobs(jobs);
        let samples: Vec<f64> = (0..3).map(|_| fleet.run_part(0).wall_s).collect();
        median(&samples)
    };
    let (one, two) = (wall(1), wall(2));
    dcat_bench::runner::set_jobs(1);
    one / two
}

fn daemon_traced(workload: &str, opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let daemon = std::cell::RefCell::new(
        Daemon::new(opts.seed, opts.tiny, &opts.out_dir)
            .map_err(|e| format!("fixture tree: {e}"))?,
    );
    let intervals = daemon.borrow().part_intervals();
    let mut trace = Trace::new(true);
    let mut cat = CatTotals::default();
    let mut last = None;

    let passes = alternate(
        opts.seconds,
        &[intervals],
        |_| daemon.borrow_mut().run_part(),
        |round| {
            trace.set_run(round);
            let traced = daemon.borrow().traced(&mut trace)?;
            cat.add(traced.cat);
            last = Some(traced);
            Ok(())
        },
    )?;
    let daemon = daemon.into_inner();
    let rounds = f64::from(passes.traced_rounds.max(1));
    let ticks = daemon.ticks as f64 * rounds;
    let reference_digest = passes.reference.parts[0].first().map_or(0, |o| o.digest);
    let mismatch = last.as_ref().is_some_and(|t| t.digest != reference_digest);

    tick_metrics(&mut report, &trace);
    report.set(
        "dcat.telemetry_read_us",
        median(&trace.durations("dcat.telemetry_read")) / 1e3,
    );
    report.set(
        "dcat.telemetry_parse_us",
        median(&trace.durations("dcat.telemetry_parse")) / 1e3,
    );
    report.set("resctrl.calls_per_tick", cat.write_calls() as f64 / ticks);
    report.set(
        "resctrl.apply_us_per_tick",
        cat.write_ns() as f64 / 1e3 / ticks,
    );
    report.set(
        "resctrl.fs_write_us_per_call",
        cat.write_ns() as f64 / 1e3 / cat.write_calls().max(1) as f64,
    );
    if let Some(tmpfs) = daemon.fixture_on_tmpfs() {
        report.set("resctrl.fixture_on_tmpfs", f64::from(u8::from(tmpfs)));
    }
    if let Some(t) = &last {
        report.set("resctrl.retries", t.retries as f64);
        report.set("dcat.phase_changes", t.phase_changes as f64);
        report.set("dcat.max_perf_split_us", t.max_perf_split_us);
    }
    if passes.reference.problems().is_empty() {
        let first = daemon.first();
        common_probes(&mut report, &trace, &first.frames, Some(&first.metrics))?;
        report.set("dcat.daemon_tick_us_p50", percentile(&first.tick_us, 50.0));
        report.set("dcat.daemon_tick_us_p99", percentile(&first.tick_us, 99.0));
    }
    // The untraced wall time leaves the sampler out; so does the ledger.
    let shape = LedgerShape {
        llc_sim_ns: 0.0,
        excluded: &["bench.sampler"],
        scale: 1.0,
    };
    let ledger_run = ledger(&mut report, &trace, &passes, shape);
    report
        .notes
        .push(format!("fixture {}", daemon.root.display()));
    finish_traced(
        &mut report,
        workload,
        opts,
        &trace,
        ledger_run,
        &passes,
        mismatch,
    )?;
    Ok(report)
}
