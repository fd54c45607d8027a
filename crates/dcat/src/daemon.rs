//! The dCat daemon: the deployment form of the controller.
//!
//! The paper's prototype is "a C program \[that\] runs as a daemon in the
//! host OS", reading MSR counters and programming CAT once per interval.
//! This module is the Rust equivalent with the two hardware touchpoints
//! abstracted:
//!
//! * CAT is programmed through [`resctrl::FsBackend`] — point it at a real
//!   `/sys/fs/resctrl` mount on CAT hardware, or at a fixture tree for
//!   testing, and
//! * counters are read from a **telemetry file** that an external sampler
//!   (an MSR reader, a `perf` wrapper, or the simulator) refreshes; the
//!   format is one CSV line per domain:
//!
//! ```text
//! # name,l1_ref,llc_ref,llc_miss,ret_ins,cycles   (monotonic totals)
//! tenant-a,340000,120000,60000,1000000,20000000
//! tenant-b,20000,100,10,1000000,800000
//! ```
//!
//! # Fault tolerance
//!
//! A daemon that runs unattended for hours meets transient failures as a
//! matter of course, so the loop never dies on one: a tick degrades, a
//! domain is quarantined, only *fatal* errors abort. All of that is
//! [`crate::control::ControlLoop::step`]; this module is its driver: the
//! interval sleep, the `tick` span, the metric series, the flight recorder.
//!
//! The `dcatd` binary wraps [`run_daemon_observed`] with command-line parsing.

// Privileged I/O: no I/O `Result` or error severity is dropped on the floor
// (DESIGN.md §12). `clippy.toml` has no in-tests switch for these; the unit
// tests own their cleanup and casts. `as_conversions`: counter math never
// truncates silently.
#![cfg_attr(
    not(test),
    deny(
        clippy::let_underscore_must_use,
        clippy::wildcard_enum_match_arm,
        clippy::as_conversions
    )
)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use dcat_obs::{FlightRecorder, Registry, SeriesId, Tracer, DEFAULT_STEP_BUCKETS};
use resctrl::fault::FaultPlan;
use resctrl::retry::{RetryEvent, RetryingController};
use resctrl::{CacheController, FaultingController, FsBackend, ResctrlError};

use crate::config::DcatConfig;
use crate::control::ControlLoop;
pub use crate::control::ResiliencePolicy;
use crate::control::TickObservation;
use crate::controller::{check_cores, DcatController, DomainReport, WorkloadHandle};
use crate::events::Event;
use crate::policy::CachePolicy;
use crate::telemetry::{CsvTelemetry, FaultyTelemetry, FileTelemetry, TelemetryFeed};

/// Observability knobs for the daemon loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsOptions {
    /// Flight-recorder window: how many of the most recent ticks' spans
    /// and events are retained for the post-mortem dump (0 disables the
    /// recorder entirely).
    pub flight_recorder_ticks: usize,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            flight_recorder_ticks: 64,
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root of the resctrl tree (`/sys/fs/resctrl` on hardware).
    pub resctrl_root: PathBuf,
    /// Path of the telemetry CSV refreshed by the external sampler.
    pub telemetry_path: PathBuf,
    /// Managed workloads; names must match the telemetry file.
    pub domains: Vec<WorkloadHandle>,
    /// Controller thresholds.
    pub dcat: DcatConfig,
    /// Sampling interval (the paper uses 1 s).
    pub interval: Duration,
    /// Stop after this many ticks (`None` = run forever). Used by tests
    /// and by one-shot invocations.
    pub max_ticks: Option<u64>,
    /// Recovery knobs.
    pub resilience: ResiliencePolicy,
    /// Deterministic fault schedule injected into both the resctrl
    /// backend and the telemetry feed (`None` = inject nothing). Drives
    /// the fault-sweep experiments and the end-to-end fault tests.
    pub fault_plan: Option<FaultPlan>,
    /// Observability knobs.
    pub obs: ObsOptions,
}

/// One report's slice of a frame: the name is lent, the class is the
/// schema table's own string.
fn domain_frame(r: &DomainReport, quarantined: bool, held: bool) -> dcat_obs::DomainFrame<'_> {
    dcat_obs::DomainFrame {
        name: Cow::Borrowed(&r.name),
        class: r.class.as_str(),
        ways: r.ways,
        cbm: r.cbm,
        ipc: r.ipc,
        norm_ipc: r.norm_ipc,
        miss_rate: r.llc_miss_rate,
        baseline_ipc: r.baseline_ipc,
        quarantined,
        held,
    }
}

/// Builds one `dcat-frames/v2` frame from a tick observation. The
/// embedder supplies the policy identity
/// ([`crate::policy::CachePolicy::name`] /
/// [`crate::policy::CachePolicy::frame_ext`]); everything else comes off
/// the observation, and the frame borrows its strings from both.
/// `ways_moved` is left 0 for
/// [`dcat_obs::FrameWriter::push`] to fill in against the previous frame.
/// Shared by `dcatd --frames-out` and the bench harness's scenario/fleet
/// exporters.
pub fn frame_from_observation<'a>(
    obs: &TickObservation<'a>,
    policy: &'a str,
    ext: dcat_obs::PolicyExt,
) -> dcat_obs::Frame<'a> {
    let reason = obs.degrade_reason().map(|r| r.as_str());
    let domains = obs
        .reports
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let quarantined = obs.quarantined.get(i).copied().unwrap_or(false);
            domain_frame(r, quarantined, r.skipped || obs.degraded)
        })
        .collect();
    dcat_obs::Frame {
        tick: obs.tick,
        policy: Cow::Borrowed(policy),
        degraded: obs.degraded,
        reason,
        ways_moved: 0,
        events: u64::try_from(obs.events.len()).unwrap_or(u64::MAX),
        ext,
        domains,
    }
}

/// Builds a [`dcat_obs::Frame`] straight from a tick's [`DomainReport`]s,
/// for a caller ticking a policy without the loop: the frame of a
/// completed tick with no events and nobody quarantined.
pub fn frame_from_reports<'a>(
    tick: u64,
    policy: &'a str,
    reports: &'a [DomainReport],
    ext: dcat_obs::PolicyExt,
) -> dcat_obs::Frame<'a> {
    let obs = TickObservation {
        tick,
        reports,
        events: &[],
        degraded: false,
        spans: &[],
        quarantined: &[],
        flight_dump: None,
        ext,
    };
    frame_from_observation(&obs, policy, ext)
}

/// Everything a completed daemon run produced beyond the final reports.
#[derive(Debug)]
pub struct DaemonOutcome {
    /// Reports of the final completed tick.
    pub reports: Vec<DomainReport>,
    /// The run's accumulated metrics.
    pub metrics: dcat_obs::Snapshot,
    /// Flight-recorder dump of the last ticks, rendered at exit.
    pub flight_dump: String,
}

/// Rejects duplicate names, a domain with no cores, and core lists that
/// overlap (the cores check is the one every programming policy makes
/// where it is built).
///
/// Two domains sharing a core would silently fight over that core's COS
/// assignment — the last `assign_core` wins and one tenant runs under
/// the other's mask — and duplicate names make telemetry rows ambiguous.
pub(crate) fn validate_domain_set(domains: &[WorkloadHandle]) -> Result<(), String> {
    let mut seen_names: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, d) in domains.iter().enumerate() {
        if let Some(prev) = seen_names.insert(d.name.as_str(), i) {
            return Err(format!(
                "duplicate domain name {:?} (domains {prev} and {i})",
                d.name
            ));
        }
    }
    check_cores(domains)
}

/// Parses a `;`-separated `name:cores:ways` domain spec list, e.g.
/// `"web:0-1:4;db:2-3,6:6"` (core lists use the cpus_list syntax, so the
/// domain separator is `;` rather than `,`). Duplicate names and
/// overlapping core lists are rejected.
pub fn parse_domains(spec: &str) -> Result<Vec<WorkloadHandle>, String> {
    let mut handles = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let pieces: Vec<&str> = part.split(':').collect();
        let &[name, cores_spec, ways_spec] = pieces.as_slice() else {
            return Err(format!("domain spec {part:?}: expected name:cores:ways"));
        };
        let cores =
            resctrl::fs::parse_cpu_list(cores_spec).map_err(|e| format!("domain {part:?}: {e}"))?;
        if cores.is_empty() {
            return Err(format!("domain {part:?}: empty core list"));
        }
        let ways: u32 = ways_spec
            .parse()
            .map_err(|e| format!("domain {part:?}: bad ways: {e}"))?;
        handles.push(WorkloadHandle::new(name, cores, ways));
    }
    if handles.is_empty() {
        return Err("no domains specified".to_string());
    }
    validate_domain_set(&handles)?;
    Ok(handles)
}

fn resctrl_retry_event(e: RetryEvent) -> Event {
    match e {
        RetryEvent::Retried { op, attempt, error } => Event::ResctrlRetried { op, attempt, error },
        RetryEvent::Exhausted {
            op,
            attempts,
            error,
        } => Event::ResctrlExhausted {
            op,
            attempts,
            error,
        },
    }
}

/// The loop's metric series. Each is resolved where its first value is
/// written — resolving registers the series, and one that never had a
/// value must not be in the export — and recorded through its id from
/// then on.
#[derive(Default)]
struct TickSeries {
    ticks: Option<SeriesId>,
    quarantined: Option<SeriesId>,
    /// `dcat_events_total`, by event name.
    events: Vec<(&'static str, SeriesId)>,
    /// `dcat_span_steps` and `dcat_span_cycles`, by span name.
    span_steps: Vec<(&'static str, SeriesId)>,
    span_cycles: Vec<(&'static str, SeriesId)>,
    /// In `DaemonConfig::domains` order.
    domains: Vec<DomainSeries>,
}

#[derive(Clone, Default)]
struct DomainSeries {
    ways: Option<SeriesId>,
    moved: Option<SeriesId>,
    phase_changes: Option<SeriesId>,
}

/// The id `known` holds for `label`, resolved and remembered on first
/// sight. Event and span names are a dozen static strings, so the list
/// is scanned.
fn resolved(
    known: &mut Vec<(&'static str, SeriesId)>,
    label: &'static str,
    resolve: impl FnOnce(&'static str) -> SeriesId,
) -> SeriesId {
    if let Some(&(_, id)) = known.iter().find(|(name, _)| *name == label) {
        return id;
    }
    let id = resolve(label);
    known.push((label, id));
    id
}

/// Runs the daemon loop, calling `observe` after every tick; returns the
/// [`DaemonOutcome`] — final reports plus the run's metrics snapshot and
/// exit flight-recorder dump.
///
/// `observe` is called once per tick (ticks count from 1), before the
/// inter-tick sleep, with that tick's [`TickObservation`] — reports,
/// structured events, and whether the tick was degraded. Integration
/// tests use the hook to rewrite the telemetry file between ticks —
/// playing the role of the external sampler without a second thread —
/// and to record the class/ways trajectory; a monitoring wrapper exports
/// events from it (`dcatd` prints them to stderr).
pub fn run_daemon_observed(
    cfg: &DaemonConfig,
    observe: impl FnMut(&TickObservation),
) -> Result<DaemonOutcome, ResctrlError> {
    validate_domain_set(&cfg.domains).map_err(ResctrlError::Refused)?;
    // Construction is fail-fast: a missing resctrl tree at startup is a
    // configuration error, not weather.
    let backend = FsBackend::open(&cfg.resctrl_root)?;
    let feed = FileTelemetry::new(&cfg.telemetry_path);
    match &cfg.fault_plan {
        None => drive(cfg, backend, feed, |_, _| {}, observe),
        Some(plan) => drive(
            cfg,
            FaultingController::new(backend, plan.clone()),
            FaultyTelemetry::new(feed, plan.clone()),
            FaultingController::set_tick,
            observe,
        ),
    }
}

/// The daemon's driver around [`ControlLoop::step`], over whatever
/// backend and feed [`run_daemon_observed`] composed: the production pair,
/// or the fault-injecting wrappers around it, whose schedule `set_tick`
/// advances.
fn drive<C: CacheController>(
    cfg: &DaemonConfig,
    backend: C,
    feed: impl TelemetryFeed,
    mut set_tick: impl FnMut(&mut C, u64),
    mut observe: impl FnMut(&TickObservation),
) -> Result<DaemonOutcome, ResctrlError> {
    let retry = cfg.resilience.retry;
    let mut cat = RetryingController::new(backend, retry);
    let mut controller = DcatController::new(cfg.dcat, cfg.domains.clone(), &mut cat)?;
    let mut ctl = ControlLoop::new(&mut controller, cfg.domains.clone(), cfg.resilience)?;
    let mut telemetry = CsvTelemetry { feed, retry };

    let n = cfg.domains.len();
    let mut registry = Registry::new();
    let mut series = TickSeries {
        domains: vec![DomainSeries::default(); n],
        ..TickSeries::default()
    };
    let mut tracer = Tracer::new();
    let mut recorder = FlightRecorder::new(cfg.obs.flight_recorder_ticks);
    let mut prev_ways: Vec<Option<u32>> = vec![None; n];
    while cfg.max_ticks.is_none_or(|max| ctl.ticks() < max) {
        let tick = ctl.ticks() + 1;
        tracer.clear();
        set_tick(cat.inner_mut(), tick);
        tracer.set_tick(tick);
        tracer.enter("tick");
        let obs = ctl.step(&mut telemetry, &mut cat, &mut tracer, |cat, events| {
            events.extend(cat.take_events().into_iter().map(resctrl_retry_event));
        })?;
        tracer.exit(); // tick
        let spans = tracer.completed();

        let ticks = *series
            .ticks
            .get_or_insert_with(|| registry.counter("dcat_ticks_total", &[]));
        registry.add(ticks, 1);
        if let Some(reason) = obs.degrade_reason() {
            registry.counter_add(
                "dcat_degraded_ticks_total",
                &[("reason", reason.as_str())],
                1,
            );
        }
        for e in obs.events {
            let id = resolved(&mut series.events, e.name(), |event| {
                registry.counter("dcat_events_total", &[("event", event)])
            });
            registry.add(id, 1);
        }
        for s in spans {
            let id = resolved(&mut series.span_steps, s.name, |span| {
                registry.histogram("dcat_span_steps", &[("span", span)], DEFAULT_STEP_BUCKETS)
            });
            registry.observe(id, s.steps());
            if s.cycles > 0 {
                let id = resolved(&mut series.span_cycles, s.name, |span| {
                    registry.histogram(
                        "dcat_span_cycles",
                        &[("span", span)],
                        dcat_obs::CYCLE_BUCKETS,
                    )
                });
                registry.observe(id, s.cycles);
            }
        }
        if !obs.degraded {
            let lanes = obs
                .reports
                .iter()
                .zip(prev_ways.iter_mut())
                .zip(series.domains.iter_mut());
            for ((report, prev), ids) in lanes {
                let domain = [("domain", report.name.as_str())];
                let ways = *ids
                    .ways
                    .get_or_insert_with(|| registry.gauge("dcat_domain_ways", &domain));
                registry.set(ways, f64::from(report.ways));
                if let Some(prev_ways) = *prev {
                    let moved = u64::from(report.ways.abs_diff(prev_ways));
                    if moved > 0 {
                        let id = *ids.moved.get_or_insert_with(|| {
                            registry.counter("dcat_ways_moved_total", &domain)
                        });
                        registry.add(id, moved);
                    }
                }
                *prev = Some(report.ways);
                if report.phase_changed {
                    let id = *ids.phase_changes.get_or_insert_with(|| {
                        registry.counter("dcat_phase_changes_total", &domain)
                    });
                    registry.add(id, 1);
                }
            }
        }
        let quarantined =
            u32::try_from(obs.quarantined.iter().filter(|&&q| q).count()).unwrap_or(u32::MAX);
        let id = *series
            .quarantined
            .get_or_insert_with(|| registry.gauge("dcat_quarantined_domains", &[]));
        registry.set(id, f64::from(quarantined));

        let events = obs.events.iter().map(Event::to_json);
        recorder.record(tick, obs.degraded, spans, events);
        // A quarantine or invariant violation is exactly the moment a
        // post-mortem wants the recent window: surface a dump through the
        // observation so the embedder can persist it without re-running.
        let flight_dump = obs
            .events
            .iter()
            .any(|e| {
                matches!(
                    e,
                    Event::InvariantViolation { .. } | Event::DomainQuarantined { .. }
                )
            })
            .then(|| recorder.dump_jsonl());

        observe(&TickObservation {
            spans,
            flight_dump: flight_dump.as_deref(),
            ..obs
        });
        sleep_between_ticks(cfg, tick);
    }
    Ok(DaemonOutcome {
        reports: controller.reports().to_vec(),
        metrics: registry.take(),
        flight_dump: recorder.dump_jsonl(),
    })
}

fn sleep_between_ticks(cfg: &DaemonConfig, tick: u64) {
    let last = cfg.max_ticks.is_some_and(|max| tick >= max);
    if !last && !cfg.interval.is_zero() {
        std::thread::sleep(cfg.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resctrl::CatCapabilities;

    fn base_config(root: PathBuf, domains: Vec<WorkloadHandle>) -> DaemonConfig {
        DaemonConfig {
            telemetry_path: root.join("telemetry.csv"),
            resctrl_root: root,
            domains,
            dcat: DcatConfig::default(),
            interval: Duration::from_millis(0),
            max_ticks: Some(3),
            resilience: ResiliencePolicy::default(),
            fault_plan: None,
            obs: ObsOptions::default(),
        }
    }

    #[test]
    fn domain_spec_parsing() {
        let d = parse_domains("web:0-1:4; db:2-3,6:6").unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].name, "web");
        assert_eq!(d[0].cores, vec![0, 1]);
        assert_eq!(d[0].reserved_ways, 4);
        assert_eq!(d[1].cores, vec![2, 3, 6]);
        assert!(parse_domains("bad").is_err());
        assert!(parse_domains("a::3").is_err());
        assert!(parse_domains("a:0:x").is_err());
        assert!(parse_domains("").is_err());
    }

    #[test]
    fn domain_spec_rejects_duplicate_names() {
        let err = parse_domains("web:0-1:4;web:2-3:4").unwrap_err();
        assert!(err.contains("duplicate domain name"), "{err}");
    }

    #[test]
    fn domain_spec_rejects_overlapping_cores() {
        let err = parse_domains("web:0-2:4;db:2-3:4").unwrap_err();
        assert!(err.contains("both claim core 2"), "{err}");
    }

    #[test]
    fn daemon_rejects_invalid_domain_sets_up_front() {
        let cfg = base_config(
            PathBuf::from("/nonexistent"),
            vec![
                WorkloadHandle::new("a", vec![0], 1),
                WorkloadHandle::new("a", vec![1], 1),
            ],
        );
        let err = run_daemon_observed(&cfg, |_| {}).unwrap_err();
        assert!(err.to_string().contains("duplicate domain name"), "{err}");
    }

    #[test]
    fn daemon_runs_against_a_fixture_tree() {
        let root = std::env::temp_dir().join(format!(
            "dcatd-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        drop(FsBackend::create_fixture(&root, CatCapabilities::with_ways(20), 8).unwrap());

        std::fs::write(
            root.join("telemetry.csv"),
            "hungry,340000,120000,60000,1000000,20000000\nidle,0,0,0,0,0\n",
        )
        .unwrap();

        let mut cfg = base_config(
            root.clone(),
            vec![
                WorkloadHandle::new("hungry", vec![0, 1], 4),
                WorkloadHandle::new("idle", vec![2, 3], 4),
            ],
        );
        let reports = run_daemon_observed(&cfg, |_| {}).unwrap().reports;
        assert_eq!(reports.len(), 2);
        // The idle domain was recognized and defunded.
        assert_eq!(reports[1].ways, 1);
        // The partitions are visible in the filesystem afterwards.
        let schemata = std::fs::read_to_string(root.join("COS2").join("schemata")).unwrap();
        assert!(schemata.contains("L3:0="));
        // `dcatd --counter-width-bits 0` is a startup error, not a panic
        // on the second tick.
        cfg.resilience.counter_width_bits = 0;
        let err = run_daemon_observed(&cfg, |_| {}).unwrap_err();
        assert!(matches!(err, ResctrlError::Refused(_)), "{err}");
        assert!(!err.is_transient(), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn daemon_fails_cleanly_without_a_tree() {
        let cfg = base_config(
            PathBuf::from("/nonexistent/resctrl"),
            vec![WorkloadHandle::new("x", vec![0], 1)],
        );
        assert!(run_daemon_observed(&cfg, |_| {}).is_err());
    }
}
