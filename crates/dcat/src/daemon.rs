//! The dCat daemon: the deployment form of the controller.
//!
//! The paper's prototype is "a C program [that] runs as a daemon in the
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
//! matter of course, so the loop never dies on one. Telemetry reads and
//! resctrl writes go through [`resctrl::retry`]'s bounded
//! retry-with-backoff; when retries exhaust, the tick **degrades**: the
//! previous allocation is held, a structured [`Event`] records why, and
//! the loop moves on. Per-domain problems degrade per domain — a wrapped
//! counter is reconstructed, a reset or stale sample skips just that
//! domain's interval, and a domain whose telemetry stays missing or
//! malformed for [`ResiliencePolicy::quarantine_after`] consecutive
//! ticks is quarantined (allocation frozen, complaints suppressed) until
//! it produces a good sample again. Only *fatal* errors — controller
//! logic bugs, see [`resctrl::ErrorSeverity`] — abort the loop.
//!
//! The `dcatd` binary wraps [`run_daemon_observed`] with command-line parsing.

// Privileged I/O: a tick degrades, it never dies, and no I/O `Result` or
// error severity is dropped on the floor (DESIGN.md §12).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::string_slice
)]
// `clippy.toml` has no in-tests switch for these; the unit tests own their
// cleanup and casts. `as_conversions`: counter math never truncates silently.
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

use dcat_obs::{FlightRecorder, Registry, SeriesId, SpanRecord, Tracer, DEFAULT_STEP_BUCKETS};
use perf_events::{CounterSnapshot, WrapOutcome};
use resctrl::fault::FaultPlan;
use resctrl::retry::{with_retries, RetryEvent, RetryPolicy, RetryingController};
use resctrl::{CacheController, FaultingController, FsBackend, ResctrlError};

use crate::config::DcatConfig;
use crate::controller::{DcatController, DomainReport, WorkloadHandle};
use crate::events::{DegradeReason, Event};
use crate::telemetry::{parse_telemetry_into, FaultyTelemetry, FileTelemetry, TelemetryFeed};

/// Recovery knobs for the daemon loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Retry policy for telemetry reads and resctrl writes.
    pub retry: RetryPolicy,
    /// Quarantine a domain after this many consecutive ticks of missing
    /// or malformed telemetry (0 disables quarantine).
    pub quarantine_after: u32,
    /// Tolerate this many consecutive repeats of an active domain's
    /// totals as stale samples (skipping the interval) before accepting
    /// the repeat as a genuine idle.
    pub stale_grace_ticks: u32,
    /// Hardware counter width used to disambiguate wraps from resets.
    pub counter_width_bits: u32,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            retry: RetryPolicy::default(),
            quarantine_after: 5,
            stale_grace_ticks: 2,
            // The paper's Xeons expose 48-bit fixed/general counters.
            counter_width_bits: 48,
        }
    }
}

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

/// Everything one daemon tick produced, handed to the observer hook.
#[derive(Debug)]
pub struct TickObservation<'a> {
    /// 1-based tick number.
    pub tick: u64,
    /// Per-domain reports. On a degraded tick these are the *held*
    /// reports of the last completed tick (empty if none completed yet).
    pub reports: &'a [DomainReport],
    /// Structured events this tick generated.
    pub events: &'a [Event],
    /// Whether this tick was degraded (no controller decision ran).
    pub degraded: bool,
    /// Pipeline-stage spans this tick, in completion order (nested spans
    /// precede their parents; `tick` closes the list).
    pub spans: &'a [SpanRecord],
    /// Per-domain quarantine flags, in `DaemonConfig::domains` order
    /// (parallel to `reports` on completed ticks).
    pub quarantined: &'a [bool],
    /// A flight-recorder JSONL dump, present only on ticks where an
    /// `InvariantViolation` or `DomainQuarantined` event fired. The daemon
    /// never writes files itself; the embedder (e.g. `dcatd`) persists it.
    pub flight_dump: Option<&'a str>,
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

/// Builds one `dcat-frames/v1` frame from a tick observation. The
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
    // The degraded-tick event names the failure surface; default to
    // telemetry if an embedder built a degraded observation without one.
    #[allow(
        clippy::wildcard_enum_match_arm,
        reason = "an event-kind filter, not a severity match: every other event is skipped on purpose"
    )]
    let reason = obs.degraded.then(|| {
        obs.events
            .iter()
            .find_map(|e| match e {
                Event::DegradedTick { reason } => Some(*reason),
                _ => None,
            })
            .unwrap_or(DegradeReason::Telemetry)
            .as_str()
    });
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

/// Builds a [`dcat_obs::Frame`] straight from a tick's [`DomainReport`]s —
/// the batch-harness path (scenario sweeps, fleet hosts), where ticks never
/// degrade and quarantine does not exist. `ways_moved` is left 0 for
/// [`dcat_obs::FrameWriter::push`] to fill in.
pub fn frame_from_reports<'a>(
    tick: u64,
    policy: &'a str,
    reports: &'a [DomainReport],
    ext: dcat_obs::PolicyExt,
) -> dcat_obs::Frame<'a> {
    dcat_obs::Frame {
        tick,
        policy: Cow::Borrowed(policy),
        degraded: false,
        reason: None,
        ways_moved: 0,
        events: 0,
        ext,
        domains: reports
            .iter()
            .map(|r| domain_frame(r, false, r.skipped))
            .collect(),
    }
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

/// Parses the telemetry CSV into per-domain snapshots.
///
/// Blank lines and `#` comments are ignored. Returns an error naming the
/// offending line on any malformed row. The daemon loop itself uses
/// [`crate::telemetry::parse_telemetry_lossy`], which drops bad rows
/// individually; this strict variant suits one-shot tooling.
pub fn parse_telemetry(text: &str) -> Result<BTreeMap<String, CounterSnapshot>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let &[name, l1_ref, llc_ref, llc_miss, ret_ins, cycles] = fields.as_slice() else {
            return Err(format!(
                "line {}: expected 6 fields, got {}",
                lineno + 1,
                fields.len()
            ));
        };
        let parse = |s: &str, what: &str| -> Result<u64, String> {
            s.parse()
                .map_err(|e| format!("line {}: bad {what} {s:?}: {e}", lineno + 1))
        };
        let snap = CounterSnapshot {
            l1_ref: parse(l1_ref, "l1_ref")?,
            llc_ref: parse(llc_ref, "llc_ref")?,
            llc_miss: parse(llc_miss, "llc_miss")?,
            ret_ins: parse(ret_ins, "ret_ins")?,
            cycles: parse(cycles, "cycles")?,
        };
        if out.insert(name.to_string(), snap).is_some() {
            return Err(format!("line {}: duplicate domain {name:?}", lineno + 1));
        }
    }
    Ok(out)
}

/// Rejects duplicate names and core lists that overlap across domains.
///
/// Two domains sharing a core would silently fight over that core's COS
/// assignment — the last `assign_core` wins and one tenant runs under
/// the other's mask — and duplicate names make telemetry rows ambiguous.
pub fn validate_domain_set(domains: &[WorkloadHandle]) -> Result<(), String> {
    let mut seen_names: BTreeMap<&str, usize> = BTreeMap::new();
    let mut core_owner: BTreeMap<u32, &str> = BTreeMap::new();
    for (i, d) in domains.iter().enumerate() {
        if let Some(prev) = seen_names.insert(d.name.as_str(), i) {
            return Err(format!(
                "duplicate domain name {:?} (domains {prev} and {i})",
                d.name
            ));
        }
        for &core in &d.cores {
            if let Some(owner) = core_owner.insert(core, d.name.as_str()) {
                if owner != d.name {
                    return Err(format!(
                        "domains {:?} and {:?} both claim core {core}",
                        owner, d.name
                    ));
                }
                return Err(format!("domain {:?} lists core {core} twice", d.name));
            }
        }
    }
    Ok(())
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

fn telemetry_retry_event(e: RetryEvent) -> Event {
    match e {
        RetryEvent::Retried { attempt, error, .. } => Event::TelemetryRetried { attempt, error },
        RetryEvent::Exhausted {
            attempts, error, ..
        } => Event::TelemetryExhausted { attempts, error },
    }
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

/// Per-domain sampling state the loop threads from tick to tick.
struct DomainState {
    /// Monotonic totals fed to the controller: the raw samples, rebased
    /// across counter wraps so they never go backwards.
    rebased: CounterSnapshot,
    /// The last raw sample, for wrap-aware delta computation.
    raw_last: Option<CounterSnapshot>,
    /// Whether the last valid interval retired instructions (a stale
    /// sample is only suspicious for an active domain).
    active: bool,
    /// Consecutive samples identical to the previous one while active.
    stale_streak: u32,
    /// Consecutive ticks with missing/malformed telemetry.
    bad_streak: u32,
    /// Frozen: telemetry stayed bad for `quarantine_after` ticks.
    quarantined: bool,
    /// Whether any telemetry sample ever named this domain.
    ever_seen: bool,
}

impl DomainState {
    fn new() -> Self {
        DomainState {
            rebased: CounterSnapshot::default(),
            raw_last: None,
            active: false,
            stale_streak: 0,
            bad_streak: 0,
            quarantined: false,
            ever_seen: false,
        }
    }

    /// Ingests one raw sample; returns whether the interval is valid and
    /// pushes any per-domain events.
    fn ingest(
        &mut self,
        name: &str,
        raw: CounterSnapshot,
        policy: &ResiliencePolicy,
        events: &mut Vec<Event>,
    ) -> bool {
        self.ever_seen = true;
        self.bad_streak = 0;
        if self.quarantined {
            // Back from the dead: resync and spend one tick re-grounding
            // the totals before trusting an interval again.
            self.quarantined = false;
            self.stale_streak = 0;
            self.raw_last = Some(raw);
            events.push(Event::DomainRecovered {
                domain: name.to_string(),
            });
            return false;
        }
        let Some(prev) = self.raw_last else {
            // First sample: totals feed the controller directly (its
            // recorded totals start at zero).
            self.rebased = raw;
            self.raw_last = Some(raw);
            self.active = raw.ret_ins > 0;
            return true;
        };
        if raw == prev && self.active && self.stale_streak < policy.stale_grace_ticks {
            // An active workload's totals never stand perfectly still; a
            // verbatim repeat is a wedged sampler until it persists past
            // the grace (then it is accepted below as a genuine idle).
            self.stale_streak += 1;
            events.push(Event::StaleSample {
                domain: name.to_string(),
            });
            return false;
        }
        self.stale_streak = 0;
        match raw.delta_since_wrap_aware(&prev, policy.counter_width_bits) {
            WrapOutcome::Monotonic(delta) => {
                self.rebased = self.rebased.merged_with(&delta);
                self.raw_last = Some(raw);
                self.active = delta.ret_ins > 0;
                true
            }
            WrapOutcome::Wrapped(delta) => {
                self.rebased = self.rebased.merged_with(&delta);
                self.raw_last = Some(raw);
                self.active = delta.ret_ins > 0;
                events.push(Event::CounterWrapped {
                    domain: name.to_string(),
                });
                true
            }
            WrapOutcome::Invalid => {
                // A reset: no trustworthy delta exists. Resync so the
                // next interval subtracts from the new epoch.
                self.raw_last = Some(raw);
                events.push(Event::CounterReset {
                    domain: name.to_string(),
                });
                false
            }
        }
    }

    /// Records a tick with no usable sample; returns whether this tick
    /// crossed the quarantine threshold.
    fn miss(&mut self, policy: &ResiliencePolicy) -> bool {
        if self.quarantined {
            return false;
        }
        self.bad_streak += 1;
        if policy.quarantine_after > 0 && self.bad_streak >= policy.quarantine_after {
            self.quarantined = true;
            return true;
        }
        false
    }
}

/// The loop's metric series. Each is resolved where its first value is
/// written — resolving registers the series, and one that never had a
/// value must not be in the export — and recorded through its id from
/// then on.
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

impl TickSeries {
    fn new(domains: usize) -> Self {
        TickSeries {
            ticks: None,
            quarantined: None,
            events: Vec::new(),
            span_steps: Vec::new(),
            span_cycles: Vec::new(),
            domains: vec![DomainSeries::default(); domains],
        }
    }
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
    mut observe: impl FnMut(&TickObservation),
) -> Result<DaemonOutcome, ResctrlError> {
    validate_domain_set(&cfg.domains).map_err(ResctrlError::Parse)?;
    let policy = cfg.resilience;
    let plan = cfg.fault_plan.clone().unwrap_or_default();

    // Construction is fail-fast: a missing resctrl tree at startup is a
    // configuration error, not weather.
    let backend = FsBackend::open(&cfg.resctrl_root)?;
    let mut cat =
        RetryingController::new(FaultingController::new(backend, plan.clone()), policy.retry);
    let mut controller = DcatController::new(cfg.dcat, cfg.domains.clone(), &mut cat)?;
    let total_ways = cat.capabilities().cbm_len;
    let mut feed = FaultyTelemetry::new(FileTelemetry::new(&cfg.telemetry_path), plan);

    let n = cfg.domains.len();
    let mut states: Vec<DomainState> = (0..n).map(|_| DomainState::new()).collect();
    let mut snapshots = vec![CounterSnapshot::default(); n];
    // Per-tick working storage, kept across ticks: the parsed sample of
    // each domain, its validity verdict, its quarantine flag, the audit's
    // view of the controller, and the telemetry retry log.
    let mut samples: Vec<Option<CounterSnapshot>> = vec![None; n];
    let mut valid = vec![true; n];
    let mut quarantine_flags = vec![false; n];
    let mut views = Vec::with_capacity(n);
    let mut retry_log = Vec::new();
    let mut final_reports: Vec<DomainReport> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut registry = Registry::new();
    let mut series = TickSeries::new(n);
    let mut tracer = Tracer::new();
    let mut recorder = FlightRecorder::new(cfg.obs.flight_recorder_ticks);
    let mut prev_ways: Vec<Option<u32>> = vec![None; n];
    let mut tick = 0u64;
    loop {
        if let Some(max) = cfg.max_ticks {
            if tick >= max {
                break;
            }
        }
        tick += 1;
        events.clear();
        tracer.clear();
        cat.inner_mut().set_tick(tick);
        tracer.set_tick(tick);
        tracer.enter("tick");

        // Telemetry acquisition, with retries; exhaustion degrades the
        // whole tick (nothing per-domain can be said without a sample).
        tracer.enter("telemetry");
        let text = with_retries(policy.retry, "telemetry_read", &mut retry_log, || {
            feed.read(tick)
        });
        events.extend(retry_log.drain(..).map(telemetry_retry_event));
        let text = match text {
            Ok(text) => Some(text),
            Err(e) if e.is_transient() => {
                events.push(Event::DegradedTick {
                    reason: DegradeReason::Telemetry,
                });
                None
            }
            Err(e) => return Err(e),
        };

        let degraded = match &text {
            None => {
                tracer.exit(); // telemetry
                true
            }
            Some(text) => {
                parse_telemetry_into(text, &cfg.domains, &mut samples, |issue| {
                    // A quarantined domain's rows stay broken tick after
                    // tick; one quarantine event stands in for the stream
                    // of complaints.
                    let suppressed = issue.domain.as_deref().is_some_and(|name| {
                        cfg.domains
                            .iter()
                            .position(|d| d.name == name)
                            .and_then(|i| states.get(i))
                            .is_some_and(|s| s.quarantined)
                    });
                    if !suppressed {
                        events.push(Event::RowMalformed {
                            domain: issue.domain,
                            line: issue.line,
                            message: issue.message,
                        });
                    }
                });

                let lanes = cfg
                    .domains
                    .iter()
                    .zip(states.iter_mut())
                    .zip(samples.iter())
                    .zip(valid.iter_mut().zip(snapshots.iter_mut()));
                for (((domain, state), sample), (valid_slot, snap_slot)) in lanes {
                    let name = &domain.name;
                    match sample {
                        Some(raw) => {
                            *valid_slot = state.ingest(name, *raw, &policy, &mut events);
                        }
                        None => {
                            *valid_slot = false;
                            if state.miss(&policy) {
                                events.push(Event::DomainQuarantined {
                                    domain: name.clone(),
                                    after_ticks: state.bad_streak,
                                });
                            }
                        }
                    }
                    *snap_slot = state.rebased;
                }
                if tick == 1 {
                    // Satellite check: a domain the sampler never mentions
                    // would otherwise sit silent forever at its initial
                    // allocation.
                    for (d, state) in cfg.domains.iter().zip(states.iter()) {
                        if !state.ever_seen {
                            events.push(Event::DomainSilent {
                                domain: d.name.clone(),
                            });
                        }
                    }
                }
                tracer.exit(); // telemetry

                let result = controller.tick_observed(&snapshots, &valid, &mut cat, &mut tracer);
                events.extend(cat.take_events().into_iter().map(resctrl_retry_event));
                let degraded = match result {
                    Ok(reports) => {
                        final_reports = reports;
                        false
                    }
                    Err(e) if e.is_transient() => {
                        events.push(Event::DegradedTick {
                            reason: DegradeReason::Resctrl,
                        });
                        true
                    }
                    Err(e) => return Err(e),
                };

                // Audit the recorded allocation even (especially) on
                // degraded ticks: holding must never leave overlapping
                // masks or starve a domain below its floor.
                controller.domain_views_into(&mut views);
                if let Err(violation) =
                    crate::invariants::check(&views, total_ways, cfg.dcat.min_ways)
                {
                    events.push(Event::InvariantViolation {
                        message: violation.to_string(),
                    });
                }
                degraded
            }
        };
        tracer.exit(); // tick
        let spans = tracer.completed();

        let ticks = *series
            .ticks
            .get_or_insert_with(|| registry.counter("dcat_ticks_total", &[]));
        registry.add(ticks, 1);
        if degraded {
            let reason = if text.is_some() {
                DegradeReason::Resctrl
            } else {
                DegradeReason::Telemetry
            };
            registry.counter_add(
                "dcat_degraded_ticks_total",
                &[("reason", reason.as_str())],
                1,
            );
        }
        for e in &events {
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
        if !degraded {
            let lanes = final_reports
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
        for (flag, state) in quarantine_flags.iter_mut().zip(&states) {
            *flag = state.quarantined;
        }
        let quarantined =
            u32::try_from(quarantine_flags.iter().filter(|&&q| q).count()).unwrap_or(u32::MAX);
        let id = *series
            .quarantined
            .get_or_insert_with(|| registry.gauge("dcat_quarantined_domains", &[]));
        registry.set(id, f64::from(quarantined));

        recorder.record(tick, degraded, spans, events.iter().map(Event::to_json));
        // A quarantine or invariant violation is exactly the moment a
        // post-mortem wants the recent window: surface a dump through the
        // observation so the embedder can persist it without re-running.
        let flight_dump = if events.iter().any(|e| {
            matches!(
                e,
                Event::InvariantViolation { .. } | Event::DomainQuarantined { .. }
            )
        }) {
            Some(recorder.dump_jsonl())
        } else {
            None
        };

        observe(&TickObservation {
            tick,
            reports: &final_reports,
            events: &events,
            degraded,
            spans,
            quarantined: &quarantine_flags,
            flight_dump: flight_dump.as_deref(),
        });
        sleep_between_ticks(cfg, tick);
    }
    Ok(DaemonOutcome {
        reports: final_reports,
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
    fn telemetry_parsing_happy_path() {
        let text = "# comment\n\n a , 1,2,3,4,5 \nb,10,20,30,40,50\n";
        let m = parse_telemetry(text).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m["a"].l1_ref, 1);
        assert_eq!(m["b"].cycles, 50);
    }

    #[test]
    fn telemetry_parsing_rejects_malformed_rows() {
        assert!(parse_telemetry("a,1,2,3").unwrap_err().contains("6 fields"));
        assert!(parse_telemetry("a,x,2,3,4,5")
            .unwrap_err()
            .contains("l1_ref"));
        assert!(parse_telemetry("a,1,2,3,4,5\na,1,2,3,4,5")
            .unwrap_err()
            .contains("duplicate"));
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

        let cfg = base_config(
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

    #[test]
    fn silent_domain_is_flagged_after_the_first_interval() {
        let root = std::env::temp_dir().join(format!(
            "dcatd-silent-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        drop(FsBackend::create_fixture(&root, CatCapabilities::with_ways(20), 8).unwrap());
        // Only "loud" ever appears in telemetry; "ghost" is configured
        // but never sampled.
        std::fs::write(
            root.join("telemetry.csv"),
            "loud,340000,120000,60000,1000000,20000000\n",
        )
        .unwrap();
        let mut cfg = base_config(
            root.clone(),
            vec![
                WorkloadHandle::new("loud", vec![0, 1], 4),
                WorkloadHandle::new("ghost", vec![2, 3], 4),
            ],
        );
        cfg.max_ticks = Some(7);
        let mut silent_ticks = Vec::new();
        let mut quarantine_ticks = Vec::new();
        run_daemon_observed(&cfg, |obs| {
            for e in obs.events {
                match e {
                    Event::DomainSilent { domain } if domain == "ghost" => {
                        silent_ticks.push(obs.tick);
                    }
                    Event::DomainQuarantined { domain, .. } if domain == "ghost" => {
                        quarantine_ticks.push(obs.tick);
                    }
                    _ => {}
                }
            }
        })
        .unwrap();
        assert_eq!(
            silent_ticks,
            vec![1],
            "warned once, after the first interval"
        );
        assert_eq!(quarantine_ticks, vec![5], "default quarantine_after = 5");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
