//! The one control step: sample → ingest → decide → audit → observation.
//!
//! The paper's controller is one loop, once per interval, and so is this:
//! [`ControlLoop::step`] runs one interval of any [`CachePolicy`] over any
//! [`Telemetry`] source and any [`CacheController`]. The step owns what
//! makes an interval survivable — wrap-aware rebasing of the raw totals,
//! the stale grace, quarantine, the degraded tick, the audit — and its
//! drivers (the daemon, the bench harness's scenarios, each fleet host)
//! own time, the tracer, and export.

// Privileged I/O: no I/O `Result` or error severity is dropped on the floor
// (DESIGN.md §12). As `daemon.rs`. `as_conversions`: counter math never
// truncates silently.
#![cfg_attr(
    not(test),
    deny(
        clippy::let_underscore_must_use,
        clippy::wildcard_enum_match_arm,
        clippy::as_conversions
    )
)]

use std::ops::DerefMut;

use dcat_obs::{PolicyExt, SpanRecord, Tracer};
use perf_events::{CounterSnapshot, WrapOutcome};
use resctrl::retry::RetryPolicy;
use resctrl::{CacheController, ResctrlError};

use crate::controller::{DomainReport, WorkloadHandle};
use crate::events::{DegradeReason, Event};
use crate::policy::{CachePolicy, TickInput};
use crate::telemetry::RowIssue;

/// Recovery knobs for the control loop.
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

/// Where one tick's samples and the source's own complaints go.
pub struct SampleSink<'a> {
    /// The configured domains; `samples` is parallel to it.
    pub domains: &'a [WorkloadHandle],
    /// `samples[i]`: domain `i`'s raw monotonic totals, `None` when the
    /// source has no usable sample for it this tick.
    pub samples: &'a mut [Option<CounterSnapshot>],
    /// Rows the source dropped, in source order.
    pub issues: &'a mut Vec<RowIssue>,
    /// Events of the source's own recovery (retries).
    pub events: &'a mut Vec<Event>,
    /// The driver's tracer, for a source with a stage worth a span.
    pub tracer: &'a mut Tracer,
}

/// A producer of per-domain counter totals, one sample per tick.
pub trait Telemetry {
    /// Fills `sink.samples` for 1-based `tick`. An `Err` is classified by
    /// [`ResctrlError::severity`]: a transient one degrades the tick (no
    /// domain can be judged without a sample), a fatal one ends the loop.
    fn sample(&mut self, tick: u64, sink: &mut SampleSink<'_>) -> Result<(), ResctrlError>;
}

/// Exact totals already in memory, in domain order (an engine's
/// `snapshots()`); a domain past the end of the slice has no sample.
pub struct Totals<'a>(pub &'a [CounterSnapshot]);

impl Telemetry for Totals<'_> {
    fn sample(&mut self, _tick: u64, sink: &mut SampleSink<'_>) -> Result<(), ResctrlError> {
        for (i, slot) in sink.samples.iter_mut().enumerate() {
            *slot = self.0.get(i).copied();
        }
        Ok(())
    }
}

/// Everything one tick produced, lent to the driver.
#[derive(Debug)]
pub struct TickObservation<'a> {
    /// 1-based tick number.
    pub tick: u64,
    /// Per-domain reports. On a degraded tick these are the *held*
    /// reports of the last completed tick (empty if none completed yet),
    /// with `ways` and `cbm` showing what the backend holds.
    pub reports: &'a [DomainReport],
    /// Structured events this tick generated.
    pub events: &'a [Event],
    /// Whether this tick was degraded (no controller decision ran).
    pub degraded: bool,
    /// Pipeline-stage spans this tick, in completion order (nested spans
    /// precede their parents). The tracer is the driver's and may still
    /// have its enclosing span open: [`ControlLoop::step`] leaves this
    /// empty for the driver to fill.
    pub spans: &'a [SpanRecord],
    /// Per-domain quarantine flags, in domain order (parallel to
    /// `reports` on completed ticks).
    pub quarantined: &'a [bool],
    /// A flight-recorder JSONL dump, present only on ticks where an
    /// `InvariantViolation` or `DomainQuarantined` event fired. The
    /// recorder is the driver's too; the embedder (`dcatd`) persists it.
    pub flight_dump: Option<&'a str>,
    /// The policy's decision summary after this tick, for the frame.
    pub ext: PolicyExt,
}

impl TickObservation<'_> {
    /// Why the tick degraded, if it did: the failure surface its
    /// `DegradedTick` event names (telemetry if an embedder built a
    /// degraded observation without one).
    pub fn degrade_reason(&self) -> Option<DegradeReason> {
        let named = self.events.iter().find_map(|e| {
            let Event::DegradedTick { reason } = e else {
                return None;
            };
            Some(*reason)
        });
        self.degraded
            .then(|| named.unwrap_or(DegradeReason::Telemetry))
    }
}

/// Per-domain sampling state the loop threads from tick to tick.
#[derive(Default)]
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
            outcome @ (WrapOutcome::Monotonic(delta) | WrapOutcome::Wrapped(delta)) => {
                self.rebased = self.rebased.merged_with(&delta);
                self.raw_last = Some(raw);
                self.active = delta.ret_ins > 0;
                if matches!(outcome, WrapOutcome::Wrapped(_)) {
                    events.push(Event::CounterWrapped {
                        domain: name.to_string(),
                    });
                }
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

/// One policy's control loop, stepped once per interval by its driver.
/// `P` owns or borrows the policy: `&mut DcatController`, `Box<dyn CachePolicy>`.
pub struct ControlLoop<P> {
    policy: P,
    domains: Vec<WorkloadHandle>,
    resilience: ResiliencePolicy,
    tick: u64,
    states: Vec<DomainState>,
    // Per-tick working storage, kept across ticks: each domain's sample,
    // its rebased totals, its validity verdict, its quarantine flag, the
    // rows the source dropped, and the tick's events.
    samples: Vec<Option<CounterSnapshot>>,
    snapshots: Vec<CounterSnapshot>,
    valid: Vec<bool>,
    quarantined: Vec<bool>,
    issues: Vec<RowIssue>,
    events: Vec<Event>,
}

impl<P: DerefMut<Target: CachePolicy>> ControlLoop<P> {
    /// A loop driving `policy` over `domains` (the handles the policy was
    /// built from, in the same order). Fail-fast on a counter width no
    /// hardware has: it would be a panic on the tick path otherwise.
    pub fn new(
        policy: P,
        domains: Vec<WorkloadHandle>,
        resilience: ResiliencePolicy,
    ) -> Result<Self, ResctrlError> {
        if !(1..=64).contains(&resilience.counter_width_bits) {
            return Err(ResctrlError::Parse(format!(
                "counter width must be 1..=64 bits, got {}",
                resilience.counter_width_bits
            )));
        }
        let n = domains.len();
        Ok(ControlLoop {
            policy,
            domains,
            resilience,
            tick: 0,
            states: (0..n).map(|_| DomainState::default()).collect(),
            samples: vec![None; n],
            snapshots: vec![CounterSnapshot::default(); n],
            valid: vec![true; n],
            quarantined: vec![false; n],
            issues: Vec::new(),
            events: Vec::new(),
        })
    }

    /// Ticks stepped so far; the next [`Self::step`] is tick `ticks() + 1`.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Runs one interval. A transient failure — of the source or of the
    /// backend — degrades the tick: the previous allocation is held, a
    /// `DegradedTick` event says why, and only a fatal error is returned.
    /// `cat_events` runs right after the decision and appends what the
    /// driver's backend stack logged during it (a retry wrapper's
    /// attempts); a backend with nothing to say passes `|_, _| {}`.
    pub fn step<C: CacheController>(
        &mut self,
        telemetry: &mut impl Telemetry,
        cat: &mut C,
        tracer: &mut Tracer,
        cat_events: impl FnOnce(&mut C, &mut Vec<Event>),
    ) -> Result<TickObservation<'_>, ResctrlError> {
        self.tick += 1;
        self.events.clear();
        let mut sink = SampleSink {
            domains: &self.domains,
            samples: &mut self.samples,
            issues: &mut self.issues,
            events: &mut self.events,
            tracer: &mut *tracer,
        };
        let sampled = telemetry.sample(self.tick, &mut sink);
        let decision_ran = sampled.is_ok();
        let (outcome, reason) = match sampled {
            Ok(()) => {
                self.ingest();
                let input = TickInput {
                    snapshots: &self.snapshots,
                    valid: &self.valid,
                    tracer,
                };
                let decided = self.policy.decide(input, cat).map(drop);
                cat_events(cat, &mut self.events);
                (decided, DegradeReason::Resctrl)
            }
            // Nothing per-domain can be said without a sample.
            failed => {
                self.issues.clear();
                (failed, DegradeReason::Telemetry)
            }
        };
        let degraded = match outcome {
            Ok(()) => false,
            Err(e) if e.is_transient() => {
                self.events.push(Event::DegradedTick { reason });
                true
            }
            Err(e) => return Err(e),
        };
        // Audit the recorded allocation even (especially) on a degraded
        // decision: holding must never leave overlapping masks or starve
        // a domain below its floor.
        if let Some(Err(violation)) = decision_ran.then(|| self.policy.audit()) {
            self.events.push(Event::InvariantViolation {
                message: violation.to_string(),
            });
        }
        for (flag, state) in self.quarantined.iter_mut().zip(&self.states) {
            *flag = state.quarantined;
        }
        Ok(TickObservation {
            tick: self.tick,
            reports: self.policy.reports(),
            events: &self.events,
            degraded,
            spans: &[],
            quarantined: &self.quarantined,
            flight_dump: None,
            ext: self.policy.frame_ext(),
        })
    }

    /// Turns the tick's raw samples into the rebased totals and validity
    /// verdicts the policy sees, with the events that explain them.
    fn ingest(&mut self) {
        for issue in self.issues.drain(..) {
            // A quarantined domain's rows stay broken tick after tick; one
            // quarantine event stands in for the stream of complaints.
            let lanes = self.domains.iter().zip(&self.states);
            let suppressed = issue
                .domain
                .as_deref()
                .is_some_and(|name| lanes.clone().any(|(d, s)| d.name == name && s.quarantined));
            if !suppressed {
                self.events.push(Event::RowMalformed {
                    domain: issue.domain,
                    line: issue.line,
                    message: issue.message,
                });
            }
        }
        let lanes = self.domains.iter().zip(self.states.iter_mut());
        let lanes = lanes
            .zip(self.samples.iter())
            .zip(self.valid.iter_mut().zip(self.snapshots.iter_mut()));
        for (((domain, state), sample), (valid, snapshot)) in lanes {
            match sample {
                Some(raw) => {
                    *valid = state.ingest(&domain.name, *raw, &self.resilience, &mut self.events);
                }
                None => {
                    *valid = false;
                    if state.miss(&self.resilience) {
                        self.events.push(Event::DomainQuarantined {
                            domain: domain.name.clone(),
                            after_ticks: state.bad_streak,
                        });
                    }
                }
            }
            *snapshot = state.rebased;
        }
        if self.tick == 1 {
            // A domain the sampler never mentions would otherwise sit
            // silent forever at its initial allocation.
            for (d, state) in self.domains.iter().zip(&self.states) {
                if !state.ever_seen {
                    self.events.push(Event::DomainSilent {
                        domain: d.name.clone(),
                    });
                }
            }
        }
    }
}
