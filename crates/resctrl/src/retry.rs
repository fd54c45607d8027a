//! Bounded retry with backoff for transient backend failures.
//!
//! Real resctrl and MSR accesses fail transiently — torn sysfs reads,
//! `EINTR`, a sampler caught mid-write — and a daemon that `?`-propagates
//! the first such error dies for no reason. [`with_retries`] wraps one
//! fallible operation in a bounded attempt loop (transient errors retry
//! after a linearly growing backoff, fatal errors return immediately),
//! and [`RetryingController`] lifts that policy over every mutation of a
//! [`CacheController`] so the dCat tick never sees a transient blip that
//! one more attempt would have absorbed.
//!
//! Every retry and every exhaustion is recorded as a [`RetryEvent`] so
//! the daemon can surface what happened in its structured event log
//! instead of silently eating failures.

use std::time::Duration;

use crate::controller::{CacheController, CatCapabilities, CosId, ResctrlError};
use cbm::Cbm;

/// How hard to try before declaring an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (clamped to at least 1).
    pub max_attempts: u32,
    /// Backoff before attempt `n+1` is `backoff * n` (linear).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// A policy that never sleeps — for tests and simulations, where the
    /// injected fault schedule is keyed by tick and waiting changes
    /// nothing.
    pub fn immediate(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            backoff: Duration::ZERO,
        }
    }
}

/// One recovery-path observation, emitted by [`with_retries`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryEvent {
    /// An attempt failed transiently and another will be made.
    Retried {
        /// What was being attempted (e.g. `"program_cos"`).
        op: &'static str,
        /// The attempt that failed, 1-based.
        attempt: u32,
        /// Rendered error.
        error: String,
    },
    /// All attempts failed; the caller must degrade.
    Exhausted {
        /// What was being attempted.
        op: &'static str,
        /// How many attempts were made.
        attempts: u32,
        /// Rendered final error.
        error: String,
    },
}

/// Runs `f` up to `policy.max_attempts` times, sleeping the linear
/// backoff between attempts. Only transient errors retry; a fatal error
/// (or exhaustion) is returned to the caller. Recovery-path observations
/// are appended to `log`.
pub fn with_retries<T>(
    policy: RetryPolicy,
    op: &'static str,
    log: &mut Vec<RetryEvent>,
    mut f: impl FnMut() -> Result<T, ResctrlError>,
) -> Result<T, ResctrlError> {
    let attempts = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < attempts => {
                log.push(RetryEvent::Retried {
                    op,
                    attempt,
                    error: e.to_string(),
                });
                let backoff = policy.backoff * attempt;
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            Err(e) => {
                if e.is_transient() {
                    log.push(RetryEvent::Exhausted {
                        op,
                        attempts: attempt,
                        error: e.to_string(),
                    });
                }
                return Err(e);
            }
        }
    }
}

/// A [`CacheController`] adapter that retries transient failures of the
/// wrapped backend under one [`RetryPolicy`].
///
/// The retry sits at the *call* granularity, not the tick: the dCat
/// controller updates its recorded allocation per domain only after the
/// corresponding `program_cos` succeeds, so re-running a whole tick
/// would double-apply counter deltas, while re-running one write is
/// idempotent.
#[derive(Debug)]
pub struct RetryingController<C> {
    inner: C,
    policy: RetryPolicy,
    log: Vec<RetryEvent>,
}

impl<C: CacheController> RetryingController<C> {
    /// Wraps `inner` under `policy`.
    pub fn new(inner: C, policy: RetryPolicy) -> Self {
        RetryingController {
            inner,
            policy,
            log: Vec::new(),
        }
    }

    /// The wrapped backend.
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    /// Drains the recovery-path observations accumulated so far.
    pub fn take_events(&mut self) -> Vec<RetryEvent> {
        std::mem::take(&mut self.log)
    }
}

impl<C: CacheController> CacheController for RetryingController<C> {
    fn capabilities(&self) -> CatCapabilities {
        self.inner.capabilities()
    }

    fn num_cores(&self) -> u32 {
        self.inner.num_cores()
    }

    fn program_cos(&mut self, cos: CosId, cbm: Cbm) -> Result<(), ResctrlError> {
        let (policy, inner, log) = (self.policy, &mut self.inner, &mut self.log);
        with_retries(policy, "program_cos", log, || inner.program_cos(cos, cbm))
    }

    fn assign_core(&mut self, core: u32, cos: CosId) -> Result<(), ResctrlError> {
        let (policy, inner, log) = (self.policy, &mut self.inner, &mut self.log);
        with_retries(policy, "assign_core", log, || inner.assign_core(core, cos))
    }

    fn cos_mask(&self, cos: CosId) -> Result<Cbm, ResctrlError> {
        // Reads retry too, but without logging: `cos_mask` takes `&self`,
        // and a read the controller retries successfully is invisible to
        // allocation decisions anyway.
        let attempts = self.policy.max_attempts.max(1);
        let mut last = self.inner.cos_mask(cos);
        let mut attempt = 1;
        while attempt < attempts && matches!(&last, Err(e) if e.is_transient()) {
            attempt += 1;
            last = self.inner.cos_mask(cos);
        }
        last
    }

    fn core_cos(&self, core: u32) -> Result<CosId, ResctrlError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last = self.inner.core_cos(core);
        let mut attempt = 1;
        while attempt < attempts && matches!(&last, Err(e) if e.is_transient()) {
            attempt += 1;
            last = self.inner.core_cos(core);
        }
        last
    }

    fn flush_cbm(&mut self, cbm: Cbm) -> Result<(), ResctrlError> {
        let (policy, inner, log) = (self.policy, &mut self.inner, &mut self.log);
        with_retries(policy, "flush_cbm", log, || inner.flush_cbm(cbm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eio() -> ResctrlError {
        ResctrlError::Io(std::io::Error::other("injected"))
    }

    #[test]
    fn transient_errors_retry_until_success() {
        let mut log = Vec::new();
        let mut failures_left = 2;
        let out = with_retries(RetryPolicy::immediate(3), "op", &mut log, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(eio())
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(log.len(), 2);
        assert!(matches!(
            log[0],
            RetryEvent::Retried {
                op: "op",
                attempt: 1,
                ..
            }
        ));
    }

    #[test]
    fn exhaustion_is_logged_and_returned() {
        let mut log = Vec::new();
        let out: Result<(), _> =
            with_retries(RetryPolicy::immediate(3), "op", &mut log, || Err(eio()));
        assert!(out.is_err());
        assert!(matches!(
            log.last(),
            Some(RetryEvent::Exhausted { attempts: 3, .. })
        ));
    }

    #[test]
    fn fatal_errors_do_not_retry() {
        let mut log = Vec::new();
        let mut calls = 0;
        let out: Result<(), _> = with_retries(RetryPolicy::immediate(5), "op", &mut log, || {
            calls += 1;
            Err(ResctrlError::InvalidCore(9))
        });
        assert!(out.is_err());
        assert_eq!(calls, 1, "fatal errors must fail on the first attempt");
        assert!(log.is_empty(), "fatal errors are not recovery-path events");
    }

    #[test]
    fn retrying_controller_recovers_a_flaky_write() {
        use crate::fault::{Fault, FaultPlan, FaultingController};
        use crate::mock::InMemoryController;

        let plan = FaultPlan::scripted([(0, Fault::CosWriteOnce)]);
        let flaky = FaultingController::new(
            InMemoryController::new(CatCapabilities::with_ways(20), 4),
            plan,
        );
        let mut cat = RetryingController::new(flaky, RetryPolicy::immediate(3));
        cat.program_cos(CosId(1), Cbm(0b11)).unwrap();
        assert_eq!(cat.cos_mask(CosId(1)).unwrap(), Cbm(0b11));
        let events = cat.take_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], RetryEvent::Retried { attempt: 1, .. }));
        assert!(cat.take_events().is_empty(), "take_events drains");
    }
}
