//! Minimal wall-clock micro-benchmark harness.
//!
//! Replaces criterion so the workspace builds offline. Each `[[bench]]`
//! target is a plain `fn main()` that calls [`bench`] per case; the
//! harness warms up, then runs timed batches until a time budget is
//! spent, and reports the per-iteration median over batches. This is a
//! smoke-level harness: it answers "is a tick microseconds or
//! milliseconds", not "did we regress 2%".

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock spend per benchmark case.
const BUDGET: Duration = Duration::from_millis(200);
/// Iterations per timed batch.
const BATCH: u32 = 1_000;

/// Times `f` and prints a `name: <ns>/iter` line.
///
/// The closure's return value is passed through [`black_box`] so the
/// optimizer cannot delete the work.
#[allow(
    clippy::disallowed_methods,
    reason = "the owner: the workspace's one sanctioned wall-clock reader"
)]
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    // Warm-up: one batch, untimed.
    for _ in 0..BATCH {
        black_box(f());
    }
    let mut per_batch_ns: Vec<u128> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < BUDGET {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            black_box(f());
        }
        per_batch_ns.push(t0.elapsed().as_nanos());
    }
    per_batch_ns.sort_unstable();
    let median = per_batch_ns[per_batch_ns.len() / 2] / u128::from(BATCH);
    crate::report::say(format!(
        "{name}: {median} ns/iter ({} batches)",
        per_batch_ns.len()
    ));
}

/// Wall-clock [`dcat_obs::CycleSource`]: reports nanoseconds since
/// construction as "cycles".
///
/// This module is the workspace's only sanctioned wall-clock user, so
/// the one tracer cycle source backed by real time lives here. Attach
/// it to a [`dcat_obs::Tracer`] for local latency profiling only —
/// golden-snapshot and determinism paths leave cycles at their default
/// of zero, and zero-cycle spans render no cycle histograms.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A source whose epoch is the moment of construction.
    #[allow(
        clippy::disallowed_methods,
        reason = "the owner: the workspace's one sanctioned wall-clock reader"
    )]
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl dcat_obs::CycleSource for WallClock {
    fn now_cycles(&mut self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_returns() {
        // Must terminate and not panic on a trivial closure.
        bench("noop", || 1u64 + 1);
    }
}
