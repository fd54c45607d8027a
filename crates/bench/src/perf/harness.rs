//! The measurement core: warmup + median-of-K repetitions over a
//! [`dcat_obs::CycleSource`].
//!
//! It returns structured results so the suite can derive ratios,
//! normalize against a calibration case, and serialize a tracked
//! `BENCH_micro.json`. The clock is injected: real runs use
//! [`crate::timing::WallClock`] (the workspace's only sanctioned
//! wall-clock), while `--check` injects a [`FakeClock`] so the whole
//! pipeline — including JSON emission and schema validation — runs
//! deterministically with no time dependence at all.
//!
//! The suites measure through `SuiteRunner`, which interleaves the
//! repetitions: instead of timing one case's K loops back to back
//! (a ~20–50 ms contiguous window that a single neighbour-contention
//! burst poisons wholesale), it runs K round-robin passes over every
//! case and takes each case's median across passes. A burst then
//! corrupts at most a few passes of each case, which the median
//! discards.

use std::hint::black_box;

use dcat_obs::CycleSource;

/// One measured benchmark case.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CaseResult {
    /// Case name, unique within a suite.
    pub(crate) name: String,
    /// Median-of-reps nanoseconds per iteration.
    pub(crate) ns_per_iter: u64,
    /// Iterations per repetition.
    pub(crate) iters: u32,
    /// Timed repetitions (the median is taken across these).
    pub(crate) reps: u32,
    /// `ns_per_iter` divided by the suite's calibration case — the
    /// machine-portable number the regression gate compares. Zero until
    /// [`normalize`] runs.
    pub(crate) norm: f64,
}

/// Fills in every case's `norm` as `ns_per_iter / calibration_ns`,
/// where the calibration case is named `calibration`. The calibration
/// case itself gets `norm = 1.0` by construction.
///
/// # Panics
///
/// Panics if `calibration` names no case in `cases` — a suite
/// definition bug, not a runtime condition.
pub(crate) fn normalize(cases: &mut [CaseResult], calibration: &str) {
    let cal_ns = cases
        .iter()
        .find(|c| c.name == calibration)
        .unwrap_or_else(|| panic!("calibration case '{calibration}' not in suite"))
        .ns_per_iter
        .max(1);
    for c in cases.iter_mut() {
        c.norm = c.ns_per_iter as f64 / cal_ns as f64;
    }
}

// The body takes the iteration count and loops internally: one virtual
// dispatch per timed loop, with the loop itself monomorphized around
// the user's closure — boxing per iteration would add several ns of
// dispatch to cases that themselves cost 5 ns.
struct CaseSpec<'a> {
    name: String,
    iters: u32,
    body: Box<dyn FnMut(u32) + 'a>,
}

/// An interleaved benchmark suite.
///
/// Register every case up front with [`SuiteRunner::case`] (each case
/// owns its state — use `move` closures), then call
/// [`SuiteRunner::run`] once. Measurement proceeds as `reps`
/// round-robin passes over the registered cases, so consecutive
/// samples of the same case are separated by the rest of the suite's
/// work and land in different time windows.
#[derive(Default)]
pub(crate) struct SuiteRunner<'a> {
    specs: Vec<CaseSpec<'a>>,
}

impl<'a> SuiteRunner<'a> {
    /// An empty suite.
    pub(crate) fn new() -> Self {
        SuiteRunner { specs: Vec::new() }
    }

    /// Registers a case: `iters` iterations of `f` per timed loop. The
    /// closure's return value passes through [`black_box`] so the
    /// optimizer cannot delete the work.
    pub(crate) fn case<T>(&mut self, name: &str, iters: u32, mut f: impl FnMut() -> T + 'a) {
        self.specs.push(CaseSpec {
            name: name.to_string(),
            iters: iters.max(1),
            body: Box::new(move |n: u32| {
                for _ in 0..n {
                    black_box(f());
                }
            }),
        });
    }

    /// Runs the suite: one untimed warmup loop per case, then `reps`
    /// interleaved timed passes; reports each case's median
    /// per-iteration time, in registration order.
    pub(crate) fn run(mut self, clock: &mut dyn CycleSource, reps: u32) -> Vec<CaseResult> {
        let reps = reps.max(1);
        for spec in &mut self.specs {
            (spec.body)(spec.iters);
        }
        let mut samples: Vec<Vec<u64>> = vec![Vec::with_capacity(reps as usize); self.specs.len()];
        for _ in 0..reps {
            for (slot, spec) in samples.iter_mut().zip(self.specs.iter_mut()) {
                let t0 = clock.now_cycles();
                (spec.body)(spec.iters);
                let t1 = clock.now_cycles();
                slot.push(t1.saturating_sub(t0));
            }
        }
        samples
            .iter_mut()
            .zip(self.specs.iter())
            .map(|(slot, spec)| {
                slot.sort_unstable();
                let median = slot[slot.len() / 2];
                CaseResult {
                    name: spec.name.clone(),
                    ns_per_iter: (median + u64::from(spec.iters) / 2) / u64::from(spec.iters),
                    iters: spec.iters,
                    reps,
                    norm: 0.0,
                }
            })
            .collect()
    }
}

/// A deterministic cycle source for `--check`: every read advances a
/// fixed stride, so the harness's arithmetic (including the median and
/// normalization) exercises real non-zero numbers without any
/// wall-clock dependence.
#[derive(Debug)]
pub struct FakeClock {
    now: u64,
    stride: u64,
}

impl FakeClock {
    /// A clock advancing `stride` "nanoseconds" per read.
    pub fn new(stride: u64) -> Self {
        FakeClock {
            now: 0,
            stride: stride.max(1),
        }
    }
}

impl CycleSource for FakeClock {
    fn now_cycles(&mut self) -> u64 {
        self.now += self.stride;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fake_clock_yields_deterministic_results() {
        let run_once = || {
            let mut suite = SuiteRunner::new();
            suite.case("spin", 10, || 1u64 + 1);
            suite.run(&mut FakeClock::new(1000), 3).remove(0)
        };
        let (r1, r2) = (run_once(), run_once());
        assert_eq!(r1, r2);
        // Each rep spans exactly one stride: 1000 ns / 10 iters.
        assert_eq!(r1.ns_per_iter, 100);
    }

    #[test]
    fn normalize_anchors_on_the_calibration_case() {
        let mut cases = vec![
            CaseResult {
                name: "cal".into(),
                ns_per_iter: 50,
                iters: 1,
                reps: 1,
                norm: 0.0,
            },
            CaseResult {
                name: "work".into(),
                ns_per_iter: 200,
                iters: 1,
                reps: 1,
                norm: 0.0,
            },
        ];
        normalize(&mut cases, "cal");
        assert_eq!(cases[0].norm, 1.0);
        assert_eq!(cases[1].norm, 4.0);
    }

    #[test]
    #[should_panic(expected = "not in suite")]
    fn normalize_rejects_unknown_calibration() {
        let mut cases = vec![CaseResult {
            name: "work".into(),
            ns_per_iter: 200,
            iters: 1,
            reps: 1,
            norm: 0.0,
        }];
        normalize(&mut cases, "cal");
    }

    #[test]
    fn interleaved_runner_is_deterministic_under_a_fake_clock() {
        let run_once = || {
            let mut clock = FakeClock::new(1000);
            let mut suite = SuiteRunner::new();
            let mut a = 0u64;
            suite.case("a", 10, move || {
                a += 1;
                a
            });
            let mut b = 0u64;
            suite.case("b", 20, move || {
                b = b.wrapping_mul(3).wrapping_add(7);
                b
            });
            suite.run(&mut clock, 3)
        };
        let r1 = run_once();
        let r2 = run_once();
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 2);
        // Registration order is preserved; each timed loop spans one
        // stride, so per-iter time is stride / iters.
        assert_eq!(r1[0].name, "a");
        assert_eq!(r1[0].ns_per_iter, 100);
        assert_eq!(r1[1].name, "b");
        assert_eq!(r1[1].ns_per_iter, 50);
        assert_eq!(r1[0].reps, 3);
    }

    #[test]
    fn wall_clock_measures_something() {
        let mut suite = SuiteRunner::new();
        suite.case("sum", 1000, || (0..100u64).fold(0u64, u64::wrapping_add));
        let r = suite.run(&mut crate::timing::WallClock::new(), 3).remove(0);
        assert_eq!(r.iters, 1000);
        assert_eq!(r.reps, 3);
    }
}
