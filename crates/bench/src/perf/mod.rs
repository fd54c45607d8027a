//! The deterministic timing suite behind `dcat-perfbench`.
//!
//! Structure:
//!
//! * [`harness`] — warmup + median-of-K measurement over an injected
//!   [`dcat_obs::CycleSource`] (wall clock for real runs, a fake
//!   deterministic clock for `--check`), with the K repetitions
//!   interleaved across the suite's cases for noise robustness, plus
//!   normalization against a calibration spin.
//! * [`micro`] — the one suite: every layer from a `CacheSet` access to
//!   a whole `fig10_dynamic_alloc --fast` point.
//! * [`json`] — the `dcat-perfbench/v1` schema: serialization,
//!   validation (reusing `obs::json`'s parser), and the normalized
//!   regression gate with `DCAT_BLESS=1` re-blessing.
//!
//! The tracked trajectory lives in `BENCH_micro.json` at the repository
//! root; `ci.sh` re-measures and gates every fresh run against it.

pub mod harness;
pub mod json;
pub mod micro;

use crate::report;

/// Which clock a suite ran against (recorded in the JSON header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockKind {
    /// Real time via [`crate::timing::WallClock`].
    Wall,
    /// Deterministic [`harness::FakeClock`] (schema self-test mode).
    Fake,
}

impl ClockKind {
    /// The header label (`wall` / `fake`).
    pub(crate) fn label(self) -> &'static str {
        match self {
            ClockKind::Wall => "wall",
            ClockKind::Fake => "fake",
        }
    }
}

/// Prints a suite as a human table via [`report::say`].
pub fn print_table(suite: &json::SuiteResult) {
    report::section(&format!(
        "perfbench suite '{}' ({} clock)",
        suite.suite, suite.clock
    ));
    let rows: Vec<Vec<String>> = suite
        .cases
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                format!("{}", c.ns_per_iter),
                format!("{:.4}", c.norm),
                format!("{}x{}", c.iters, c.reps),
            ]
        })
        .collect();
    report::table(&["case", "ns/iter", "norm", "iters x reps"], &rows);
    for d in &suite.derived {
        match d.min {
            Some(m) => report::say(format!("{}: {:.2}x (floor {:.2}x)", d.name, d.value, m)),
            None => report::say(format!("{}: {:.2}x", d.name, d.value)),
        }
    }
}
