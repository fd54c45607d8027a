//! What every workload shares: options, the timed round-robin loop over a
//! workload's parts, and the report one run prints.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use crate::procfs;
use crate::stats::{median, percentile};

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Options of one run of one workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Seconds-long sizes for `--check`.
    pub tiny: bool,
    /// Where trace files and the daemon's fixture tree go.
    pub out_dir: PathBuf,
}

/// One execution of one part of a workload through a public entry point.
#[derive(Debug, Clone, Default)]
pub struct PartOutcome {
    /// Domain-intervals attempted: VM-epochs, tenant-epochs, domain-ticks.
    pub intervals: u64,
    /// Of those, the ones that failed (an `Err`, a panic, a degraded
    /// tick, a failed check).
    pub failed: u64,
    /// Host seconds inside the entry point.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval; `None` without `/proc`.
    pub cpu_s: Option<f64>,
    /// FNV-1a over the simulated statistics.
    pub digest: u64,
    /// Simulated L1 references (0 where nothing is simulated).
    pub l1_refs: u64,
    /// Failed checks, human-readable.
    pub problems: Vec<String>,
}

/// Times `f`, also in process CPU seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, Option<f64>) {
    let cpu0 = procfs::cpu_seconds();
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    let cpu = procfs::cpu_seconds().zip(cpu0).map(|(a, b)| a - b);
    (out, wall, cpu)
}

/// Runs `setup` [`SETUP_REPS`] times; returns the last product and the
/// median duration in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut durations = Vec::with_capacity(SETUP_REPS);
    let mut product = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous product first: a set-up that owns a directory
        // tree must not see its predecessor's.
        drop(product.take());
        let t = Instant::now();
        product = Some(setup());
        durations.push(t.elapsed().as_secs_f64());
    }
    (
        product.expect("SETUP_REPS is at least 1"),
        median(&durations),
    )
}

/// Every outcome of a run's measured phase, by part.
#[derive(Debug, Default)]
pub struct Rounds {
    pub parts: Vec<Vec<PartOutcome>>,
}

impl Rounds {
    /// Runs whole rounds — every part once, in order — until the time
    /// is used up. A panic inside a part fails that part's
    /// intervals and ends the phase.
    pub fn measure(
        seconds: f64,
        part_intervals: &[u64],
        mut run_part: impl FnMut(usize) -> PartOutcome,
    ) -> Rounds {
        let mut rounds = Rounds {
            parts: vec![Vec::new(); part_intervals.len()],
        };
        let start = Instant::now();
        loop {
            let round_start = Instant::now();
            for (part, &intervals) in part_intervals.iter().enumerate() {
                match catch_unwind(AssertUnwindSafe(|| run_part(part))) {
                    Ok(outcome) => rounds.parts[part].push(outcome),
                    Err(_) => {
                        rounds.parts[part].push(PartOutcome {
                            intervals,
                            failed: intervals,
                            problems: vec![format!("part {part} panicked")],
                            ..PartOutcome::default()
                        });
                        return rounds;
                    }
                }
            }
            // Stop where one more round would overshoot by more than it
            // undershoots.
            let round = round_start.elapsed().as_secs_f64();
            if start.elapsed().as_secs_f64() + round / 2.0 >= seconds {
                return rounds;
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.parts.iter().flatten().map(|o| o.intervals).sum()
    }

    pub fn failed(&self) -> u64 {
        self.parts.iter().flatten().map(|o| o.failed).sum()
    }

    /// Check failures, plus one per part whose digest changed between
    /// rounds: the same inputs must simulate the same thing every time.
    pub fn problems(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .parts
            .iter()
            .flatten()
            .flat_map(|o| o.problems.iter().cloned())
            .collect();
        for (part, outcomes) in self.parts.iter().enumerate() {
            if outcomes.windows(2).any(|w| w[0].digest != w[1].digest) {
                out.push(format!("part {part}: sim_digest differs between rounds"));
            }
        }
        out
    }

    /// One digest for the run: the first round's part digests, folded.
    pub fn digest(&self) -> u64 {
        let mut h = crate::stats::Fnv::new();
        for outcomes in &self.parts {
            h.word(outcomes.first().map_or(0, |o| o.digest));
        }
        h.finish()
    }

    /// Intervals of one round over the wall time of the best round.
    pub fn intervals_per_s(&self) -> f64 {
        self.round_intervals() as f64 / self.round_wall_s()
    }

    /// Process CPU microseconds per interval in the best round; `None`
    /// without `/proc`.
    pub fn cpu_us_per_interval(&self) -> Option<f64> {
        let cpu = self.best_round(|o| o.cpu_s)?;
        Some(cpu * 1e6 / self.round_intervals() as f64)
    }

    /// Simulated L1 references of one round over the same wall time.
    pub fn sim_refs_per_s(&self) -> f64 {
        let refs: u64 = self
            .parts
            .iter()
            .map(|o| o.first().map_or(0, |o| o.l1_refs))
            .sum();
        refs as f64 / self.round_wall_s()
    }

    /// Wall seconds of the best round.
    pub fn round_wall_s(&self) -> f64 {
        self.best_round(|o| Some(o.wall_s)).unwrap_or(0.0)
    }

    fn round_intervals(&self) -> u64 {
        self.parts
            .iter()
            .map(|o| o.first().map_or(0, |o| o.intervals))
            .sum()
    }

    /// The sum over the parts of each part's smallest `f`: the round the
    /// box disturbed least. Every execution of a part does identical,
    /// deterministic work in one thread, so whatever makes one slower
    /// than another comes from outside the program — neighbours on the
    /// shared cores, the hypervisor — and only ever adds time. With medians,
    /// ten runs of one workload spread by 11 to 27% here.
    /// Parts differ in cost (policies do), so each keeps its own minimum.
    fn best_round(&self, f: impl Fn(&PartOutcome) -> Option<f64>) -> Option<f64> {
        let mut sum = 0.0;
        for outcomes in &self.parts {
            let values: Option<Vec<f64>> = outcomes.iter().map(&f).collect();
            sum += values?.into_iter().fold(f64::INFINITY, f64::min);
        }
        Some(sum)
    }
}

/// What one run of one workload reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub digest: u64,
    /// Metric name to value; only the names `metrics.rs` declares.
    pub metrics: BTreeMap<String, f64>,
    /// Free-form facts for the human reader (stderr).
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// `(p50, p95, p99)` of `values`.
pub fn p50_p95_p99(values: &[f64]) -> (f64, f64, f64) {
    (
        percentile(values, 50.0),
        percentile(values, 95.0),
        percentile(values, 99.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(wall_s: f64, digest: u64) -> PartOutcome {
        PartOutcome {
            intervals: 100,
            wall_s,
            cpu_s: Some(wall_s / 2.0),
            digest,
            l1_refs: 1000,
            ..PartOutcome::default()
        }
    }

    #[test]
    fn throughput_adds_each_parts_best_execution() {
        let rounds = Rounds {
            parts: vec![
                vec![outcome(1.0, 7), outcome(9.0, 7), outcome(2.0, 7)],
                vec![outcome(3.0, 8), outcome(3.0, 8), outcome(30.0, 8)],
            ],
        };
        // Minima 1.0 and 3.0: slow executions are the box, not the program.
        assert!((rounds.intervals_per_s() - 200.0 / 4.0).abs() < 1e-9);
        assert!((rounds.cpu_us_per_interval().unwrap() - 2.0e6 / 200.0).abs() < 1e-6);
        assert!((rounds.sim_refs_per_s() - 2000.0 / 4.0).abs() < 1e-9);
        assert_eq!(rounds.attempted(), 600);
        assert!(rounds.problems().is_empty());
    }

    #[test]
    fn a_digest_that_moves_between_rounds_is_a_problem() {
        let rounds = Rounds {
            parts: vec![vec![outcome(1.0, 7), outcome(1.0, 9)]],
        };
        assert_eq!(rounds.problems().len(), 1);
    }

    #[test]
    fn a_panicking_part_fails_its_intervals_and_ends_the_phase() {
        let mut calls = 0;
        let rounds = Rounds::measure(60.0, &[10, 20], |part| {
            calls += 1;
            if part == 1 {
                panic!("boom");
            }
            PartOutcome {
                intervals: 10,
                ..PartOutcome::default()
            }
        });
        assert_eq!(calls, 2);
        assert_eq!(rounds.attempted(), 30);
        assert_eq!(rounds.failed(), 20);
        assert!(!rounds.problems().is_empty());
    }

    #[test]
    fn measure_runs_whole_rounds() {
        let rounds = Rounds::measure(0.0, &[1, 1, 1], |_| PartOutcome::default());
        assert!(rounds.parts.iter().all(|p| p.len() == 1));
    }
}
