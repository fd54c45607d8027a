//! Shared CLI parsing and the deterministic parallel sweep runner.
//!
//! Every experiment accepts `--fast` and `--jobs N`. `--jobs`
//! sets a process-global width consumed by [`Runner::from_env`]; sweeps
//! inside experiments fan their scenario runs out through
//! [`Runner::map`], which combines [`host::Pool`]'s index-ordered
//! execution with [`crate::report::capture`] so each task's printed
//! output is replayed in task order. The result: the bytes written to
//! stdout are identical for any jobs width, and `--jobs 1` is simply the
//! degenerate inline case.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use host::Pool;

use crate::report;

static JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-global sweep width (clamped to at least 1).
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
}

/// The process-global sweep width.
pub fn jobs() -> usize {
    JOBS.load(Ordering::Relaxed).max(1)
}

/// Process-global LLC set-sampling stride (0 or 1 = full fidelity).
static SAMPLE_SETS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-global LLC sampling stride (`--sample-sets N`).
pub fn set_sample_sets(n: usize) {
    SAMPLE_SETS.store(n, Ordering::Relaxed);
}

/// The LLC fidelity selected on the command line: `Full` unless
/// `--sample-sets N` with `N > 1` was given.
pub fn llc_fidelity() -> llc_sim::SimFidelity {
    match SAMPLE_SETS.load(Ordering::Relaxed) {
        0 | 1 => llc_sim::SimFidelity::Full,
        n => llc_sim::SimFidelity::Sampled {
            one_in: n.min(u32::MAX as usize) as u32,
        },
    }
}

/// Flags shared by every experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Scaled-down epoch counts and cycle budgets (for tests and CI).
    pub fast: bool,
    /// Parallel sweep width.
    pub jobs: usize,
    /// Where to export the process-root metrics snapshot on exit
    /// (Prometheus text).
    pub metrics_out: Option<PathBuf>,
    /// Where to write the run's `dcat-frames/v2` stream (for experiments
    /// that export one; others ignore it).
    pub frames_out: Option<PathBuf>,
    /// LLC set-sampling stride (`--sample-sets N`); 0 means full
    /// fidelity. Values of 1 also degenerate to full fidelity.
    pub sample_sets: usize,
    /// Fleet size (`--tenants N`) for the fleet experiments, overriding
    /// their default ladder; others ignore it.
    pub tenants: Option<u32>,
}

impl Cli {
    /// Parses `std::env::args()` and installs `--jobs` globally.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args)
    }

    /// Parses a flag list (`--fast`, `--jobs N`, `--jobs=N`,
    /// `--metrics-out PATH`, `--frames-out PATH`, `--sample-sets N`,
    /// `--tenants N`); anything else is ignored. Installs
    /// the parsed width via [`set_jobs`] and the sampling stride via
    /// [`set_sample_sets`].
    pub fn parse(args: &[String]) -> Self {
        let mut fast = false;
        let mut jobs = 1usize;
        let mut metrics_out = None;
        let mut frames_out = None;
        let mut sample_sets = 0usize;
        let mut tenants = None;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--fast" {
                fast = true;
            } else if arg == "--jobs" {
                if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                    jobs = n;
                }
            } else if let Some(v) = arg.strip_prefix("--jobs=") {
                if let Ok(n) = v.parse() {
                    jobs = n;
                }
            } else if arg == "--metrics-out" {
                metrics_out = it.next().map(PathBuf::from);
            } else if let Some(v) = arg.strip_prefix("--metrics-out=") {
                metrics_out = Some(PathBuf::from(v));
            } else if arg == "--frames-out" {
                frames_out = it.next().map(PathBuf::from);
            } else if let Some(v) = arg.strip_prefix("--frames-out=") {
                frames_out = Some(PathBuf::from(v));
            } else if arg == "--sample-sets" {
                if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                    sample_sets = n;
                }
            } else if let Some(v) = arg.strip_prefix("--sample-sets=") {
                if let Ok(n) = v.parse() {
                    sample_sets = n;
                }
            } else if arg == "--tenants" {
                tenants = it.next().and_then(|v| v.parse().ok());
            } else if let Some(v) = arg.strip_prefix("--tenants=") {
                tenants = v.parse().ok();
            }
        }
        let cli = Cli {
            fast,
            jobs: jobs.max(1),
            metrics_out,
            frames_out,
            sample_sets,
            tenants,
        };
        set_jobs(cli.jobs);
        set_sample_sets(cli.sample_sets);
        cli
    }
}

/// Standard experiment `main`: parses the [`Cli`], runs `body`, then
/// honors `--metrics-out` by exporting everything the run [`report::record`]ed
/// into the process-root registry.
///
/// # Panics
///
/// Panics if the metrics file cannot be written.
pub fn main_with(body: impl FnOnce(Cli)) {
    let cli = Cli::from_env();
    let metrics_out = cli.metrics_out.clone();
    body(cli);
    if let Some(path) = metrics_out {
        let snap = report::take_root_metrics();
        if let Err(e) = dcat_obs::write_text(&path, &snap.to_prometheus()) {
            panic!("metrics export to {}: {e}", path.display());
        }
    }
}

/// Deterministic parallel sweep executor.
pub struct Runner {
    pool: Pool,
}

impl Runner {
    /// A runner at the process-global `--jobs` width.
    pub fn from_env() -> Self {
        Runner::new(jobs())
    }

    /// A runner at an explicit width (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Runner {
            pool: Pool::new(jobs),
        }
    }

    /// The runner's width.
    pub fn jobs(&self) -> usize {
        self.pool.jobs()
    }

    /// Runs `f` over every item, in parallel up to the runner's width,
    /// and returns results in **item order**. Anything a task says
    /// through [`crate::report`] — text *and* recorded metrics — is
    /// captured and replayed in item order after the task completes, so
    /// stdout bytes and exported metric snapshots never depend on
    /// completion order or jobs width.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let chunks = self
            .pool
            .map(items, |i, item| report::capture_obs(|| f(i, item)));
        chunks
            .into_iter()
            .map(|(value, out, metrics)| {
                report::emit_raw(&out);
                report::emit_obs(&metrics);
                value
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_parses_flags() {
        let base = Cli {
            fast: false,
            jobs: 1,
            metrics_out: None,
            frames_out: None,
            sample_sets: 0,
            tenants: None,
        };
        assert_eq!(Cli::parse(&argv(&[])), base);
        assert_eq!(
            Cli::parse(&argv(&["--fast", "--jobs", "4"])),
            Cli {
                fast: true,
                jobs: 4,
                ..base.clone()
            }
        );
        assert_eq!(
            Cli::parse(&argv(&["--jobs=8"])),
            Cli {
                jobs: 8,
                ..base.clone()
            }
        );
        assert_eq!(
            Cli::parse(&argv(&["--metrics-out", "m.prom"])),
            Cli {
                metrics_out: Some(PathBuf::from("m.prom")),
                ..base.clone()
            }
        );
        assert_eq!(
            Cli::parse(&argv(&["--metrics-out=target/m.jsonl"])),
            Cli {
                metrics_out: Some(PathBuf::from("target/m.jsonl")),
                ..base.clone()
            }
        );
        assert_eq!(
            Cli::parse(&argv(&["--frames-out", "target/frames.jsonl"])),
            Cli {
                frames_out: Some(PathBuf::from("target/frames.jsonl")),
                ..base.clone()
            }
        );
        assert_eq!(
            Cli::parse(&argv(&["--frames-out=f.jsonl"])),
            Cli {
                frames_out: Some(PathBuf::from("f.jsonl")),
                ..base.clone()
            }
        );
        assert_eq!(
            Cli::parse(&argv(&["--sample-sets", "8"])),
            Cli {
                sample_sets: 8,
                ..base.clone()
            }
        );
        assert_eq!(
            Cli::parse(&argv(&["--sample-sets=16"])),
            Cli {
                sample_sets: 16,
                ..base.clone()
            }
        );
        assert_eq!(
            Cli::parse(&argv(&["--tenants", "1000"])),
            Cli {
                tenants: Some(1000),
                ..base.clone()
            }
        );
        assert_eq!(
            Cli::parse(&argv(&["--tenants=30"])),
            Cli {
                tenants: Some(30),
                ..base.clone()
            }
        );
        // Degenerate values clamp, junk is ignored.
        assert_eq!(Cli::parse(&argv(&["--jobs", "0", "--mystery"])), base);
        set_jobs(1); // do not leak the globals into other tests
        set_sample_sets(0);
    }

    #[test]
    fn sample_sets_maps_to_fidelity() {
        set_sample_sets(0);
        assert_eq!(llc_fidelity(), llc_sim::SimFidelity::Full);
        set_sample_sets(1);
        assert_eq!(llc_fidelity(), llc_sim::SimFidelity::Full);
        set_sample_sets(8);
        assert_eq!(llc_fidelity(), llc_sim::SimFidelity::Sampled { one_in: 8 });
        set_sample_sets(0);
    }

    #[test]
    fn runner_output_is_byte_identical_across_widths() {
        let run = |jobs: usize| {
            report::capture(|| {
                let r = Runner::new(jobs);
                let sums = r.map((0..24u64).collect(), |i, seed| {
                    let mut rng = smallrng::SmallRng::seed_from_u64(seed);
                    let sum = (0..500)
                        .map(|_| rng.next_u64())
                        .fold(0u64, u64::wrapping_add);
                    report::say(format!("task {i}: {sum}"));
                    sum
                });
                sums
            })
        };
        let (v1, out1) = run(1);
        let (v4, out4) = run(4);
        assert_eq!(v1, v4);
        assert_eq!(out1, out4);
        assert!(out1.starts_with("task 0: "));
        assert_eq!(out1.lines().count(), 24);
    }

    #[test]
    fn runner_metrics_are_byte_identical_across_widths() {
        // Worker metrics funnel through capture_obs/emit_obs; the merged
        // snapshot (and its rendered exports) must not depend on width.
        let run = |jobs: usize| {
            let ((), _text, snap) = report::capture_obs(|| {
                let r = Runner::new(jobs);
                let _ = r.map((0..16u64).collect(), |i, seed| {
                    report::record(|reg| {
                        reg.counter_add("tasks_total", &[], 1);
                        let label = if seed % 2 == 0 { "even" } else { "odd" };
                        reg.counter_add("tasks_by_parity", &[("parity", label)], 1);
                        reg.histogram_observe(
                            "task_index",
                            &[],
                            dcat_obs::DEFAULT_STEP_BUCKETS,
                            i as u64,
                        );
                    });
                });
            });
            snap
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a, b);
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        assert_eq!(
            a.get("tasks_total", &[]),
            Some(&dcat_obs::MetricValue::Counter(16))
        );
    }
}
