//! `sysbench`: the system benchmark of the dCat reproduction.
//!
//! One binary, four modes (`run.sh` builds it and passes its arguments
//! through):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload, in this process; the last line of stdout is the result
//!   object `BENCHMARK.json`'s contract describes.
//! * no `--trace` — every workload (or `--workload W`) in its own child
//!   process, `--reps N` untraced repetitions round-robin, then the
//!   traced pass; prints `workload name unit value` and writes the
//!   result file.
//! * `--check` — a seconds-long smoke at tiny sizes, validated against
//!   `BENCHMARK.json`.
//! * `--compare A.json B.json` — two result files against the declared
//!   bounds.

mod daemon;
mod fleet;
mod full;
mod harness;
mod hostloop;
mod meters;
mod metrics;
mod probes;
mod procfs;
mod socket;
mod span;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use dcat_obs::json::{quote, Obj};

use crate::harness::{Opts, Report};

/// Length of a run's measured phase when `--seconds` is not given;
/// `--check` holds it equal to `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    reps: Option<usize>,
    no_trace: bool,
    tiny: bool,
    check: bool,
    compare: Option<(PathBuf, PathBuf)>,
    spec: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--reps N] [--no-trace] [--out FILE]
       run.sh --workload NAME --seed N --seconds S --trace 0|1
       run.sh --check
       run.sh --compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("{flag}: bad value '{v}'"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => args.seed = Some(number(flag, &value(&mut it, flag)?)?),
            "--seconds" => {
                let s: f64 = number(flag, &value(&mut it, flag)?)?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds: bad value '{s}'"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: bad value '{v}' (0 or 1)")),
                })
            }
            "--reps" => args.reps = Some(number::<usize>(flag, &value(&mut it, flag)?)?.max(1)),
            "--no-trace" => args.no_trace = true,
            "--tiny" => args.tiny = true,
            "--check" => args.check = true,
            "--compare" => {
                let a = value(&mut it, flag)?;
                let b = value(&mut it, flag)?;
                args.compare = Some((a.into(), b.into()));
            }
            "--spec" => args.spec = Some(value(&mut it, flag)?.into()),
            "--out-dir" => args.out_dir = Some(value(&mut it, flag)?.into()),
            "--out" => args.out = Some(value(&mut it, flag)?.into()),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Renders a value with all its digits (Rust prints the shortest decimal
/// that reads back to the same `f64`).
fn number(v: f64) -> String {
    format!("{v}")
}

/// The result object one run ends its stdout with.
fn result_line(report: &Report) -> String {
    let mut metrics = Obj::new();
    for (name, value) in &report.metrics {
        let unit = metrics::unit_of(name).unwrap_or("");
        let entry = Obj::new()
            .raw_field("value", &number(*value))
            .str_field("unit", unit)
            .finish();
        metrics = metrics.raw_field(name, &entry);
    }
    Obj::new()
        .bool_field("correct", report.correct())
        .u64_field("attempted", report.attempted.max(1))
        .u64_field("failed", report.failed)
        .raw_field("metrics", &metrics.finish())
        .finish()
}

/// One run of one workload in this process.
fn run_one(workload: &str, opts: &Opts, trace: bool) -> Result<(), String> {
    let mut report = workload::run(workload, opts, trace)?;
    let bad: Vec<String> = report
        .metrics
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(k, _)| k.clone())
        .collect();
    for name in bad {
        report.metrics.remove(&name);
        report
            .problems
            .push(format!("{name} is not a finite number"));
    }
    for note in &report.notes {
        eprintln!("# {workload}: {note}");
    }
    for problem in &report.problems {
        eprintln!("# {workload}: PROBLEM {problem}");
    }
    for (name, value) in &report.metrics {
        let unit = metrics::unit_of(name).unwrap_or("?");
        println!("{workload} {name} {unit} {}", number(*value));
    }
    let problems: Vec<String> = report.problems.iter().map(|p| quote(p)).collect();
    let detail = Obj::new()
        .str_field("workload", workload)
        .u64_field("seed", opts.seed)
        .bool_field("trace", trace)
        .str_field("sim_digest", &format!("{:016x}", report.digest))
        .raw_field("problems", &dcat_obs::json::array(&problems))
        .finish();
    println!("detail {detail}");
    println!("{}", result_line(&report));
    Ok(())
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let out_dir = args
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/out"));
    let spec_path = args
        .spec
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));

    if let Some((a, b)) = &args.compare {
        return full::compare(&spec_path, a, b);
    }
    if args.check {
        return full::check(&spec_path, &out_dir);
    }
    match (&args.workload, args.trace) {
        (Some(workload), Some(trace)) => {
            let opts = Opts {
                seed: args.seed.unwrap_or(full::DEFAULT_SEED),
                seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
                tiny: args.tiny,
                out_dir,
            };
            run_one(workload, &opts, trace)?;
            Ok(ExitCode::SUCCESS)
        }
        (None, Some(_)) => Err(format!("--trace needs --workload\n{USAGE}")),
        (_, None) => full::run_all(&args, &spec_path, &out_dir),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sysbench: {e}");
            ExitCode::from(2)
        }
    }
}
