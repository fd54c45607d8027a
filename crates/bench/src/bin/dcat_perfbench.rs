//! `dcat-perfbench` — the deterministic benchmark harness.
//!
//! Modes:
//!
//! * default: run the micro suite against the wall clock, print the
//!   human table, write `BENCH_micro.json` into `--out-dir` (default
//!   `.`), and — when a blessed baseline exists in `--baseline-dir` —
//!   gate the fresh run's normalized scores against it (tolerance taken
//!   from the baseline's header).
//! * `--check`: run the suite once with a fake deterministic clock,
//!   validate the emitted JSON against the schema, write nothing. This
//!   is the CI self-test; it has no time dependence at all.
//! * `DCAT_BLESS=1`: also rewrite the baseline file with the fresh
//!   results instead of gating (use after an intentional perf change).
//!
//! Flags: `--quick` (smoke-level iteration counts), `--out-dir DIR`,
//! `--baseline-dir DIR`.

use std::path::PathBuf;
use std::process::ExitCode;

use dcat_bench::perf::{self, harness::FakeClock, json, micro, ClockKind};
use dcat_bench::report;
use dcat_bench::timing::WallClock;

/// The tracked trajectory's file name, in `--out-dir` and `--baseline-dir`.
const BENCH_FILE: &str = "BENCH_micro.json";

struct Args {
    check: bool,
    quick: bool,
    out_dir: PathBuf,
    baseline_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut check = false;
    let mut quick = false;
    let mut out_dir = PathBuf::from(".");
    let mut baseline_dir = PathBuf::from(".");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--check" {
            check = true;
        } else if arg == "--quick" {
            quick = true;
        } else if arg == "--out-dir" {
            if let Some(v) = it.next() {
                out_dir = PathBuf::from(v);
            }
        } else if let Some(v) = arg.strip_prefix("--out-dir=") {
            out_dir = PathBuf::from(v);
        } else if arg == "--baseline-dir" {
            if let Some(v) = it.next() {
                baseline_dir = PathBuf::from(v);
            }
        } else if let Some(v) = arg.strip_prefix("--baseline-dir=") {
            baseline_dir = PathBuf::from(v);
        }
    }
    Args {
        check,
        quick,
        out_dir,
        baseline_dir,
    }
}

/// `--check`: fake clock, quick counts, schema validation, no files.
fn self_test() -> ExitCode {
    let mut clock = FakeClock::new(1_000_000);
    let result = micro::run(&mut clock, ClockKind::Fake, true);
    match json::validate(&result.to_json()) {
        Ok(parsed) => {
            report::say(format!(
                "suite '{}': schema ok ({} cases, {} derived)",
                parsed.suite,
                parsed.cases.len(),
                parsed.derived.len()
            ));
            report::say("perfbench --check passed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            report::say(format!("suite '{}': schema INVALID: {e}", result.suite));
            ExitCode::FAILURE
        }
    }
}

fn measure(args: &Args) -> ExitCode {
    let mut clock = WallClock::new();
    let result = micro::run(&mut clock, ClockKind::Wall, args.quick);
    perf::print_table(&result);
    let name = &result.suite;
    let text = result.to_json();
    let fresh = match json::validate(&text) {
        Ok(p) => p,
        Err(e) => {
            report::say(format!("suite '{name}': emitted JSON invalid: {e}"));
            return ExitCode::FAILURE;
        }
    };
    std::fs::create_dir_all(&args.out_dir).expect("create --out-dir");
    let out_path = args.out_dir.join(BENCH_FILE);
    std::fs::write(&out_path, &text).expect("write BENCH json");
    report::say(format!("wrote {}", out_path.display()));

    let base_path = args.baseline_dir.join(BENCH_FILE);
    if std::env::var_os("DCAT_BLESS").is_some() {
        if base_path != out_path {
            std::fs::write(&base_path, &text).expect("write blessed baseline");
        }
        report::say(format!("blessed {}", base_path.display()));
        return ExitCode::SUCCESS;
    }
    let Ok(base_text) = std::fs::read_to_string(&base_path) else {
        report::say(format!(
            "no baseline at {} (run with DCAT_BLESS=1 to create it)",
            base_path.display()
        ));
        return ExitCode::SUCCESS;
    };
    let baseline = match json::validate(&base_text) {
        Ok(b) => b,
        Err(e) => {
            report::say(format!("baseline {} invalid: {e}", base_path.display()));
            return ExitCode::FAILURE;
        }
    };
    match json::gate(&fresh, &baseline) {
        Ok(notes) => {
            for n in notes {
                report::say(format!("  gate: {n}"));
            }
            report::say(format!("suite '{name}': gate passed"));
            ExitCode::SUCCESS
        }
        Err(failures) => {
            for f in failures {
                report::say(format!("  gate FAILURE: {f}"));
            }
            report::say(format!(
                "suite '{name}': gate FAILED (re-bless with DCAT_BLESS=1 \
                 if the regression is intentional)"
            ));
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.check {
        self_test()
    } else {
        measure(&args)
    }
}
