//! `all_experiments --fast`, the whole suite's report, against a golden
//! recorded before the last change to the simulated machine's
//! bookkeeping, at one worker and at two: the bytes may depend neither on
//! the code's layout nor on the jobs width.
//!
//! To regenerate after an intentional change to what an experiment
//! reports:
//!
//! ```sh
//! DCAT_BLESS=1 cargo test -p dcat-bench --test all_experiments_golden
//! ```

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};

/// Where a run's report goes: a file, so neither child can stall on a
/// full pipe while the other is waited for.
fn out_path(jobs: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("all_experiments.jobs{jobs}.txt"))
}

fn spawn(jobs: &str) -> Child {
    let out = File::create(out_path(jobs)).expect("create the report file");
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(["--fast", "--jobs", jobs])
        .stdout(out)
        .spawn()
        .expect("run all_experiments")
}

fn report(mut child: Child, jobs: &str) -> String {
    let status = child.wait().expect("wait for all_experiments");
    assert!(
        status.success(),
        "all_experiments --fast --jobs {jobs} failed: {status}"
    );
    std::fs::read_to_string(out_path(jobs)).expect("read the report")
}

fn check(actual: &str, expected: &str, jobs: &str, path: &Path) {
    if let Some((line, (a, e))) = actual
        .lines()
        .zip(expected.lines())
        .enumerate()
        .find(|(_, (a, e))| a != e)
    {
        panic!(
            "all_experiments --fast --jobs {jobs} diverged from {} at line {}:\n  got:      {a}\n  expected: {e}\n\
             if the change is intentional, re-bless with DCAT_BLESS=1",
            path.display(),
            line + 1
        );
    }
    assert!(
        actual == expected,
        "all_experiments --fast --jobs {jobs} differs from {} in length",
        path.display()
    );
}

/// Both widths run at once; a bless writes the one-job report, which the
/// two-job one must then equal.
#[test]
fn fast_suite_matches_golden_at_one_and_two_jobs() {
    let (one, two) = (spawn("1"), spawn("2"));
    let (one, two) = (report(one, "1"), report(two, "2"));
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/all_experiments_fast.txt");
    if std::env::var_os("DCAT_BLESS").is_some() {
        std::fs::write(&path, &one).expect("write golden");
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); run with DCAT_BLESS=1 to create it",
            path.display()
        )
    });
    check(&one, &expected, "1", &path);
    check(&two, &expected, "2", &path);
}
