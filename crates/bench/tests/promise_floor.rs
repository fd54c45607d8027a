//! The promise as a ratchet: every reading of `dcat-bench promise` (dCat
//! over static CAT per tenant, the guarantee and benefit per setup, the
//! fleet policies' fairness, miss rate and LLC hit share, at three seeds)
//! against `tests/golden/promise_floor.txt`.
//!
//! A reading that moves the worse way fails, and no bless writes it. One
//! that moves the better way fails too, until it is written down:
//!
//! ```sh
//! DCAT_BLESS=1 cargo test --release -p dcat-bench --test promise_floor
//! ```
//!
//! rewrites the file when nothing dropped, so the floor only ever rises.

use std::path::PathBuf;

use dcat_bench::experiments::promise::{measure, render_floor, Reading};
use dcat_bench::runner;

fn floor_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/promise_floor.txt")
}

/// `key value` lines of the floor file, comments skipped.
fn parse_floor(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (key, value) = l.split_once(' ').expect("a floor row is `key value`");
            let value = value.parse().unwrap_or_else(|e| panic!("{l}: {e}"));
            (key.to_string(), value)
        })
        .collect()
}

/// Whether `now` is worse than `floor` for `reading`'s direction.
fn dropped(reading: &Reading, floor: f64) -> bool {
    if reading.lower_is_better() {
        reading.value > floor
    } else {
        reading.value < floor
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "27 simulations, minutes unoptimized; ci.sh runs it in release"
)]
fn no_reading_of_the_promise_drops() {
    runner::set_jobs(2);
    let readings = measure();
    let text = render_floor(&readings);
    let path = floor_path();
    let floor = parse_floor(&std::fs::read_to_string(&path).unwrap_or_default());

    // A row no longer measured counts as a drop: blessing cannot shed one.
    let mut drops = Vec::new();
    for (key, was) in &floor {
        match readings.iter().find(|r| r.key == *key) {
            None => drops.push(format!("{key} is no longer measured")),
            Some(r) if dropped(r, *was) => {
                drops.push(format!("{key} dropped: {was} -> {}", r.value));
            }
            Some(_) => {}
        }
    }
    let unwritten: Vec<String> = readings
        .iter()
        .filter(|r| {
            floor
                .iter()
                .all(|(k, was)| *k != r.key || r.value.to_bits() != was.to_bits())
        })
        .map(|r| {
            let mut row = format!("{} ", r.key);
            dcat_obs::json::push_f64(&mut row, r.value);
            format!("{} rose or is new; write the row `{row}`", r.key)
        })
        .collect();
    assert!(
        drops.is_empty(),
        "the promise dropped:\n{}",
        drops.join("\n")
    );
    if std::env::var_os("DCAT_BLESS").is_some() {
        std::fs::write(&path, text).expect("write the floor");
        return;
    }
    assert!(
        unwritten.is_empty(),
        "{}\n(DCAT_BLESS=1 rewrites {} when nothing dropped)",
        unwritten.join("\n"),
        path.display()
    );
}
