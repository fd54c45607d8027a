//! Malformed-telemetry corpus.
//!
//! Each case is one telemetry text a sampler could plausibly leave behind
//! (caught mid-write, mis-configured, edited by hand) with the exact
//! `(samples, issues)` [`parse_telemetry_lossy`] returns for it and the
//! `row_malformed` / `domain_quarantined` / `domain_silent` events
//! [`run_daemon_observed`] emits when the file stays like that for six
//! ticks under domains `a`, `b`, `c`. The expectations were recorded from
//! the map-per-tick parser before the daemon loop stopped using it: the
//! collector and the loop's slot ingest share one row grammar and must
//! keep agreeing with it, issue for issue.

use std::path::PathBuf;
use std::time::Duration;

use dcat::daemon::{run_daemon_observed, DaemonConfig, ObsOptions, ResiliencePolicy};
use dcat::{parse_telemetry_lossy, DcatConfig, Event, WorkloadHandle};
use resctrl::{CatCapabilities, FsBackend};

mod corpus;
use corpus::CASES;

const TICKS: u64 = 6;

fn parsed(text: &str) -> (Vec<String>, Vec<String>) {
    let (samples, issues) = parse_telemetry_lossy(text);
    let samples = samples
        .iter()
        .map(|(name, s)| {
            format!(
                "{name}={}/{}/{}/{}/{}",
                s.l1_ref, s.llc_ref, s.llc_miss, s.ret_ins, s.cycles
            )
        })
        .collect();
    let issues = issues
        .iter()
        .map(|i| {
            format!(
                "{}|{}|{}",
                i.line,
                i.domain.as_deref().unwrap_or("-"),
                i.message
            )
        })
        .collect();
    (samples, issues)
}

/// The daemon's row/quarantine/silence events with `text` as the telemetry
/// file for every one of [`TICKS`] ticks.
fn daemon_events(index: usize, text: &str) -> Vec<String> {
    let root: PathBuf =
        std::env::temp_dir().join(format!("dcatd-corpus-{}-{index}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    drop(FsBackend::create_fixture(&root, CatCapabilities::with_ways(20), 6).unwrap());
    let cfg = DaemonConfig {
        telemetry_path: root.join("telemetry.csv"),
        resctrl_root: root.clone(),
        domains: ["a", "b", "c"]
            .iter()
            .zip(0u32..)
            .map(|(name, i)| WorkloadHandle::new(*name, vec![2 * i, 2 * i + 1], 4))
            .collect(),
        dcat: DcatConfig::default(),
        interval: Duration::ZERO,
        max_ticks: Some(TICKS),
        resilience: ResiliencePolicy::default(),
        fault_plan: None,
        obs: ObsOptions::default(),
    };
    std::fs::write(&cfg.telemetry_path, text).unwrap();
    // (first tick, last tick, that tick's events); consecutive ticks with
    // the same events fold into one entry.
    let mut runs: Vec<(u64, u64, Vec<String>)> = Vec::new();
    run_daemon_observed(&cfg, |obs| {
        let lines: Vec<String> = obs
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::RowMalformed { .. }
                        | Event::DomainQuarantined { .. }
                        | Event::DomainSilent { .. }
                )
            })
            .map(Event::to_string)
            .collect();
        match runs.last_mut() {
            Some((_, last, same)) if *same == lines => *last = obs.tick,
            _ => runs.push((obs.tick, obs.tick, lines)),
        }
    })
    .unwrap();
    std::fs::remove_dir_all(&root).unwrap();
    runs.iter()
        .flat_map(|(first, last, lines)| {
            lines.iter().map(move |line| {
                if first == last {
                    format!("{first}: {line}")
                } else {
                    format!("{first}-{last}: {line}")
                }
            })
        })
        .collect()
}

#[test]
fn lossy_parse_and_daemon_events_match_the_recorded_corpus() {
    let mut failures = Vec::new();
    for (index, case) in CASES.iter().enumerate() {
        let (samples, issues) = parsed(case.text);
        let events = daemon_events(index, case.text);
        if samples != case.samples || issues != case.issues || events != case.events {
            // Printed as Rust literals, ready to compare against the table.
            failures.push(format!(
                "case {:?}\n  samples: &{samples:?},\n  issues: &{issues:?},\n  events: &{events:?},",
                case.name
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} case(s) diverged from the recorded corpus:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
