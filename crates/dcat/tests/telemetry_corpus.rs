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

const TICKS: u64 = 6;

struct Case {
    name: &'static str,
    text: &'static str,
    /// `name=l1_ref/llc_ref/llc_miss/ret_ins/cycles` per sample in name
    /// order, then `line|domain|message` per issue in report order.
    samples: &'static [&'static str],
    issues: &'static [&'static str],
    /// `tick: log line` per event of the three kinds, in emission order;
    /// `first-last:` when consecutive ticks emitted the same events.
    events: &'static [&'static str],
}

const CASES: &[Case] = &[
    Case {
        name: "healthy",
        text: "a,1,2,3,4,5\nb,10,20,30,40,50\nc,100,200,300,400,500\n",
        samples: &["a=1/2/3/4/5", "b=10/20/30/40/50", "c=100/200/300/400/500"],
        issues: &[],
        events: &[],
    },
    Case {
        name: "truncated mid-row",
        text: "a,1,2,3,4,5\nb,10,20,30,40,50\nc,100,20",
        samples: &["a=1/2/3/4/5", "b=10/20/30/40/50"],
        issues: &["3|c|expected 6 fields, got 3"],
        events: &[
            "1: event=row_malformed domain=c line=3 message=\"expected 6 fields, got 3\"",
            "1: event=domain_silent domain=c",
            "2-4: event=row_malformed domain=c line=3 message=\"expected 6 fields, got 3\"",
            "5: event=row_malformed domain=c line=3 message=\"expected 6 fields, got 3\"",
            "5: event=domain_quarantined domain=c after_ticks=5",
        ],
    },
    Case {
        name: "truncated mid-number leaves a shorter valid number",
        text: "a,1,2,3,4,5\nb,10,20,30,40,50\nc,100,200,300,400,5",
        samples: &["a=1/2/3/4/5", "b=10/20/30/40/50", "c=100/200/300/400/5"],
        issues: &[],
        events: &[],
    },
    Case {
        name: "five fields",
        text: "a,1,2,3,4\nb,10,20,30,40,50\nc,100,200,300,400,500\n",
        samples: &["b=10/20/30/40/50", "c=100/200/300/400/500"],
        issues: &["1|a|expected 6 fields, got 5"],
        events: &[
            "1: event=row_malformed domain=a line=1 message=\"expected 6 fields, got 5\"",
            "1: event=domain_silent domain=a",
            "2-4: event=row_malformed domain=a line=1 message=\"expected 6 fields, got 5\"",
            "5: event=row_malformed domain=a line=1 message=\"expected 6 fields, got 5\"",
            "5: event=domain_quarantined domain=a after_ticks=5",
        ],
    },
    Case {
        name: "seven fields",
        text: "a,1,2,3,4,5\nb,10,20,30,40,50,60\nc,100,200,300,400,500\n",
        samples: &["a=1/2/3/4/5", "c=100/200/300/400/500"],
        issues: &["2|b|expected 6 fields, got 7"],
        events: &[
            "1: event=row_malformed domain=b line=2 message=\"expected 6 fields, got 7\"",
            "1: event=domain_silent domain=b",
            "2-4: event=row_malformed domain=b line=2 message=\"expected 6 fields, got 7\"",
            "5: event=row_malformed domain=b line=2 message=\"expected 6 fields, got 7\"",
            "5: event=domain_quarantined domain=b after_ticks=5",
        ],
    },
    Case {
        name: "one field and a lone comma",
        text: "a\n,\nb,10,20,30,40,50\nc,100,200,300,400,500\n",
        samples: &["b=10/20/30/40/50", "c=100/200/300/400/500"],
        issues: &["1|a|expected 6 fields, got 1", "2|-|expected 6 fields, got 2"],
        events: &[
            "1: event=row_malformed domain=a line=1 message=\"expected 6 fields, got 1\"",
            "1: event=row_malformed line=2 message=\"expected 6 fields, got 2\"",
            "1: event=domain_silent domain=a",
            "2-4: event=row_malformed domain=a line=1 message=\"expected 6 fields, got 1\"",
            "2-4: event=row_malformed line=2 message=\"expected 6 fields, got 2\"",
            "5: event=row_malformed domain=a line=1 message=\"expected 6 fields, got 1\"",
            "5: event=row_malformed line=2 message=\"expected 6 fields, got 2\"",
            "5: event=domain_quarantined domain=a after_ticks=5",
            "6: event=row_malformed line=2 message=\"expected 6 fields, got 2\"",
        ],
    },
    Case {
        name: "bad number in each column, first bad field wins",
        text: "a,x,2,3,4,5\nb,1,-2,3,4,5\nc,1,2,3.5,4,5\nd,1,2,3,,5\n\
               e,1,2,3,4,99999999999999999999\nf,1,y,z,4,5\n",
        samples: &[],
        issues: &[
            "1|a|bad l1_ref \"x\": invalid digit found in string",
            "2|b|bad llc_ref \"-2\": invalid digit found in string",
            "3|c|bad llc_miss \"3.5\": invalid digit found in string",
            "4|d|bad ret_ins \"\": cannot parse integer from empty string",
            "5|e|bad cycles \"99999999999999999999\": number too large to fit in target type",
            "6|f|bad llc_ref \"y\": invalid digit found in string",
        ],
        events: &[
            "1: event=row_malformed domain=a line=1 message=\"bad l1_ref \\\"x\\\": invalid digit found in string\"",
            "1: event=row_malformed domain=b line=2 message=\"bad llc_ref \\\"-2\\\": invalid digit found in string\"",
            "1: event=row_malformed domain=c line=3 message=\"bad llc_miss \\\"3.5\\\": invalid digit found in string\"",
            "1: event=row_malformed domain=d line=4 message=\"bad ret_ins \\\"\\\": cannot parse integer from empty string\"",
            "1: event=row_malformed domain=e line=5 message=\"bad cycles \\\"99999999999999999999\\\": number too large to fit in target type\"",
            "1: event=row_malformed domain=f line=6 message=\"bad llc_ref \\\"y\\\": invalid digit found in string\"",
            "1: event=domain_silent domain=a",
            "1: event=domain_silent domain=b",
            "1: event=domain_silent domain=c",
            "2-4: event=row_malformed domain=a line=1 message=\"bad l1_ref \\\"x\\\": invalid digit found in string\"",
            "2-4: event=row_malformed domain=b line=2 message=\"bad llc_ref \\\"-2\\\": invalid digit found in string\"",
            "2-4: event=row_malformed domain=c line=3 message=\"bad llc_miss \\\"3.5\\\": invalid digit found in string\"",
            "2-4: event=row_malformed domain=d line=4 message=\"bad ret_ins \\\"\\\": cannot parse integer from empty string\"",
            "2-4: event=row_malformed domain=e line=5 message=\"bad cycles \\\"99999999999999999999\\\": number too large to fit in target type\"",
            "2-4: event=row_malformed domain=f line=6 message=\"bad llc_ref \\\"y\\\": invalid digit found in string\"",
            "5: event=row_malformed domain=a line=1 message=\"bad l1_ref \\\"x\\\": invalid digit found in string\"",
            "5: event=row_malformed domain=b line=2 message=\"bad llc_ref \\\"-2\\\": invalid digit found in string\"",
            "5: event=row_malformed domain=c line=3 message=\"bad llc_miss \\\"3.5\\\": invalid digit found in string\"",
            "5: event=row_malformed domain=d line=4 message=\"bad ret_ins \\\"\\\": cannot parse integer from empty string\"",
            "5: event=row_malformed domain=e line=5 message=\"bad cycles \\\"99999999999999999999\\\": number too large to fit in target type\"",
            "5: event=row_malformed domain=f line=6 message=\"bad llc_ref \\\"y\\\": invalid digit found in string\"",
            "5: event=domain_quarantined domain=a after_ticks=5",
            "5: event=domain_quarantined domain=b after_ticks=5",
            "5: event=domain_quarantined domain=c after_ticks=5",
            "6: event=row_malformed domain=d line=4 message=\"bad ret_ins \\\"\\\": cannot parse integer from empty string\"",
            "6: event=row_malformed domain=e line=5 message=\"bad cycles \\\"99999999999999999999\\\": number too large to fit in target type\"",
            "6: event=row_malformed domain=f line=6 message=\"bad llc_ref \\\"y\\\": invalid digit found in string\"",
        ],
    },
    Case {
        name: "empty name",
        text: ",1,2,3,4,5\n  ,1,2,3,4,5\n,x,2,3,4,5\n,1,2\nb,10,20,30,40,50\n",
        samples: &["b=10/20/30/40/50"],
        issues: &[
            "1|-|empty domain name",
            "2|-|empty domain name",
            "3|-|bad l1_ref \"x\": invalid digit found in string",
            "4|-|expected 6 fields, got 3",
        ],
        events: &[
            "1: event=row_malformed line=1 message=\"empty domain name\"",
            "1: event=row_malformed line=2 message=\"empty domain name\"",
            "1: event=row_malformed line=3 message=\"bad l1_ref \\\"x\\\": invalid digit found in string\"",
            "1: event=row_malformed line=4 message=\"expected 6 fields, got 3\"",
            "1: event=domain_silent domain=a",
            "1: event=domain_silent domain=c",
            "2-4: event=row_malformed line=1 message=\"empty domain name\"",
            "2-4: event=row_malformed line=2 message=\"empty domain name\"",
            "2-4: event=row_malformed line=3 message=\"bad l1_ref \\\"x\\\": invalid digit found in string\"",
            "2-4: event=row_malformed line=4 message=\"expected 6 fields, got 3\"",
            "5: event=row_malformed line=1 message=\"empty domain name\"",
            "5: event=row_malformed line=2 message=\"empty domain name\"",
            "5: event=row_malformed line=3 message=\"bad l1_ref \\\"x\\\": invalid digit found in string\"",
            "5: event=row_malformed line=4 message=\"expected 6 fields, got 3\"",
            "5: event=domain_quarantined domain=a after_ticks=5",
            "5: event=domain_quarantined domain=c after_ticks=5",
            "6: event=row_malformed line=1 message=\"empty domain name\"",
            "6: event=row_malformed line=2 message=\"empty domain name\"",
            "6: event=row_malformed line=3 message=\"bad l1_ref \\\"x\\\": invalid digit found in string\"",
            "6: event=row_malformed line=4 message=\"expected 6 fields, got 3\"",
        ],
    },
    Case {
        name: "duplicate configured domain keeps the first",
        text: "a,1,2,3,4,5\nb,10,20,30,40,50\na,9,9,9,9,9\nc,100,200,300,400,500\na,7,7,7,7,7\n",
        samples: &["a=1/2/3/4/5", "b=10/20/30/40/50", "c=100/200/300/400/500"],
        issues: &["3|a|duplicate domain row", "5|a|duplicate domain row"],
        events: &[
            "1-6: event=row_malformed domain=a line=3 message=\"duplicate domain row\"",
            "1-6: event=row_malformed domain=a line=5 message=\"duplicate domain row\"",
        ],
    },
    Case {
        name: "duplicate unconfigured domain is still reported",
        text: "a,1,2,3,4,5\nz,1,1,1,1,1\nb,10,20,30,40,50\nz,2,2,2,2,2\nc,100,200,300,400,500\n",
        samples: &["a=1/2/3/4/5", "b=10/20/30/40/50", "c=100/200/300/400/500", "z=1/1/1/1/1"],
        issues: &["4|z|duplicate domain row"],
        events: &["1-6: event=row_malformed domain=z line=4 message=\"duplicate domain row\""],
    },
    Case {
        name: "a malformed first occurrence does not shadow a good second",
        text: "a,x,2,3,4,5\na,1,2,3,4,5\nb,10,20,30,40,50\nc,100,200,300,400,500\n",
        samples: &["a=1/2/3/4/5", "b=10/20/30/40/50", "c=100/200/300/400/500"],
        issues: &["1|a|bad l1_ref \"x\": invalid digit found in string"],
        events: &[
            "1-6: event=row_malformed domain=a line=1 message=\"bad l1_ref \\\"x\\\": invalid digit found in string\"",
        ],
    },
    Case {
        name: "CRLF line endings",
        text: "# name,l1_ref\r\na,1,2,3,4,5\r\nb,10,20,30,40,50\r\n\r\nc,100,200,300,400,500\r\n",
        samples: &["a=1/2/3/4/5", "b=10/20/30/40/50", "c=100/200/300/400/500"],
        issues: &[],
        events: &[],
    },
    Case {
        name: "leading and trailing blanks",
        text: "\n\n  a , 1,2 ,\t3,4,5  \n\t\nb,10,20,30,40,50\n   \nc,100,200,300,400,500\n\n\n",
        samples: &["a=1/2/3/4/5", "b=10/20/30/40/50", "c=100/200/300/400/500"],
        issues: &[],
        events: &[],
    },
    Case {
        name: "comment lines",
        text: "# header\na,1,2,3,4,5\n  # indented, with, commas, in, it, x\n#b,0,0,0,0,0\n\
               b,10,20,30,40,50\nc,100,200,300,400,500\n# trailer",
        samples: &["a=1/2/3/4/5", "b=10/20/30/40/50", "c=100/200/300/400/500"],
        issues: &[],
        events: &[],
    },
    Case {
        name: "rows out of configuration order",
        text: "c,100,200,300,400,500\na,1,2,3,4,5\nb,10,20,30,40,50\n",
        samples: &["a=1/2/3/4/5", "b=10/20/30/40/50", "c=100/200/300/400/500"],
        issues: &[],
        events: &[],
    },
    Case {
        name: "out of order with a late duplicate and a stranger",
        text: "b,10,20,30,40,50\nq,5,5,5,5,5\na,1,2,3,4,5\nb,11,21,31,41,51\nq,6,6,6,6,6\n",
        samples: &["a=1/2/3/4/5", "b=10/20/30/40/50", "q=5/5/5/5/5"],
        issues: &["4|b|duplicate domain row", "5|q|duplicate domain row"],
        events: &[
            "1: event=row_malformed domain=b line=4 message=\"duplicate domain row\"",
            "1: event=row_malformed domain=q line=5 message=\"duplicate domain row\"",
            "1: event=domain_silent domain=c",
            "2-4: event=row_malformed domain=b line=4 message=\"duplicate domain row\"",
            "2-4: event=row_malformed domain=q line=5 message=\"duplicate domain row\"",
            "5: event=row_malformed domain=b line=4 message=\"duplicate domain row\"",
            "5: event=row_malformed domain=q line=5 message=\"duplicate domain row\"",
            "5: event=domain_quarantined domain=c after_ticks=5",
            "6: event=row_malformed domain=b line=4 message=\"duplicate domain row\"",
            "6: event=row_malformed domain=q line=5 message=\"duplicate domain row\"",
        ],
    },
    Case {
        name: "a configured domain never appears",
        text: "a,1,2,3,4,5\nb,10,20,30,40,50\n",
        samples: &["a=1/2/3/4/5", "b=10/20/30/40/50"],
        issues: &[],
        events: &[
            "1: event=domain_silent domain=c",
            "5: event=domain_quarantined domain=c after_ticks=5",
        ],
    },
    Case {
        name: "nothing but noise",
        text: "# nothing\n\n,,,,,\nnot a row\n",
        samples: &[],
        issues: &[
            "3|-|bad l1_ref \"\": cannot parse integer from empty string",
            "4|not a row|expected 6 fields, got 1",
        ],
        events: &[
            "1: event=row_malformed line=3 message=\"bad l1_ref \\\"\\\": cannot parse integer from empty string\"",
            "1: event=row_malformed domain=not a row line=4 message=\"expected 6 fields, got 1\"",
            "1: event=domain_silent domain=a",
            "1: event=domain_silent domain=b",
            "1: event=domain_silent domain=c",
            "2-4: event=row_malformed line=3 message=\"bad l1_ref \\\"\\\": cannot parse integer from empty string\"",
            "2-4: event=row_malformed domain=not a row line=4 message=\"expected 6 fields, got 1\"",
            "5: event=row_malformed line=3 message=\"bad l1_ref \\\"\\\": cannot parse integer from empty string\"",
            "5: event=row_malformed domain=not a row line=4 message=\"expected 6 fields, got 1\"",
            "5: event=domain_quarantined domain=a after_ticks=5",
            "5: event=domain_quarantined domain=b after_ticks=5",
            "5: event=domain_quarantined domain=c after_ticks=5",
            "6: event=row_malformed line=3 message=\"bad l1_ref \\\"\\\": cannot parse integer from empty string\"",
            "6: event=row_malformed domain=not a row line=4 message=\"expected 6 fields, got 1\"",
        ],
    },
];

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
