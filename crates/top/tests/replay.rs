//! `dcat-top --replay` is the one reader of every artifact a run writes —
//! frame streams, flight dumps and Prometheus metrics — so it is also the
//! one validator: these tests drive the binary and hold it to exit
//! non-zero on every input the `dcat_obs` validators reject, and zero on
//! what a run actually writes.

use std::path::PathBuf;
use std::process::{Command, Output};

use dcat_obs::frames::FrameWriter;
use dcat_obs::{FlightRecorder, Tracer};
use dcat_top::{classify, render_replay, RenderOptions, StreamKind};

/// Runs `dcat-top --replay <file holding text> --headless`.
fn replay(tag: &str, text: &str) -> Output {
    let path = std::env::temp_dir().join(format!("dcat-top-replay-{tag}-{}", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dcat-top"))
        .arg("--replay")
        .arg(&path)
        .arg("--headless")
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    out
}

/// A valid two-frame stream from `FrameWriter`, ticks 1 and 2.
fn frames() -> String {
    let mut w = FrameWriter::new("replay-test");
    for tick in [1, 2] {
        w.push(dcat_obs::Frame {
            tick,
            policy: "dcat".into(),
            degraded: false,
            reason: None,
            ways_moved: 0,
            events: 0,
            ext: Default::default(),
            domains: Vec::new(),
        });
    }
    w.into_string()
}

/// A flight dump as the daemon writes it: two ticks of spans.
fn flight() -> String {
    let mut tracer = Tracer::new();
    let mut recorder = FlightRecorder::new(4);
    for tick in [1, 2] {
        tracer.set_tick(tick);
        tracer.scope("tick", |_| ());
        recorder.record(tick, false, tracer.completed(), std::iter::empty());
        tracer.clear();
    }
    recorder.dump_jsonl()
}

/// Puts a space after every `:` and `,` of the first line.
fn respace_header(text: &str) -> String {
    let (header, rest) = text.split_once('\n').unwrap();
    format!("{}\n{rest}", header.replace(':', ": ").replace(',', ", "))
}

#[test]
fn respaced_headers_replay_like_compact_ones() {
    let headless = RenderOptions::headless();
    for (kind, text) in [
        (StreamKind::Frames, frames()),
        (StreamKind::Flight, flight()),
    ] {
        let spaced = respace_header(&text);
        assert!(spaced.starts_with("{\"record\": \""), "{spaced}");
        assert_eq!(classify(&spaced), kind);
        assert_eq!(
            render_replay(&spaced, &headless),
            render_replay(&text, &headless)
        );
        let out = replay("respaced", &spaced);
        assert!(out.status.success(), "{kind:?}: {out:?}");
    }
}

#[test]
fn replay_accepts_every_artifact_a_run_writes() {
    let metrics =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../bench/tests/golden/fig07_metrics.prom");
    let metrics = std::fs::read_to_string(metrics).unwrap();
    let out = replay("metrics", &metrics);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with("=== prometheus text ("),
        "a family summary: {stdout}"
    );
    assert!(
        stdout.contains("  scenario_span_steps histogram"),
        "{stdout}"
    );

    for (tag, text) in [("frames", frames()), ("flight", flight())] {
        let out = replay(tag, &text);
        assert!(out.status.success(), "{tag}: {out:?}");
    }
}

#[test]
fn replay_exits_non_zero_on_what_the_validators_reject() {
    let stream = frames();
    let lines: Vec<&str> = stream.lines().collect();
    let backwards = format!("{}\n{}\n{}\n", lines[0], lines[2], lines[1]);
    let flight = flight();
    let headerless_flight = flight.split_once('\n').unwrap().1;
    let cases = [
        ("non-artifact", "{\"hello\":\"world\"}\n".to_string()),
        ("empty", String::new()),
        ("no TYPE", "loose_metric 1\n".to_string()),
        (
            "non-cumulative histogram",
            "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
             h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n"
                .to_string(),
        ),
        (
            "histogram count mismatch",
            "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\n\
             h_sum 2\nh_count 3\n"
                .to_string(),
        ),
        (
            "bare label value",
            "# TYPE x counter\nx{a=b} 1\n".to_string(),
        ),
        (
            "non-numeric value",
            "# TYPE x counter\nx notanumber\n".to_string(),
        ),
        ("unknown kind", "# TYPE x widget\n".to_string()),
        ("JSON array", "[1,2,3]\n".to_string()),
        ("not JSON", "{\"a\":1}\nnot json\n".to_string()),
        ("frame tick goes backwards", backwards),
        ("headerless frames", lines[1..].join("\n")),
        ("headerless flight dump", headerless_flight.to_string()),
        (
            "unknown flight schema",
            flight.replacen("dcat-flight/v1", "dcat-flight/v0", 1),
        ),
        (
            "flight tick repeats",
            flight.replacen("\"tick\":2", "\"tick\":1", 2),
        ),
    ];
    for (tag, text) in cases {
        let out = replay("reject", &text);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success() && stderr.starts_with("dcat-top: "),
            "{tag}: replay accepted {text:?}: {out:?}"
        );
    }
}
