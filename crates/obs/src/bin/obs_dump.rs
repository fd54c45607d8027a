//! obs-dump: pretty-print and validate dcat-obs artifacts.
//!
//! ```text
//! obs-dump [--check] <file>...
//! ```
//!
//! Formats are detected per file: `.jsonl` (or a leading `{`) is treated as
//! JSONL (metrics export, flight-recorder dump, or `dcat-frames/v1`
//! stream); anything else as Prometheus text. With `--check`, each file is
//! validated and the process exits non-zero on the first malformed
//! artifact — the mode CI uses. Flight dumps must carry the
//! `dcat-flight/v1` schema in their header; headerless or unknown-version
//! dumps are rejected. Frame streams go through the same
//! [`dcat_obs::frames::FrameReader`] validator `dcat-top --replay` uses.

use dcat_obs::frames;
use dcat_obs::json::{self, Value};
use dcat_obs::promcheck;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut files = Vec::new();
    for a in &args {
        match a.as_str() {
            "--check" => check = true,
            "--help" | "-h" => {
                println!("usage: obs-dump [--check] <file>...");
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("obs-dump: unknown flag {other}");
                std::process::exit(2);
            }
            path => files.push(path.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("usage: obs-dump [--check] <file>...");
        std::process::exit(2);
    }

    let mut failed = false;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("obs-dump: {path}: {e}");
                failed = true;
                continue;
            }
        };
        let jsonl = path.ends_with(".jsonl") || text.trim_start().starts_with('{');
        let result = if jsonl {
            dump_jsonl(path, &text, check)
        } else {
            dump_prometheus(path, &text, check)
        };
        if let Err(e) = result {
            eprintln!("obs-dump: {path}: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn dump_prometheus(path: &str, text: &str, check: bool) -> Result<(), String> {
    let summary = promcheck::check_prometheus(text)?;
    if check {
        println!(
            "{path}: OK prometheus ({} families, {} samples)",
            summary.families, summary.samples
        );
        return Ok(());
    }
    println!(
        "{path}: prometheus text, {} families, {} samples",
        summary.families, summary.samples
    );
    let mut family = String::new();
    let mut series = 0usize;
    let flush = |family: &str, series: usize| {
        if !family.is_empty() {
            println!("  {family:<40} {series} series");
        }
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            flush(&family, series);
            family = rest.to_string();
            series = 0;
        } else if !line.is_empty() && !line.starts_with('#') {
            series += 1;
        }
    }
    flush(&family, series);
    Ok(())
}

/// What a JSONL file claims to be, from its first non-empty line.
enum JsonlKind {
    Frames,
    Flight,
    /// Tick-shaped records with no `flight_header` — a pre-v1 dump.
    HeaderlessFlight,
    Generic,
}

fn classify_jsonl(text: &str) -> JsonlKind {
    let first = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    let Ok(v) = json::parse(first) else {
        return JsonlKind::Generic;
    };
    match v.get("record").and_then(Value::as_str) {
        Some("frames_header") | Some("frame") => JsonlKind::Frames,
        Some("flight_header") => JsonlKind::Flight,
        _ if v.get("tick").is_some() && v.get("spans").is_some() => JsonlKind::HeaderlessFlight,
        _ => JsonlKind::Generic,
    }
}

fn dump_jsonl(path: &str, text: &str, check: bool) -> Result<(), String> {
    let lines = match classify_jsonl(text) {
        JsonlKind::Frames => {
            let summary = frames::check_frames(text)?;
            if check {
                println!(
                    "{path}: OK frames ({} segments, {} frames)",
                    summary.segments, summary.frames
                );
                return Ok(());
            }
            summary.segments + summary.frames
        }
        JsonlKind::Flight => {
            let ticks = frames::check_flight(text)?;
            if check {
                println!("{path}: OK flight ({ticks} ticks)");
                return Ok(());
            }
            ticks + 1
        }
        JsonlKind::HeaderlessFlight => {
            return Err(
                "flight dump has no flight_header (headerless pre-v1 dump is rejected)".to_string(),
            );
        }
        JsonlKind::Generic => {
            let lines = promcheck::check_jsonl(text)?;
            if check {
                println!("{path}: OK jsonl ({lines} records)");
                return Ok(());
            }
            lines
        }
    };
    println!("{path}: jsonl, {lines} records");
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line)?;
        println!("  {}", summarize(&v));
    }
    Ok(())
}

fn summarize(v: &Value) -> String {
    if let Some(kind) = v.get("record").and_then(Value::as_str) {
        if kind == "flight_header" {
            return format!(
                "flight header: schema={} capacity={} retained={} dropped={}",
                v.get("schema").and_then(Value::as_str).unwrap_or("?"),
                num(v, "capacity"),
                num(v, "retained"),
                num(v, "dropped"),
            );
        }
        if kind == "frames_header" {
            return format!(
                "frames header: schema={} source={}",
                v.get("schema").and_then(Value::as_str).unwrap_or("?"),
                v.get("source").and_then(Value::as_str).unwrap_or("?"),
            );
        }
        if kind == "frame" {
            let domains = match v.get("domains") {
                Some(Value::Arr(d)) => d.len(),
                _ => 0,
            };
            let degraded = matches!(v.get("degraded"), Some(Value::Bool(true)));
            return format!(
                "frame {:>6}: {domains} domains, cos={} ways_moved={}{}",
                num(v, "tick"),
                num(v, "cos"),
                num(v, "ways_moved"),
                if degraded { ", DEGRADED" } else { "" },
            );
        }
    }
    if v.get("tick").is_some() && v.get("spans").is_some() {
        let spans = match v.get("spans") {
            Some(Value::Arr(s)) => s.len(),
            _ => 0,
        };
        let events = match v.get("events") {
            Some(Value::Arr(e)) => e.len(),
            _ => 0,
        };
        let degraded = matches!(v.get("degraded"), Some(Value::Bool(true)));
        return format!(
            "tick {:>6}: {spans} spans, {events} events{}",
            num(v, "tick"),
            if degraded { ", DEGRADED" } else { "" },
        );
    }
    if let (Some(name), Some(kind)) = (
        v.get("name").and_then(Value::as_str),
        v.get("kind").and_then(Value::as_str),
    ) {
        return format!("metric {name} ({kind})");
    }
    "record".to_string()
}

fn num(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_num).unwrap_or(0.0) as u64
}
