//! dcat-top — live operational dashboard for a dCat run.
//!
//! Usage:
//!
//! ```text
//! dcat-top --replay <frames.jsonl | flight.jsonl | metrics.prom> [--headless]
//! dcat-top --follow <path> [--interval-ms <n>] [--max-ticks <n>] [--headless]
//! ```
//!
//! `--replay` renders a recorded `dcat-frames` stream (v1 or v2), a
//! `dcat-flight/v1` recorder dump or a Prometheus metrics export in full
//! and exits, non-zero on input its validator rejects; `--follow` polls a
//! growing file — typically the `--frames-out` target of a running
//! `dcatd` — and redraws the latest frame as it lands. `--headless`
//! disables ANSI color and screen clearing so output can be piped or
//! byte-diffed (the CI golden check replays fig07's stream this way).
//! `--max-ticks` ends a follow after that many frames, for scripted runs.
//!
//! Validation is `dcat_obs`'s (`FrameReader`, `parse_flight`,
//! `check_prometheus`): replay is how an artifact is checked.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use dcat_top::{render_frame, render_replay, Follow, RenderOptions, CLEAR_SCREEN};

fn usage() -> &'static str {
    "usage: dcat-top --replay <path> [--headless]\n\
            dcat-top --follow <path> [--interval-ms <n>] [--max-ticks <n>] [--headless]"
}

struct Args {
    replay: Option<String>,
    follow: Option<String>,
    interval: Duration,
    max_ticks: Option<u64>,
    headless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        replay: None,
        follow: None,
        interval: Duration::from_millis(500),
        max_ticks: None,
        headless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{what} requires a value"))
        };
        match arg.as_str() {
            "--replay" => args.replay = Some(value("--replay")?),
            "--follow" => args.follow = Some(value("--follow")?),
            "--interval-ms" => {
                let raw = value("--interval-ms")?;
                let ms: u64 = raw.parse().map_err(|e| format!("bad --interval-ms: {e}"))?;
                args.interval = Duration::from_millis(ms);
            }
            "--max-ticks" => {
                let raw = value("--max-ticks")?;
                args.max_ticks = Some(raw.parse().map_err(|e| format!("bad --max-ticks: {e}"))?);
            }
            "--headless" => args.headless = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if args.replay.is_some() == args.follow.is_some() {
        return Err(format!(
            "exactly one of --replay / --follow is required\n{}",
            usage()
        ));
    }
    Ok(args)
}

fn replay(path: &str, opts: &RenderOptions) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let rendered = render_replay(&text, opts)?;
    print!("{rendered}");
    Ok(())
}

/// Follow mode: poll the file, and whenever new complete frames appear,
/// redraw the latest (interactive) or append them all (headless).
/// [`Follow`] reads only what was appended since the last poll.
fn follow(path: &str, args: &Args, opts: &RenderOptions) -> Result<(), String> {
    let mut stream = Follow::default();
    let mut shown = 0u64;
    loop {
        let frames = stream.poll(Path::new(path))?;
        if opts.color {
            if let Some(f) = frames.last() {
                print!("{CLEAR_SCREEN}{}", render_frame(f, opts));
            }
        } else {
            for f in &frames {
                println!("{}", render_frame(f, opts));
            }
        }
        shown += frames.len() as u64;
        if let Some(max) = args.max_ticks {
            if shown >= max {
                return Ok(());
            }
        }
        std::thread::sleep(args.interval);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let opts = if args.headless {
        RenderOptions::headless()
    } else {
        RenderOptions::interactive()
    };
    let run = match (&args.replay, &args.follow) {
        (Some(path), _) => replay(path, &opts),
        (_, Some(path)) => follow(path, &args, &opts),
        _ => unreachable!("parse_args enforces one mode"),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("dcat-top: {msg}");
            ExitCode::FAILURE
        }
    }
}
