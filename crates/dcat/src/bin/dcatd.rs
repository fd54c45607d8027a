//! dcatd — the dCat daemon.
//!
//! Usage:
//!
//! ```text
//! dcatd --resctrl <root> --telemetry <file> --domains <name:cores:ways;...>
//!       [--interval-ms <n>] [--ticks <n>] [--max-performance]
//!       [--retry-attempts <n>] [--retry-backoff-ms <n>] [--quarantine-after <n>]
//!       [--counter-width-bits <n>]
//!       [--fault-seed <n> --fault-rate <p> --fault-ticks <n>]
//!       [--metrics-out <path>] [--flight-out <path>] [--flight-ticks <n>]
//!       [--frames-out <path>]
//! ```
//!
//! Example against a fixture tree (no hardware needed):
//!
//! ```text
//! dcatd --resctrl /tmp/resctrl --telemetry /tmp/counters.csv \
//!       --domains "web:0-1:4;db:2-3:6" --interval-ms 1000
//! ```
//!
//! On CAT hardware, point `--resctrl` at `/sys/fs/resctrl` and refresh the
//! telemetry file from an MSR/perf sampler once per interval.
//!
//! Structured per-tick events (retries, degraded ticks, counter wraps,
//! quarantines) are printed to stderr as `tick=<n> event=<name> ...` lines.
//! The `--fault-*` flags inject a seeded random fault schedule into both
//! the telemetry feed and the resctrl backend — for resilience drills
//! against fixture trees, not for production mounts.
//!
//! `--metrics-out` writes the daemon's final metrics snapshot on exit
//! (Prometheus text, whatever the path's extension); `--flight-out` writes
//! the flight-recorder dump (last `--flight-ticks` ticks of spans and
//! events, JSONL). `--frames-out` appends one `dcat-frames/v2` record per
//! tick as the daemon runs, so `dcat-top --follow <path>` can watch the run
//! live. `dcat-top --replay <path>` reads back and validates all three.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use dcat::daemon::{parse_domains, run_daemon_observed, DaemonConfig, ResiliencePolicy};
use dcat::DcatConfig;
use resctrl::fault::FaultPlan;

fn usage() -> &'static str {
    "usage: dcatd --resctrl <root> --telemetry <file> \
     --domains <name:cores:ways;...> [--interval-ms <n>] [--ticks <n>] \
     [--max-performance] [--retry-attempts <n>] [--retry-backoff-ms <n>] \
     [--quarantine-after <n>] [--counter-width-bits <n>] \
     [--fault-seed <n> --fault-rate <p> --fault-ticks <n>] \
     [--metrics-out <path>] [--flight-out <path>] [--flight-ticks <n>] \
     [--frames-out <path>]"
}

struct ObsPaths {
    metrics_out: Option<PathBuf>,
    flight_out: Option<PathBuf>,
    frames_out: Option<PathBuf>,
}

fn parse_args() -> Result<(DaemonConfig, ObsPaths), String> {
    let mut resctrl_root: Option<PathBuf> = None;
    let mut telemetry_path: Option<PathBuf> = None;
    let mut domains = None;
    let mut interval = Duration::from_secs(1);
    let mut max_ticks = None;
    let mut dcat = DcatConfig::default();
    let mut resilience = ResiliencePolicy::default();
    let mut fault_seed: Option<u64> = None;
    let mut fault_rate = 0.1f64;
    let mut fault_ticks: Option<u64> = None;
    let mut obs = dcat::daemon::ObsOptions::default();
    let mut metrics_out: Option<PathBuf> = None;
    let mut flight_out: Option<PathBuf> = None;
    let mut frames_out: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> Result<String, String> {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        fn num<T: std::str::FromStr>(what: &str, raw: String) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            raw.parse().map_err(|e| format!("bad {what}: {e}"))
        }
        match arg.as_str() {
            "--resctrl" => resctrl_root = Some(PathBuf::from(value("--resctrl")?)),
            "--telemetry" => telemetry_path = Some(PathBuf::from(value("--telemetry")?)),
            "--domains" => domains = Some(parse_domains(&value("--domains")?)?),
            "--interval-ms" => {
                interval = Duration::from_millis(num("--interval-ms", value("--interval-ms")?)?);
            }
            "--ticks" => max_ticks = Some(num("--ticks", value("--ticks")?)?),
            "--max-performance" => dcat = DcatConfig::max_performance(),
            "--retry-attempts" => {
                resilience.retry.max_attempts =
                    num("--retry-attempts", value("--retry-attempts")?)?;
            }
            "--retry-backoff-ms" => {
                resilience.retry.backoff =
                    Duration::from_millis(num("--retry-backoff-ms", value("--retry-backoff-ms")?)?);
            }
            "--quarantine-after" => {
                resilience.quarantine_after =
                    num("--quarantine-after", value("--quarantine-after")?)?;
            }
            "--counter-width-bits" => {
                resilience.counter_width_bits =
                    num("--counter-width-bits", value("--counter-width-bits")?)?;
            }
            "--fault-seed" => fault_seed = Some(num("--fault-seed", value("--fault-seed")?)?),
            "--fault-rate" => fault_rate = num("--fault-rate", value("--fault-rate")?)?,
            "--fault-ticks" => fault_ticks = Some(num("--fault-ticks", value("--fault-ticks")?)?),
            "--metrics-out" => metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--flight-out" => flight_out = Some(PathBuf::from(value("--flight-out")?)),
            "--frames-out" => frames_out = Some(PathBuf::from(value("--frames-out")?)),
            "--flight-ticks" => {
                obs.flight_recorder_ticks = num("--flight-ticks", value("--flight-ticks")?)?;
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let fault_plan = match fault_seed {
        Some(seed) => {
            let ticks = fault_ticks
                .or(max_ticks)
                .ok_or("--fault-seed needs --fault-ticks or --ticks")?;
            Some(FaultPlan::random(seed, ticks, fault_rate))
        }
        None => None,
    };
    let cfg = DaemonConfig {
        resctrl_root: resctrl_root.ok_or_else(|| format!("--resctrl is required\n{}", usage()))?,
        telemetry_path: telemetry_path
            .ok_or_else(|| format!("--telemetry is required\n{}", usage()))?,
        domains: domains.ok_or_else(|| format!("--domains is required\n{}", usage()))?,
        dcat,
        interval,
        max_ticks,
        resilience,
        fault_plan,
        obs,
    };
    Ok((
        cfg,
        ObsPaths {
            metrics_out,
            flight_out,
            frames_out,
        },
    ))
}

fn main() -> ExitCode {
    let (cfg, paths) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // Frames stream live: the header goes out before the first tick so
    // `dcat-top --follow` sees a valid stream immediately, and each tick's
    // line is flushed as it is produced.
    let mut frames_sink = match paths.frames_out.as_deref() {
        Some(path) => {
            let mut writer = dcat_obs::FrameWriter::new("dcatd");
            let mut file = match std::fs::File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("dcatd: creating {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::io::Write::write_all(&mut file, writer.header().as_bytes()) {
                eprintln!("dcatd: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            writer.clear_buffer();
            Some((file, writer))
        }
        None => None,
    };
    let result = run_daemon_observed(&cfg, |obs| {
        for event in obs.events {
            eprintln!("tick={} {event}", obs.tick);
        }
        if let Some((file, writer)) = frames_sink.as_mut() {
            // The previous tick's line is on disk; only this one is kept.
            writer.clear_buffer();
            let line = writer.push(dcat::frame_from_observation(obs, "dcat", obs.ext));
            let written = std::io::Write::write_all(file, line.as_bytes())
                .and_then(|()| std::io::Write::flush(file));
            if let Err(e) = written {
                eprintln!("dcatd: writing frames: {e}");
            }
        }
        // An anomaly tick carries a flight dump; persist it immediately so
        // the window survives even if the daemon is killed later.
        if let (Some(dump), Some(path)) = (obs.flight_dump, paths.flight_out.as_deref()) {
            if let Err(e) = dcat_obs::write_text(path, dump) {
                eprintln!("dcatd: writing {}: {e}", path.display());
            }
        }
    });
    match result {
        Ok(outcome) => {
            for r in &outcome.reports {
                println!(
                    "{}: {} ways, class {}, ipc {:.3}",
                    r.name, r.ways, r.class, r.ipc
                );
            }
            if let Some(path) = paths.metrics_out.as_deref() {
                if let Err(e) = dcat_obs::write_text(path, &outcome.metrics.to_prometheus()) {
                    eprintln!("dcatd: writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            if let Some(path) = paths.flight_out.as_deref() {
                if let Err(e) = dcat_obs::write_text(path, &outcome.flight_dump) {
                    eprintln!("dcatd: writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dcatd: {e}");
            ExitCode::FAILURE
        }
    }
}
