//! Observability wiring through the daemon: per-tick spans, the metrics
//! snapshot returned by [`dcat::daemon::run_daemon_observed`], and the
//! flight-recorder dump that fires on quarantine.
//!
//! All assertions run against fixture trees — no wall clock anywhere, so
//! every number here is reproducible bit-for-bit.

use std::path::PathBuf;
use std::time::Duration;

use dcat::daemon::{run_daemon_observed, DaemonConfig, ObsOptions, ResiliencePolicy};
use dcat::{DcatConfig, WorkloadHandle};
use dcat_obs::frames::parse_flight;
use dcat_obs::{check_flight, check_prometheus, MetricValue};
use perf_events::CounterSnapshot;
use resctrl::{CatCapabilities, FsBackend};

const RESERVED: u32 = 4;
const MAX_TICKS: u64 = 6;

fn fixture_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "dcatd-obs-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    drop(FsBackend::create_fixture(&root, CatCapabilities::with_ways(20), 8).unwrap());
    root
}

fn write_telemetry(path: &PathBuf, rows: &[(&str, &CounterSnapshot)]) {
    let mut text = String::from("# name,l1_ref,llc_ref,llc_miss,ret_ins,cycles\n");
    for (name, s) in rows {
        text.push_str(&format!(
            "{name},{},{},{},{},{}\n",
            s.l1_ref, s.llc_ref, s.llc_miss, s.ret_ins, s.cycles
        ));
    }
    std::fs::write(path, text).unwrap();
}

fn steady_total(tick: u64) -> CounterSnapshot {
    CounterSnapshot {
        l1_ref: 340_000 * tick,
        llc_ref: 120_000 * tick,
        llc_miss: 60_000 * tick,
        ret_ins: 1_000_000 * tick,
        cycles: 20_000_000 * tick,
    }
}

fn base_cfg(root: PathBuf, domains: Vec<WorkloadHandle>) -> DaemonConfig {
    DaemonConfig {
        telemetry_path: root.join("telemetry.csv"),
        resctrl_root: root,
        domains,
        dcat: DcatConfig::default(),
        interval: Duration::from_millis(0),
        max_ticks: Some(MAX_TICKS),
        resilience: ResiliencePolicy::default(),
        fault_plan: None,
        obs: ObsOptions::default(),
    }
}

/// The tick numbers a flight dump retains, oldest first.
fn retained_ticks(dump: &str) -> Vec<u64> {
    parse_flight(dump).unwrap().iter().map(|t| t.tick).collect()
}

#[test]
fn every_tick_carries_the_full_span_tree_and_metrics_count_ticks() {
    let root = fixture_root("spans");
    let cfg = base_cfg(
        root,
        vec![WorkloadHandle::new("solo", vec![0, 1], RESERVED)],
    );
    write_telemetry(&cfg.telemetry_path, &[("solo", &steady_total(1))]);

    let mut span_names_per_tick = Vec::new();
    let telemetry_path = cfg.telemetry_path.clone();
    let outcome = run_daemon_observed(&cfg, |obs| {
        span_names_per_tick.push(obs.spans.iter().map(|s| s.name).collect::<Vec<_>>());
        assert!(obs.flight_dump.is_none(), "healthy run must not dump");
        write_telemetry(&telemetry_path, &[("solo", &steady_total(obs.tick + 1))]);
    })
    .unwrap();

    assert_eq!(span_names_per_tick.len() as u64, MAX_TICKS);
    for names in &span_names_per_tick {
        // Inner spans drain before the enclosing tick; the controller's
        // six Figure-4 stages sit between telemetry and the tick close.
        assert_eq!(
            *names,
            [
                "telemetry",
                "collect",
                "phase_detect",
                "baseline",
                "categorize",
                "allocate",
                "apply",
                "tick"
            ]
        );
    }

    let ticks = outcome.metrics.get("dcat_ticks_total", &[]);
    assert_eq!(ticks, Some(&MetricValue::Counter(MAX_TICKS)));
    let gauge = outcome
        .metrics
        .get("dcat_domain_ways", &[("domain", "solo")]);
    assert!(matches!(gauge, Some(MetricValue::Gauge(v)) if *v >= f64::from(RESERVED)));

    // Both exports must pass the validators `dcat-top --replay` uses: the
    // flight dump keeps every tick, in order, under its schema header.
    check_prometheus(&outcome.metrics.to_prometheus()).unwrap();
    assert_eq!(check_flight(&outcome.flight_dump), Ok(MAX_TICKS as usize));
    assert_eq!(
        retained_ticks(&outcome.flight_dump),
        (1..=MAX_TICKS).collect::<Vec<_>>()
    );
}

#[test]
fn quarantine_triggers_a_flight_dump_carrying_the_recent_window() {
    let root = fixture_root("quarantine");
    let mut cfg = base_cfg(
        root,
        vec![
            WorkloadHandle::new("seen", vec![0, 1], RESERVED),
            WorkloadHandle::new("ghost", vec![2, 3], RESERVED),
        ],
    );
    cfg.resilience.quarantine_after = 3;
    cfg.obs.flight_recorder_ticks = 4;
    // "ghost" never appears in the feed: after 3 missed ticks it is
    // quarantined, and that tick's observation must carry the dump.
    write_telemetry(&cfg.telemetry_path, &[("seen", &steady_total(1))]);

    let mut dump_at: Option<(u64, String)> = None;
    let telemetry_path = cfg.telemetry_path.clone();
    let outcome = run_daemon_observed(&cfg, |obs| {
        if let Some(dump) = obs.flight_dump {
            dump_at.get_or_insert((obs.tick, dump.to_string()));
        }
        write_telemetry(&telemetry_path, &[("seen", &steady_total(obs.tick + 1))]);
    })
    .unwrap();

    let (tick, dump) = dump_at.expect("quarantine should trigger a dump");
    assert_eq!(tick, 3);
    assert_eq!(check_flight(&dump), Ok(3), "the 3 ticks recorded so far");
    assert_eq!(retained_ticks(&dump), [1, 2, 3]);
    assert!(dump.contains("domain_quarantined"));

    let quarantine_events = outcome
        .metrics
        .get("dcat_events_total", &[("event", "domain_quarantined")]);
    assert_eq!(quarantine_events, Some(&MetricValue::Counter(1)));
    let gauge = outcome.metrics.get("dcat_quarantined_domains", &[]);
    assert_eq!(gauge, Some(&MetricValue::Gauge(1.0)));
}

#[test]
fn telemetry_outage_is_counted_under_its_own_degraded_reason() {
    let root = fixture_root("outage");
    let cfg = base_cfg(
        root,
        vec![WorkloadHandle::new("solo", vec![0, 1], RESERVED)],
    );
    write_telemetry(&cfg.telemetry_path, &[("solo", &steady_total(1))]);

    let telemetry_path = cfg.telemetry_path.clone();
    let outcome = run_daemon_observed(&cfg, |obs| {
        if obs.tick == 2 {
            // Vanish the feed for tick 3; restore it afterwards.
            let _ = std::fs::remove_file(&telemetry_path);
        } else {
            write_telemetry(&telemetry_path, &[("solo", &steady_total(obs.tick + 1))]);
        }
    })
    .unwrap();

    let degraded = outcome
        .metrics
        .get("dcat_degraded_ticks_total", &[("reason", "telemetry")]);
    assert_eq!(degraded, Some(&MetricValue::Counter(1)));
    let ticks = outcome.metrics.get("dcat_ticks_total", &[]);
    assert_eq!(ticks, Some(&MetricValue::Counter(MAX_TICKS)));
}

#[test]
fn a_disabled_flight_recorder_retains_nothing_and_counts_every_tick() {
    let root = fixture_root("noflight");
    let mut cfg = base_cfg(
        root,
        vec![
            WorkloadHandle::new("seen", vec![0, 1], RESERVED),
            WorkloadHandle::new("ghost", vec![2, 3], RESERVED),
        ],
    );
    cfg.resilience.quarantine_after = 3;
    cfg.obs.flight_recorder_ticks = 0;
    write_telemetry(&cfg.telemetry_path, &[("seen", &steady_total(1))]);

    let mut dumps = Vec::new();
    let telemetry_path = cfg.telemetry_path.clone();
    let outcome = run_daemon_observed(&cfg, |obs| {
        // The spans and events of the tick are still observable; only the
        // recorder's copy of them is gone.
        assert!(!obs.spans.is_empty());
        if let Some(dump) = obs.flight_dump {
            dumps.push((obs.tick, dump.to_string()));
        }
        write_telemetry(&telemetry_path, &[("seen", &steady_total(obs.tick + 1))]);
    })
    .unwrap();

    // The quarantine still surfaces a dump — a bare header that says how
    // many ticks went unrecorded.
    assert_eq!(dumps.len(), 1);
    let (tick, dump) = &dumps[0];
    assert_eq!(*tick, 3);
    assert_eq!(
        dump.trim_end(),
        "{\"record\":\"flight_header\",\"schema\":\"dcat-flight/v1\",\"capacity\":0,\"retained\":0,\"dropped\":3}"
    );
    assert_eq!(
        outcome.flight_dump.trim_end(),
        format!(
            "{{\"record\":\"flight_header\",\"schema\":\"dcat-flight/v1\",\"capacity\":0,\"retained\":0,\"dropped\":{MAX_TICKS}}}"
        )
    );
    assert_eq!(dcat_obs::check_flight(&outcome.flight_dump), Ok(0));
    std::fs::remove_dir_all(&cfg.resctrl_root).unwrap();
}
