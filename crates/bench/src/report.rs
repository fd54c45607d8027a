//! Plain-text reporting helpers shared by the experiments.
//!
//! All output funnels through [`say`], which writes either to stdout or —
//! inside a [`capture`] scope — to a thread-local buffer. Parallel sweeps
//! rely on this: each pool worker captures its task's output, and the
//! coordinator replays the buffers in task order, so the report bytes are
//! identical whatever `--jobs` width produced them.
//!
//! Metrics follow the same discipline: [`record`] writes into the
//! innermost [`capture_obs`] scope's registry (or a process-global root
//! outside any scope), the captured [`dcat_obs::Snapshot`] travels back
//! with the text, and [`emit_obs`] replays it into the enclosing scope.
//! Because snapshot merge is order-insensitive and the coordinator
//! replays in item order, the exported metrics are byte-identical for
//! any `--jobs` width too.

use std::cell::RefCell;
use std::sync::Mutex;

use dcat_obs::{Registry, Snapshot};

thread_local! {
    /// Stack of capture buffers; empty means "print to stdout".
    static SINK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    /// Stack of capture registries, parallel to `SINK` for [`capture_obs`]
    /// scopes; empty means "record into the process root".
    static OBS: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
}

/// Process-global fallback registry for metrics recorded outside any
/// [`capture_obs`] scope — what `--metrics-out` exports at exit.
static ROOT: Mutex<Option<Registry>> = Mutex::new(None);

/// Records metrics into the innermost [`capture_obs`] scope, or into the
/// process root when no scope is active on this thread.
pub fn record(f: impl FnOnce(&mut Registry)) {
    let mut f = Some(f);
    let handled = OBS.with(|s| {
        let mut stack = s.borrow_mut();
        match stack.last_mut() {
            Some(reg) => {
                if let Some(f) = f.take() {
                    f(reg);
                }
                true
            }
            None => false,
        }
    });
    if !handled {
        if let Some(f) = f.take() {
            let mut root = ROOT.lock().unwrap_or_else(|p| p.into_inner());
            f(root.get_or_insert_with(Registry::new));
        }
    }
}

/// Replays a captured snapshot into the current scope (or the root),
/// mirroring what [`emit_raw`] does for text. Nested captures compose:
/// the replay merges into the enclosing scope's registry.
pub fn emit_obs(snap: &Snapshot) {
    let handled = OBS.with(|s| {
        let mut stack = s.borrow_mut();
        match stack.last_mut() {
            Some(reg) => {
                reg.merge_snapshot(snap);
                true
            }
            None => false,
        }
    });
    if !handled {
        let mut root = ROOT.lock().unwrap_or_else(|p| p.into_inner());
        root.get_or_insert_with(Registry::new).merge_snapshot(snap);
    }
}

/// [`capture`] plus metrics: runs `f` with both report output and
/// [`record`]ed metrics redirected; returns the value, the text, and the
/// metrics snapshot.
pub fn capture_obs<T>(f: impl FnOnce() -> T) -> (T, String, Snapshot) {
    OBS.with(|s| s.borrow_mut().push(Registry::new()));
    let (value, text) = capture(f);
    let snap = OBS.with(|s| {
        s.borrow_mut()
            .pop()
            .map(|mut reg| reg.take())
            .unwrap_or_default()
    });
    (value, text, snap)
}

/// Drains the process-root metrics accumulated outside capture scopes.
pub fn take_root_metrics() -> Snapshot {
    let mut root = ROOT.lock().unwrap_or_else(|p| p.into_inner());
    root.take().map(|mut reg| reg.take()).unwrap_or_default()
}

/// Emits one output line (newline appended).
#[allow(
    clippy::print_stdout,
    reason = "the sink: the one place library code reaches stdout"
)]
pub fn say(line: impl AsRef<str>) {
    let line = line.as_ref();
    let captured = SINK.with(|s| {
        let mut stack = s.borrow_mut();
        match stack.last_mut() {
            Some(buf) => {
                buf.push_str(line);
                buf.push('\n');
                true
            }
            None => false,
        }
    });
    if !captured {
        println!("{line}");
    }
}

/// Emits already-formatted (newline-terminated) text verbatim.
///
/// Used to replay a [`capture`]d buffer; nested captures compose because
/// the replay itself goes through the sink stack.
#[allow(
    clippy::print_stdout,
    reason = "the sink: the one place library code reaches stdout"
)]
pub fn emit_raw(text: &str) {
    let captured = SINK.with(|s| {
        let mut stack = s.borrow_mut();
        match stack.last_mut() {
            Some(buf) => {
                buf.push_str(text);
                true
            }
            None => false,
        }
    });
    if !captured {
        print!("{text}");
    }
}

/// Runs `f` with report output redirected into a buffer; returns `f`'s
/// value and everything it said.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, String) {
    SINK.with(|s| s.borrow_mut().push(String::new()));
    let value = f();
    let out = SINK.with(|s| s.borrow_mut().pop().unwrap_or_default());
    (value, out)
}

/// Prints a titled section header.
pub fn section(title: &str) {
    say("");
    say(format!("== {title} =="));
}

/// Prints a table: a header row and aligned data rows.
///
/// # Panics
///
/// Panics if a row's width differs from the header's.
pub fn table(header: &[&str], rows: &[Vec<String>]) {
    for row in rows {
        assert_eq!(row.len(), header.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    say(fmt_row(&head));
    say(widths
        .iter()
        .map(|w| "-".repeat(*w))
        .collect::<Vec<_>>()
        .join("  "));
    for row in rows {
        say(fmt_row(row));
    }
}

/// Geometric mean; 0 for an empty slice.
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The `p`-th percentile (0..=100) of `values` by nearest-rank.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside 0..=100.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank]
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Formats a ratio as a signed percentage ("+25.0%" / "-3.2%").
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", ratio * 100.0)
}

/// Compact decision trace for golden snapshot tests: one line per epoch
/// in which any domain's `(class, ways)` changed, listing every domain's
/// state at that epoch. The format is exact-compare friendly — no floats,
/// no timing, nothing machine-dependent.
pub fn decision_trace(reports: &[Vec<dcat::DomainReport>]) -> String {
    let mut out = String::new();
    let mut prev: Option<Vec<(String, u32)>> = None;
    for (epoch, rep) in reports.iter().enumerate() {
        let state: Vec<(String, u32)> = rep.iter().map(|d| (d.class.to_string(), d.ways)).collect();
        if prev.as_ref() != Some(&state) {
            let cells: Vec<String> = rep
                .iter()
                .map(|d| format!("{}={}/{}", d.name, d.class, d.ways))
                .collect();
            out.push_str(&format!("e{epoch:03} {}\n", cells.join(" ")));
            prev = Some(state);
        }
    }
    out
}

/// Renders a small ASCII time-series chart (one char per sample, scaled
/// into `height` rows). Used by the timeline figures.
pub fn ascii_series(label: &str, values: &[f64], height: usize) {
    if values.is_empty() {
        say(format!("{label}: (no data)"));
        return;
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
    let min = values.iter().cloned().fold(f64::MAX, f64::min).min(0.0);
    let span = (max - min).max(1e-12);
    say(format!("{label} (min={min:.2}, max={max:.2})"));
    for row in (0..height).rev() {
        let lo = min + span * row as f64 / height as f64;
        let line: String = values
            .iter()
            .map(|&v| if v >= lo { '#' } else { ' ' })
            .collect();
        say(format!("  |{line}"));
    }
    say(format!("  +{}", "-".repeat(values.len())));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_basics() {
        assert_eq!(geo_mean(&[]), 0.0);
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geo_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        let single = vec![7.0];
        assert_eq!(percentile(&single, 99.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn mean_and_pct() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-9);
        assert_eq!(pct(0.25), "+25.0%");
        assert_eq!(pct(-0.032), "-3.2%");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        table(&["a", "b"], &[vec!["1".to_string()]]);
    }

    #[test]
    fn capture_collects_say_output() {
        let (value, out) = capture(|| {
            say("first");
            section("title");
            42
        });
        assert_eq!(value, 42);
        assert_eq!(out, "first\n\n== title ==\n");
    }

    #[test]
    fn captures_nest_and_replay_in_order() {
        let (_, outer) = capture(|| {
            say("before");
            let (_, inner) = capture(|| say("inner"));
            emit_raw(&inner);
            say("after");
        });
        assert_eq!(outer, "before\ninner\nafter\n");
    }

    #[test]
    fn capture_obs_collects_text_and_metrics() {
        let (value, text, snap) = capture_obs(|| {
            say("hello");
            record(|r| r.counter_add("runs_total", &[], 1));
            7
        });
        assert_eq!(value, 7);
        assert_eq!(text, "hello\n");
        assert_eq!(
            snap.get("runs_total", &[]),
            Some(&dcat_obs::MetricValue::Counter(1))
        );
    }

    #[test]
    fn nested_capture_obs_scopes_merge_via_emit_obs() {
        // The worker pattern: an inner scope captures a task's text and
        // metrics; the coordinator replays both into its own scope.
        let (_, outer_text, outer_snap) = capture_obs(|| {
            record(|r| r.counter_add("runs_total", &[], 1));
            say("before");
            let (_, inner_text, inner_snap) = capture_obs(|| {
                say("inner");
                record(|r| r.counter_add("runs_total", &[], 1));
                record(|r| r.gauge_set("last_ways", &[], 6.0));
            });
            emit_raw(&inner_text);
            emit_obs(&inner_snap);
            say("after");
        });
        assert_eq!(outer_text, "before\ninner\nafter\n");
        assert_eq!(
            outer_snap.get("runs_total", &[]),
            Some(&dcat_obs::MetricValue::Counter(2)),
            "inner counter merged into the outer scope"
        );
        assert_eq!(
            outer_snap.get("last_ways", &[]),
            Some(&dcat_obs::MetricValue::Gauge(6.0))
        );
    }

    #[test]
    fn metrics_outside_any_scope_land_in_the_root() {
        // Use a metric name unique to this test: the root is process
        // global and other tests run in the same process.
        record(|r| r.counter_add("report_root_test_total", &[], 3));
        let snap = take_root_metrics();
        assert_eq!(
            snap.get("report_root_test_total", &[]),
            Some(&dcat_obs::MetricValue::Counter(3))
        );
    }

    #[test]
    fn decision_trace_emits_only_transitions() {
        use dcat::{DomainReport, WorkloadClass};
        let report = |class: WorkloadClass, ways: u32| DomainReport {
            name: "vm".to_string(),
            class,
            ways,
            cbm: None,
            ipc: 1.0,
            norm_ipc: None,
            llc_miss_rate: 0.0,
            phase_changed: false,
            baseline_ipc: None,
            skipped: false,
        };
        let reports = vec![
            vec![report(WorkloadClass::Unknown, 4)],
            vec![report(WorkloadClass::Unknown, 4)],
            vec![report(WorkloadClass::Receiver, 6)],
            vec![report(WorkloadClass::Receiver, 6)],
        ];
        assert_eq!(
            decision_trace(&reports),
            "e000 vm=Unknown/4\ne002 vm=Receiver/6\n"
        );
    }
}
