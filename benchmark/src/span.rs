//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, around calls into each
//! layer's public functions, kept in memory, and written out as JSONL
//! when the traced pass ends. A span's name starts with the layer (crate)
//! it charges, `<layer>.<what>`. A layer's self time is the sum, over its
//! spans, of the span's duration minus the durations of its direct
//! children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use dcat_obs::json::Obj;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in [`Trace::spans`], if any.
    pub parent: Option<usize>,
    /// Which repetition of the traced loop recorded it.
    pub run: u32,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls folded into this span: 1 for a span recorded live, more for
    /// a leaf that sums many short calls (one per slice or per write)
    /// whose individual spans would swamp the file.
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Trace::enter`]; pass it back to [`Trace::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span store. A disabled trace reads no clock and records
/// nothing, so one loop serves the traced pass and the untraced
/// reference runs that share its code.
#[derive(Debug)]
pub struct Trace {
    t0: Instant,
    enabled: bool,
    run: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

/// Per span name: `(self_ns, total_ns, calls)`.
pub type SelfTimes = BTreeMap<&'static str, (u64, u64, u64)>;

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            t0: Instant::now(),
            enabled,
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Tags every later span with repetition `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            run: self.run,
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        SpanId(Some(idx))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let end_ns = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&idx), "spans close innermost first");
        self.stack.pop();
        self.spans[idx].end_ns = end_ns;
    }

    /// Times `f` as a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Records `calls` short calls that took `ns` in total as one child of
    /// `parent` — how time metered inside a callee (a stream wrapper the
    /// engine drives, a controller wrapper a policy drives) is hung under
    /// the span that was open while it ran.
    pub fn leaf(&mut self, parent: SpanId, name: &'static str, ns: u64, calls: u64) {
        let Some(parent_idx) = parent.0 else { return };
        if calls == 0 {
            return;
        }
        let start_ns = self.spans[parent_idx].start_ns;
        self.spans.push(Span {
            name,
            parent: Some(parent_idx),
            run: self.run,
            start_ns,
            end_ns: start_ns + ns,
            calls,
        });
    }

    /// Self and total time per span name, over every repetition or over
    /// repetition `run` alone.
    pub fn self_times(&self, run: Option<u32>) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = SelfTimes::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            if run.is_some_and(|r| r != s.run) {
                continue;
            }
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += s.dur_ns().saturating_sub(children);
            e.1 += s.dur_ns();
            e.2 += s.calls;
        }
        out
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Writes the spans of repetition `run`, one JSON object each: `id`,
    /// `parent` (or null), `run`, `name`, `start_ns`, `end_ns`, `calls`.
    /// One repetition, because the daemon's is 100 000 spans and a run
    /// traces several.
    pub fn write_jsonl(&self, path: &Path, run: u32) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate().filter(|(_, s)| s.run == run) {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let line = Obj::new()
                .u64_field("id", id as u64)
                .raw_field("parent", &parent)
                .u64_field("run", u64::from(s.run))
                .str_field("name", s.name)
                .u64_field("start_ns", s.start_ns)
                .u64_field("end_ns", s.end_ns)
                .u64_field("calls", s.calls)
                .finish();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Sums `(self_ns)` over every span whose name starts with `<layer>.`.
pub fn layer_self_ns(times: &SelfTimes, layer: &str) -> u64 {
    times
        .iter()
        .filter(|(name, _)| name.split('.').next() == Some(layer))
        .map(|(_, v)| v.0)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            run: 0,
            start_ns: start,
            end_ns: end,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let mut t = Trace::new(true);
        t.spans = vec![
            span("host.run_epoch", None, 0, 1000),
            span("workloads.next_batch", Some(0), 0, 300),
            span("dcat.tick", None, 1000, 1400),
            span("resctrl.program_cos", Some(2), 1000, 1100),
            // A grandchild is charged to its parent only.
            span("resctrl.fs", Some(3), 1000, 1040),
        ];
        t.spans.push(Span {
            run: 1,
            ..span("host.run_epoch", None, 2000, 2500)
        });
        assert_eq!(t.self_times(None)["host.run_epoch"], (1200, 1500, 2));
        assert_eq!(t.self_times(Some(1))["host.run_epoch"], (500, 500, 1));
        let times = t.self_times(Some(0));
        assert_eq!(times["host.run_epoch"], (700, 1000, 1));
        assert_eq!(times["workloads.next_batch"], (300, 300, 1));
        assert_eq!(times["dcat.tick"], (300, 400, 1));
        assert_eq!(times["resctrl.program_cos"], (60, 100, 1));
        assert_eq!(layer_self_ns(&times, "resctrl"), 100);
        assert_eq!(layer_self_ns(&times, "host"), 700);
        assert_eq!(layer_self_ns(&times, "top"), 0);
    }

    #[test]
    fn live_spans_nest_and_leaves_hang_under_their_parent() {
        let mut t = Trace::new(true);
        let outer = t.enter("host.run_epoch");
        t.scope("host.snapshots", |_| ());
        t.exit(outer);
        t.leaf(outer, "workloads.next_batch", 5, 3);
        t.leaf(outer, "workloads.idle", 0, 0);
        assert_eq!(t.spans.len(), 3, "zero-call leaves are dropped");
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[2].calls, 3);
        assert_eq!(t.spans[2].dur_ns(), 5);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let id = t.enter("host.run_epoch");
        t.leaf(id, "workloads.next_batch", 5, 3);
        t.exit(id);
        assert_eq!(t.scope("dcat.tick", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
