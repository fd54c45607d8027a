//! Metrics registry: counters, gauges, and fixed-bucket histograms keyed by
//! static name + label set.
//!
//! Determinism contract: a [`Snapshot`] is a B-tree over (name, labels), so
//! rendering order never depends on insertion order, and [`Snapshot::merge`]
//! is commutative and associative (counters add, gauges max, histograms add
//! element-wise over identical static buckets). Per-worker registries merged
//! in any permutation therefore produce byte-identical exports — the property
//! `host::Pool` relies on under `--jobs N`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default bucket bounds for logical-step histograms (spans measured in
/// logical-clock steps).
pub const DEFAULT_STEP_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64];

/// Default bucket bounds for cycle histograms (spans measured by an opt-in
/// wall-clock [`crate::trace::CycleSource`]).
pub const CYCLE_BUCKETS: &[u64] = &[1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// Identity of one time series: metric name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct MetricKey {
    pub(crate) name: &'static str,
    /// Sorted by label name at construction.
    pub(crate) labels: Vec<(&'static str, String)>,
}

impl MetricKey {
    fn new(name: &'static str, labels: &[(&'static str, &str)]) -> Self {
        let mut labels: Vec<(&'static str, String)> =
            labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
        labels.sort_by(|a, b| a.0.cmp(b.0));
        MetricKey { name, labels }
    }
}

/// Fixed-bucket histogram over `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing. The implicit final
    /// bucket is +Inf.
    pub(crate) bounds: &'static [u64],
    /// One count per bound, plus the +Inf bucket at the end.
    pub(crate) counts: Vec<u64>,
    pub(crate) sum: u64,
    pub count: u64,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.is_sorted_by(|a, b| a < b));
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`idx <= bounds.len()`, and `counts` holds a bucket per bound plus +Inf"
    )]
    fn observe(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum = self.sum.saturating_add(v);
        self.count += 1;
    }

    fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram merge with mismatched bucket bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count += other.count;
    }
}

/// One metric value. The kind is fixed by the first touch of a key; mixing
/// kinds under one name is a programmer error, which the [`Registry`] drops
/// and counts.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    /// Commutative merge: counters add, gauges keep the max, histograms add
    /// element-wise. False, and `self` untouched, when the kinds differ.
    fn merge(&mut self, other: &MetricValue) -> bool {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => {
                if *b > *a {
                    *a = *b;
                }
            }
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
            _ => return false,
        }
        true
    }
}

/// Handle to one series of the [`Registry`] that issued it. Recording
/// through it builds no `MetricKey` and walks no map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId {
    slot: usize,
    /// The registry's [`Registry::take`] count when the id was issued.
    generation: u64,
}

/// A mutable metrics registry. Writers resolve a series to a [`SeriesId`]
/// once and record through it, or call the name-keyed record methods,
/// which resolve on every call; readers take a [`Snapshot`].
///
/// Resolving registers the series — a counter at 0, a gauge at 0.0, an
/// empty histogram — so it is in the next export: resolve where the first
/// value is written, not ahead of it.
///
/// Recording a metric under a name already registered with a *different*
/// kind is a programming bug, but the registry sits on the daemon tick
/// path where panics are forbidden (ticks degrade, they never die): the
/// mismatched write is dropped and counted in [`Registry::type_conflicts`]
/// so tests and dashboards can still surface the bug. So is a write
/// through an id issued before the last [`Registry::take`].
#[derive(Debug, Default, Clone)]
pub struct Registry {
    /// The series in registration order; a [`SeriesId`] is a position here.
    series: Vec<(MetricKey, MetricValue)>,
    index: BTreeMap<MetricKey, usize>,
    generation: u64,
    type_conflicts: u64,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Writes dropped because the series was registered with a different
    /// kind, or the id predates a [`Registry::take`]. Nonzero means a code
    /// bug, never a data problem.
    pub fn type_conflicts(&self) -> u64 {
        self.type_conflicts
    }

    /// The slot of `key`, registered with `init()` if it is new.
    fn resolve(&mut self, key: MetricKey, init: impl FnOnce() -> MetricValue) -> SeriesId {
        let slot = match self.index.get(&key) {
            Some(&slot) => slot,
            None => {
                let slot = self.series.len();
                self.index.insert(key.clone(), slot);
                self.series.push((key, init()));
                slot
            }
        };
        SeriesId {
            slot,
            generation: self.generation,
        }
    }

    fn value_mut(&mut self, id: SeriesId) -> Option<&mut MetricValue> {
        if id.generation != self.generation {
            return None;
        }
        self.series.get_mut(id.slot).map(|(_, value)| value)
    }

    /// Resolves (registering at 0 if new) the counter `name{labels}`.
    pub fn counter(&mut self, name: &'static str, labels: &[(&'static str, &str)]) -> SeriesId {
        self.resolve(MetricKey::new(name, labels), || MetricValue::Counter(0))
    }

    /// Resolves (registering at 0.0 if new) the gauge `name{labels}`.
    pub fn gauge(&mut self, name: &'static str, labels: &[(&'static str, &str)]) -> SeriesId {
        self.resolve(MetricKey::new(name, labels), || MetricValue::Gauge(0.0))
    }

    /// Resolves (registering empty over `bounds` if new) the histogram
    /// `name{labels}`.
    pub fn histogram(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &'static [u64],
    ) -> SeriesId {
        self.resolve(MetricKey::new(name, labels), || {
            MetricValue::Histogram(Histogram::new(bounds))
        })
    }

    /// Adds `delta` to the counter `id`.
    pub fn add(&mut self, id: SeriesId, delta: u64) {
        match self.value_mut(id) {
            Some(MetricValue::Counter(v)) => *v += delta,
            _ => self.type_conflicts += 1,
        }
    }

    /// Sets the gauge `id`.
    pub fn set(&mut self, id: SeriesId, value: f64) {
        match self.value_mut(id) {
            Some(MetricValue::Gauge(v)) => *v = value,
            _ => self.type_conflicts += 1,
        }
    }

    /// Records `value` in the histogram `id`.
    pub fn observe(&mut self, id: SeriesId, value: u64) {
        match self.value_mut(id) {
            Some(MetricValue::Histogram(h)) => h.observe(value),
            _ => self.type_conflicts += 1,
        }
    }

    pub fn counter_add(&mut self, name: &'static str, labels: &[(&'static str, &str)], delta: u64) {
        let id = self.counter(name, labels);
        self.add(id, delta);
    }

    pub fn gauge_set(&mut self, name: &'static str, labels: &[(&'static str, &str)], value: f64) {
        let id = self.gauge(name, labels);
        self.set(id, value);
    }

    pub fn histogram_observe(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &'static [u64],
        value: u64,
    ) {
        let id = self.histogram(name, labels, bounds);
        self.observe(id, value);
    }

    /// Copy the current contents into an immutable snapshot.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            entries: self.series.iter().cloned().collect(),
        }
    }

    /// Drain the registry into a snapshot, leaving it empty. Ids issued
    /// before the call name nothing afterwards.
    pub fn take(&mut self) -> Snapshot {
        self.index.clear();
        self.generation += 1;
        Snapshot {
            entries: std::mem::take(&mut self.series).into_iter().collect(),
        }
    }

    /// Fold a snapshot back into this registry (same merge rules as
    /// [`Snapshot::merge`]). A series whose kind differs from the one
    /// registered is dropped and counted in [`Registry::type_conflicts`].
    pub fn merge_snapshot(&mut self, snap: &Snapshot) {
        for (key, value) in &snap.entries {
            let existing = self
                .index
                .get(key)
                .and_then(|&slot| self.series.get_mut(slot));
            match existing {
                Some((_, existing)) => {
                    if !existing.merge(value) {
                        self.type_conflicts += 1;
                    }
                }
                None => {
                    self.resolve(key.clone(), || value.clone());
                }
            }
        }
    }
}

/// An immutable, order-insensitive view of a registry, suitable for merging
/// across workers and rendering.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Snapshot {
    entries: BTreeMap<MetricKey, MetricValue>,
}

impl Snapshot {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Option<&MetricValue> {
        self.entries.get(&MetricKey::new(name, labels))
    }

    /// Merge another snapshot into this one. Commutative and associative:
    /// counters add, gauges keep the max, histograms add element-wise.
    ///
    /// # Panics
    ///
    /// Panics if a series has a different kind in `other`.
    #[expect(
        clippy::panic,
        reason = "callers merge snapshots whose kinds one build's code fixes; a mismatch is a build defect"
    )]
    pub fn merge(&mut self, other: &Snapshot) {
        for (key, value) in &other.entries {
            match self.entries.get_mut(key) {
                Some(existing) => {
                    if !existing.merge(value) {
                        panic!(
                            "metric kind mismatch in merge of {}: {} vs {}",
                            key.name,
                            existing.kind(),
                            value.kind()
                        );
                    }
                }
                None => {
                    self.entries.insert(key.clone(), value.clone());
                }
            }
        }
    }

    /// Render in Prometheus text exposition format. Families appear in name
    /// order with a `# TYPE` header each; series within a family follow
    /// label order.
    #[expect(
        clippy::indexing_slicing,
        reason = "`i` enumerates `bounds`, and `counts` holds a bucket per bound plus +Inf"
    )]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for (key, value) in &self.entries {
            if key.name != last_name {
                let _ = writeln!(out, "# TYPE {} {}", key.name, value.kind());
                last_name = key.name;
            }
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", key.name, prom_labels(&key.labels, &[]));
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "{}{} ", key.name, prom_labels(&key.labels, &[]));
                    crate::json::push_f64(&mut out, *v);
                    out.push('\n');
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, bound) in h.bounds.iter().enumerate() {
                        cumulative += h.counts[i];
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cumulative}",
                            key.name,
                            prom_labels(&key.labels, &[("le", &bound.to_string())]),
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        key.name,
                        prom_labels(&key.labels, &[("le", "+Inf")]),
                        h.count,
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        key.name,
                        prom_labels(&key.labels, &[]),
                        h.sum
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        key.name,
                        prom_labels(&key.labels, &[]),
                        h.count,
                    );
                }
            }
        }
        out
    }
}

fn prom_labels(labels: &[(&'static str, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, k: &str, v: &str| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    };
    for (k, v) in labels {
        push(&mut out, &mut first, k, v);
    }
    for (k, v) in extra {
        push(&mut out, &mut first, k, v);
    }
    out.push('}');
    out
}

/// Write a text artifact (metrics export, flight-recorder dump) to disk.
pub fn write_text(path: &std::path::Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let mut r = Registry::new();
        r.counter_add("ticks_total", &[], 3);
        r.counter_add("events_total", &[("event", "degraded_tick")], 2);
        r.counter_add("events_total", &[("event", "counter_reset")], 1);
        r.gauge_set("domain_ways", &[("domain", "vm0")], 6.0);
        r.histogram_observe("span_steps", &[("span", "apply")], DEFAULT_STEP_BUCKETS, 3);
        r.histogram_observe("span_steps", &[("span", "apply")], DEFAULT_STEP_BUCKETS, 70);
        r
    }

    #[test]
    fn counters_accumulate_and_keys_are_label_order_insensitive() {
        let mut r = Registry::new();
        r.counter_add("x", &[("a", "1"), ("b", "2")], 1);
        r.counter_add("x", &[("b", "2"), ("a", "1")], 2);
        let snap = r.snapshot();
        assert_eq!(snap.entries.len(), 1);
        assert_eq!(
            snap.get("x", &[("a", "1"), ("b", "2")]),
            Some(&MetricValue::Counter(3))
        );
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = sample().snapshot();
        let mut extra = Registry::new();
        extra.counter_add("ticks_total", &[], 5);
        extra.gauge_set("domain_ways", &[("domain", "vm0")], 4.0);
        extra.histogram_observe("span_steps", &[("span", "apply")], DEFAULT_STEP_BUCKETS, 1);
        let b = extra.snapshot();

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_prometheus(), ba.to_prometheus());
        // Counter added, gauge kept the max.
        assert_eq!(ab.get("ticks_total", &[]), Some(&MetricValue::Counter(8)));
        assert_eq!(
            ab.get("domain_ways", &[("domain", "vm0")]),
            Some(&MetricValue::Gauge(6.0))
        );
        a.merge(&b);
        assert_eq!(a, ab);
    }

    #[test]
    fn prometheus_rendering_is_stable_and_complete() {
        let text = sample().snapshot().to_prometheus();
        let expected = "\
# TYPE domain_ways gauge
domain_ways{domain=\"vm0\"} 6.0
# TYPE events_total counter
events_total{event=\"counter_reset\"} 1
events_total{event=\"degraded_tick\"} 2
# TYPE span_steps histogram
span_steps_bucket{span=\"apply\",le=\"1\"} 0
span_steps_bucket{span=\"apply\",le=\"2\"} 0
span_steps_bucket{span=\"apply\",le=\"4\"} 1
span_steps_bucket{span=\"apply\",le=\"8\"} 1
span_steps_bucket{span=\"apply\",le=\"16\"} 1
span_steps_bucket{span=\"apply\",le=\"32\"} 1
span_steps_bucket{span=\"apply\",le=\"64\"} 1
span_steps_bucket{span=\"apply\",le=\"+Inf\"} 2
span_steps_sum{span=\"apply\"} 73
span_steps_count{span=\"apply\"} 2
# TYPE ticks_total counter
ticks_total 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn take_drains_the_registry() {
        let mut r = sample();
        let snap = r.take();
        assert!(!snap.is_empty());
        assert!(r.series.is_empty());
    }

    #[test]
    fn kind_mismatch_is_dropped_and_counted() {
        let mut r = Registry::new();
        r.counter_add("x", &[], 1);
        r.gauge_set("x", &[], 1.0);
        r.histogram_observe("x", &[], DEFAULT_STEP_BUCKETS, 1);
        assert_eq!(r.type_conflicts(), 2);
        // The original counter survives untouched.
        r.counter_add("x", &[], 2);
        let snap = r.snapshot();
        let text = snap.to_prometheus();
        assert!(text.contains("x 3"), "counter kept its value: {text}");
    }

    #[test]
    fn recording_by_id_lands_in_the_series_the_name_resolves_to() {
        let mut by_id = Registry::new();
        // Registered in the reverse of key order: the export sorts anyway.
        let ticks = by_id.counter("ticks_total", &[]);
        let steps = by_id.histogram("span_steps", &[("span", "apply")], DEFAULT_STEP_BUCKETS);
        let ways = by_id.gauge("domain_ways", &[("domain", "vm0")]);
        let degraded = by_id.counter("events_total", &[("event", "degraded_tick")]);
        let reset = by_id.counter("events_total", &[("event", "counter_reset")]);
        by_id.add(ticks, 3);
        by_id.add(degraded, 2);
        by_id.add(reset, 1);
        by_id.set(ways, 6.0);
        by_id.observe(steps, 3);
        by_id.observe(steps, 70);
        assert_eq!(by_id.snapshot(), sample().snapshot());
        // Resolving again finds the same series; the two forms mix.
        assert_eq!(by_id.counter("ticks_total", &[]), ticks);
        by_id.counter_add("ticks_total", &[], 1);
        by_id.add(ticks, 1);
        assert_eq!(
            by_id.snapshot().get("ticks_total", &[]),
            Some(&MetricValue::Counter(5))
        );
        assert_eq!(by_id.type_conflicts(), 0);
    }

    #[test]
    fn a_stale_or_wrong_kind_id_is_dropped_and_counted() {
        let mut r = Registry::new();
        let x = r.counter("x", &[]);
        r.add(x, 1);
        // Wrong kind: the id of a counter used as a gauge and a histogram.
        r.set(x, 9.0);
        r.observe(x, 9);
        assert_eq!(r.type_conflicts(), 2);
        assert_eq!(r.snapshot().get("x", &[]), Some(&MetricValue::Counter(1)));

        // After a take, the old id names nothing — not even the series
        // that now sits in its slot.
        assert_eq!(r.take().entries.len(), 1);
        let y = r.counter("y", &[]);
        r.add(x, 100);
        assert_eq!(r.type_conflicts(), 3);
        r.add(y, 1);
        let snap = r.snapshot();
        assert_eq!(snap.entries.len(), 1);
        assert_eq!(snap.get("y", &[]), Some(&MetricValue::Counter(1)));
    }

    #[test]
    fn merge_snapshot_folds_into_resolved_series() {
        let mut r = Registry::new();
        let ticks = r.counter("ticks_total", &[]);
        r.add(ticks, 1);
        r.merge_snapshot(&sample().snapshot());
        r.add(ticks, 1);
        let snap = r.snapshot();
        assert_eq!(snap.entries.len(), sample().snapshot().entries.len());
        assert_eq!(snap.get("ticks_total", &[]), Some(&MetricValue::Counter(5)));
    }

    #[test]
    fn merge_snapshot_drops_and_counts_a_kind_mismatch() {
        let mut r = Registry::new();
        r.counter_add("x", &[], 1);
        let mut other = Registry::new();
        other.gauge_set("x", &[], 9.0);
        other.counter_add("y", &[], 2);
        r.merge_snapshot(&other.snapshot());
        assert_eq!(r.type_conflicts(), 1);
        let snap = r.snapshot();
        assert_eq!(snap.get("x", &[]), Some(&MetricValue::Counter(1)));
        assert_eq!(snap.get("y", &[]), Some(&MetricValue::Counter(2)));
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_prometheus_output() {
        let mut r = Registry::new();
        for v in [1, 1, 2, 5, 100] {
            r.histogram_observe("h", &[], DEFAULT_STEP_BUCKETS, v);
        }
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("h_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("h_bucket{le=\"2\"} 3\n"));
        assert!(text.contains("h_bucket{le=\"8\"} 4\n"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("h_sum 109\n"));
        assert!(text.contains("h_count 5\n"));
    }
}
