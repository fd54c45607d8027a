//! Flight recorder: a bounded ring buffer of the last K ticks' spans and
//! events, dumped as JSONL on invariant violations, quarantines, or exit.
//!
//! The dump format is line-oriented: a header object first, then one object
//! per retained tick, oldest first. Everything is rendered through
//! [`crate::json`], so [`crate::frames::parse_flight`] (`dcat-top --replay`)
//! reads a dump back with the same escaping rules the writer used.

use crate::json::{array, Obj};
use crate::trace::SpanRecord;
use std::collections::VecDeque;

/// Everything the recorder retains about one tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickRecord {
    pub(crate) tick: u64,
    pub(crate) degraded: bool,
    pub(crate) spans: Vec<SpanRecord>,
    /// Pre-rendered JSON objects (e.g. `Event::to_json`).
    pub(crate) events: Vec<String>,
}

impl TickRecord {
    pub(crate) fn to_json(&self) -> String {
        let spans: Vec<String> = self.spans.iter().map(SpanRecord::to_json).collect();
        Obj::new()
            .u64_field("tick", self.tick)
            .bool_field("degraded", self.degraded)
            .raw_field("spans", &array(&spans))
            .raw_field("events", &array(&self.events))
            .finish()
    }
}

/// Bounded ring of [`TickRecord`]s. Capacity 0 disables recording.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<TickRecord>,
    dropped: u64,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity,
            ring: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Records one tick. `events` yields pre-rendered JSON objects (e.g.
    /// `Event::to_json`) and is consumed only when the record is retained:
    /// with capacity 0 the tick is counted as dropped and nothing is built.
    /// A full ring recycles the evicted record's storage.
    pub fn record(
        &mut self,
        tick: u64,
        degraded: bool,
        spans: &[SpanRecord],
        events: impl IntoIterator<Item = String>,
    ) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        let evicted = if self.ring.len() == self.capacity {
            self.dropped += 1;
            self.ring.pop_front()
        } else {
            None
        };
        let mut rec = evicted.unwrap_or_default();
        rec.tick = tick;
        rec.degraded = degraded;
        rec.spans.clear();
        rec.spans.extend_from_slice(spans);
        rec.events.clear();
        rec.events.extend(events);
        self.ring.push_back(rec);
    }

    /// Render the retained window as JSONL: a header line, then one line per
    /// tick, oldest first. The header carries the `dcat-flight/v1` schema
    /// tag; [`crate::frames::parse_flight`] rejects dumps without it.
    pub fn dump_jsonl(&self) -> String {
        let mut out = Obj::new()
            .str_field("record", "flight_header")
            .str_field("schema", crate::frames::FLIGHT_SCHEMA)
            .u64_field("capacity", self.capacity as u64)
            .u64_field("retained", self.ring.len() as u64)
            .u64_field("dropped", self.dropped)
            .finish();
        out.push('\n');
        for rec in &self.ring {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVENT: &str = "{\"event\":\"degraded_tick\",\"reason\":\"telemetry\"}";

    fn record(fr: &mut FlightRecorder, tick: u64) {
        let span = SpanRecord {
            name: "tick",
            tick,
            depth: 0,
            enter_step: 1,
            exit_step: 2,
            cycles: 0,
        };
        fr.record(tick, tick.is_multiple_of(2), &[span], [EVENT.to_string()]);
    }

    #[test]
    fn ring_keeps_the_last_k_ticks() {
        let mut fr = FlightRecorder::new(3);
        for t in 1..=5 {
            record(&mut fr, t);
        }
        assert_eq!(fr.ring.len(), 3);
        let dump = fr.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4);
        let header = crate::json::parse(lines[0]).unwrap();
        assert_eq!(
            header.get("schema").and_then(|v| v.as_str()),
            Some(crate::frames::FLIGHT_SCHEMA)
        );
        assert_eq!(header.get("capacity").and_then(|v| v.as_num()), Some(3.0));
        assert_eq!(header.get("retained").and_then(|v| v.as_num()), Some(3.0));
        assert_eq!(header.get("dropped").and_then(|v| v.as_num()), Some(2.0));
        let first = crate::json::parse(lines[1]).unwrap();
        assert_eq!(first.get("tick").and_then(|v| v.as_num()), Some(3.0));
        let last = crate::json::parse(lines[3]).unwrap();
        assert_eq!(last.get("tick").and_then(|v| v.as_num()), Some(5.0));
        // Ticks 4 and 5 reuse the storage of evicted ticks 1 and 2 and
        // must carry only their own span and event.
        for t in crate::frames::parse_flight(&dump).unwrap() {
            assert_eq!((t.spans, t.events.len()), (1, 1), "tick {}", t.tick);
            assert_eq!(t.degraded, t.tick % 2 == 0);
        }
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let mut fr = FlightRecorder::new(0);
        // Nothing is retained, so nothing may be rendered.
        let unrendered = std::iter::from_fn(|| -> Option<String> {
            panic!("an event was rendered for a recorder that retains nothing")
        });
        fr.record(1, false, &[], unrendered);
        record(&mut fr, 2);
        assert!(fr.ring.is_empty());
        let dump = fr.dump_jsonl();
        assert_eq!(dump.lines().count(), 1);
        // The header still says how many ticks went unrecorded.
        let header = crate::json::parse(&dump).unwrap();
        assert_eq!(header.get("dropped").and_then(|v| v.as_num()), Some(2.0));
        assert_eq!(header.get("retained").and_then(|v| v.as_num()), Some(0.0));
    }

    #[test]
    fn every_dump_line_parses_as_json() {
        let mut fr = FlightRecorder::new(8);
        for t in 1..=4 {
            record(&mut fr, t);
        }
        for line in fr.dump_jsonl().lines() {
            crate::json::parse(line).expect("dump line parses");
        }
    }

    #[test]
    fn dumps_pass_the_flight_validator() {
        let mut fr = FlightRecorder::new(8);
        for t in 1..=4 {
            record(&mut fr, t);
        }
        assert_eq!(crate::frames::check_flight(&fr.dump_jsonl()), Ok(4));
        assert_eq!(
            crate::frames::check_flight(&FlightRecorder::new(2).dump_jsonl()),
            Ok(0)
        );
    }
}
