//! Telemetry acquisition for the daemon: file reads, lossy parsing, and
//! the fault-injecting wrapper.
//!
//! The daemon never touches the filesystem directly (the DL005 source
//! rule, `tests/source_rules.rs`): [`CsvTelemetry`], its [`Telemetry`] source, pulls
//! raw CSV text through a [`TelemetryFeed`], retries transient failures
//! through [`resctrl::retry::with_retries`], and parses row by row,
//! dropping malformed rows individually instead of rejecting the whole
//! sample — a sampler caught mid-write corrupts one line, not the host.
//!
//! [`FaultyTelemetry`] wraps any feed with the telemetry half of a
//! [`FaultPlan`]: scheduled read errors, truncation, stale (repeated)
//! samples, and narrowed counters that wrap. The daemon composes it only
//! when it is given a plan.

// Privileged I/O: no I/O `Result` or error severity is dropped on the floor
// (DESIGN.md §12). `clippy.toml` has no in-tests switch for these two; the
// unit tests own their cleanup.
#![cfg_attr(
    not(test),
    deny(clippy::let_underscore_must_use, clippy::wildcard_enum_match_arm)
)]

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::num::ParseIntError;
use std::path::PathBuf;

use perf_events::CounterSnapshot;
use resctrl::fault::{Fault, FaultPlan};
use resctrl::retry::{with_retries, RetryEvent, RetryPolicy};
use resctrl::ResctrlError;

use crate::control::{SampleSink, Telemetry};
use crate::controller::WorkloadHandle;
use crate::events::Event;

/// A producer of raw telemetry text, one read per daemon tick.
pub trait TelemetryFeed {
    /// Reads the current sample. `tick` is the daemon's 1-based tick,
    /// used by fault-injecting implementations to follow their schedule.
    fn read(&mut self, tick: u64) -> Result<String, ResctrlError>;
}

/// Reads the telemetry CSV an external sampler refreshes.
#[derive(Debug, Clone)]
pub struct FileTelemetry {
    path: PathBuf,
    /// Bytes the previous read returned: the next sample is about as long
    /// (its totals gain a digit now and then).
    last_len: usize,
}

impl FileTelemetry {
    /// A feed over `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileTelemetry {
            path: path.into(),
            last_len: 0,
        }
    }
}

impl TelemetryFeed for FileTelemetry {
    /// The file's current contents. Reads until `read` reports the end
    /// rather than asking the file its size first (`read_to_string`'s
    /// `statx` and `lseek`): sized a little over the previous sample, the
    /// buffer takes the file in one `read` and sees the end in the next
    /// without growing.
    fn read(&mut self, _tick: u64) -> Result<String, ResctrlError> {
        let mut file = std::fs::File::open(&self.path).map_err(ResctrlError::Io)?;
        let mut buf = vec![0u8; self.last_len + 64];
        let mut len = 0usize;
        loop {
            if len == buf.len() {
                buf.resize(2 * len, 0);
            }
            let spare = buf.get_mut(len..).unwrap_or_default();
            match file.read(spare) {
                Ok(0) => break,
                Ok(n) => len += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ResctrlError::Io(e)),
            }
        }
        buf.truncate(len);
        self.last_len = len;
        // As `read_to_string` reports it.
        String::from_utf8(buf).map_err(|_| {
            ResctrlError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            ))
        })
    }
}

/// One dropped telemetry row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowIssue {
    /// 1-based line number.
    pub line: usize,
    /// The domain name, when the row got far enough to reveal one.
    pub domain: Option<String>,
    /// What was wrong.
    pub message: String,
}

/// What one line of the telemetry CSV holds.
enum Row<'a> {
    /// Blank, or a `#` comment.
    Skip,
    /// A well-formed row: the domain it names and its counter totals.
    Sample(&'a str, CounterSnapshot),
    /// A dropped row: the domain name, when the row got far enough to
    /// reveal one, and what was wrong.
    Bad(Option<&'a str>, String),
}

/// `s.trim()`. A string that starts and ends in printable ASCII has
/// nothing to trim, and every field of a healthy row does.
fn trim(s: &str) -> &str {
    let printable = |b: Option<&u8>| b.is_some_and(|b| (b'!'..=b'~').contains(b));
    let bytes = s.as_bytes();
    if printable(bytes.first()) && printable(bytes.last()) {
        s
    } else {
        s.trim()
    }
}

/// `raw.parse::<u64>()`. One to nineteen ASCII digits cannot overflow
/// (`10^19 < 2^64`) and are read here; a sign, a twentieth digit or anything
/// else goes to `str::parse`, whose verdict and error text stand.
fn parse_u64(raw: &str) -> Result<u64, ParseIntError> {
    let bytes = raw.as_bytes();
    if !(1..=19).contains(&bytes.len()) {
        return raw.parse();
    }
    let mut value = 0u64;
    for &b in bytes {
        if !b.is_ascii_digit() {
            return raw.parse();
        }
        value = value * 10 + u64::from(b - b'0');
    }
    Ok(value)
}

/// The row grammar both collectors share: exactly six comma-separated
/// fields, each trimmed, a non-empty name then five `u64` totals.
fn parse_row(line: &str) -> Row<'_> {
    let line = trim(line);
    if line.is_empty() || line.starts_with('#') {
        return Row::Skip;
    }
    let mut fields = [""; 6];
    let mut count = 0usize;
    // Split on the comma byte: it is ASCII, so both sides of one are whole
    // characters and `get` cannot refuse the range.
    let bytes = line.as_bytes();
    let mut from = 0usize;
    for at in 0..=bytes.len() {
        if bytes.get(at).is_some_and(|&b| b != b',') {
            continue;
        }
        if let (Some(slot), Some(field)) = (fields.get_mut(count), line.get(from..at)) {
            *slot = trim(field);
        }
        count += 1;
        from = at + 1;
    }
    let [name, l1_ref, llc_ref, llc_miss, ret_ins, cycles] = fields;
    let domain = Some(name).filter(|name| !name.is_empty());
    if count != 6 {
        return Row::Bad(domain, format!("expected 6 fields, got {count}"));
    }
    // The first malformed field wins the row's issue report; the
    // parsed value of a bad field is irrelevant (the row is dropped).
    let mut bad = None;
    let mut parse = |raw: &str, what: &str| -> u64 {
        match parse_u64(raw) {
            Ok(v) => v,
            Err(e) => {
                if bad.is_none() {
                    bad = Some(format!("bad {what} {raw:?}: {e}"));
                }
                0
            }
        }
    };
    let snap = CounterSnapshot {
        l1_ref: parse(l1_ref, "l1_ref"),
        llc_ref: parse(llc_ref, "llc_ref"),
        llc_miss: parse(llc_miss, "llc_miss"),
        ret_ins: parse(ret_ins, "ret_ins"),
        cycles: parse(cycles, "cycles"),
    };
    match (bad, domain) {
        (Some(message), _) => Row::Bad(domain, message),
        (None, None) => Row::Bad(None, "empty domain name".to_string()),
        (None, Some(name)) => Row::Sample(name, snap),
    }
}

/// Walks the rows of `text` in line order. `keep` stores a well-formed
/// row and says whether it was the first to name its domain; a row it
/// turns away is a duplicate, and goes to `on_issue` like a malformed one.
fn walk_rows<'a>(
    text: &'a str,
    mut keep: impl FnMut(&'a str, CounterSnapshot) -> bool,
    mut on_issue: impl FnMut(RowIssue),
) {
    for (lineno, line) in text.lines().enumerate() {
        let (domain, message) = match parse_row(line) {
            Row::Skip => continue,
            Row::Sample(name, snap) if keep(name, snap) => continue,
            Row::Sample(name, _) => (Some(name), "duplicate domain row".to_string()),
            Row::Bad(domain, message) => (domain, message),
        };
        on_issue(RowIssue {
            line: lineno + 1,
            domain: domain.map(str::to_string),
            message,
        });
    }
}

/// Parses the telemetry CSV, dropping malformed rows individually.
///
/// Returns the good rows plus one [`RowIssue`] per dropped row. A
/// duplicate domain keeps the *first* occurrence (the second is the
/// suspect one under append-style corruption).
pub fn parse_telemetry_lossy(text: &str) -> (BTreeMap<String, CounterSnapshot>, Vec<RowIssue>) {
    let mut out = BTreeMap::new();
    let mut issues = Vec::new();
    walk_rows(
        text,
        |name, snap| match out.entry(name.to_string()) {
            Entry::Vacant(slot) => {
                slot.insert(snap);
                true
            }
            Entry::Occupied(_) => false,
        },
        |issue| issues.push(issue),
    );
    (out, issues)
}

/// [`parse_telemetry_lossy`] for [`CsvTelemetry`], which asks for each
/// configured domain's sample once per tick: rows land in `slots`
/// (`slots[i]` is the first good row naming `domains[i]`, `None` when no
/// row did) and each dropped row goes to `on_issue`, in line order — the
/// same samples and issues, without the per-tick name-keyed map.
fn parse_telemetry_into(
    text: &str,
    domains: &[WorkloadHandle],
    slots: &mut [Option<CounterSnapshot>],
    on_issue: impl FnMut(RowIssue),
) {
    slots.fill(None);
    // Row k names domain k in every healthy sample; anything else falls
    // back to a scan by name.
    let mut expected = 0usize;
    // Good rows naming no configured domain are kept only to report their
    // duplicates, as the map did. Empty (and unallocated) when healthy.
    let mut strangers: Vec<&str> = Vec::new();
    walk_rows(
        text,
        |name, snap| {
            let index = if domains.get(expected).is_some_and(|d| d.name == name) {
                Some(expected)
            } else {
                domains.iter().position(|d| d.name == name)
            };
            if let Some(i) = index {
                expected = i + 1;
            }
            match index.and_then(|i| slots.get_mut(i)) {
                Some(slot @ None) => {
                    *slot = Some(snap);
                    true
                }
                Some(Some(_)) => false,
                None if strangers.contains(&name) => false,
                None => {
                    strangers.push(name);
                    true
                }
            }
        },
        on_issue,
    );
}

/// The telemetry CSV as a [`Telemetry`] source: one `telemetry` span per
/// tick around a read of `feed`, retried under `retry`, and the lossy row
/// parse.
pub struct CsvTelemetry<F> {
    pub feed: F,
    pub retry: RetryPolicy,
}

impl<F: TelemetryFeed> Telemetry for CsvTelemetry<F> {
    fn sample(&mut self, tick: u64, sink: &mut SampleSink<'_>) -> Result<(), ResctrlError> {
        sink.tracer.enter("telemetry");
        let mut retries = Vec::new();
        let text = with_retries(self.retry, "telemetry_read", &mut retries, || {
            self.feed.read(tick)
        });
        sink.events.extend(retries.into_iter().map(|e| match e {
            RetryEvent::Retried { attempt, error, .. } => {
                Event::TelemetryRetried { attempt, error }
            }
            RetryEvent::Exhausted {
                attempts, error, ..
            } => Event::TelemetryExhausted { attempts, error },
        }));
        let parsed = text.map(|text| {
            parse_telemetry_into(&text, sink.domains, sink.samples, |issue| {
                sink.issues.push(issue);
            });
        });
        sink.tracer.exit();
        parsed
    }
}

/// A [`TelemetryFeed`] wrapper that injects the telemetry half of a
/// [`FaultPlan`].
///
/// Per scheduled fault kind:
///
/// * [`Fault::TelemetryRead`] — every read this tick fails with an
///   injected I/O error (retries exhaust, the tick degrades);
/// * [`Fault::TelemetryReadOnce`] — only the first read this tick fails
///   (one retry absorbs it);
/// * [`Fault::TelemetryTruncated`] — the text is cut off mid-row;
/// * [`Fault::TelemetryStale`] — the previous successful sample is
///   served again;
/// * [`Fault::CounterWrap`] — from its first scheduled tick onward,
///   numeric fields are reported modulo `2^wrap_width_bits`, as a
///   narrow hardware counter would report them.
#[derive(Debug)]
pub struct FaultyTelemetry<S> {
    inner: S,
    plan: FaultPlan,
    /// Whether `plan` schedules a [`Fault::TelemetryStale`] anywhere: only
    /// then is each good sample worth a copy.
    serves_stale: bool,
    last_good: Option<String>,
    calls_this_tick: u32,
    tick: u64,
    injected: Vec<(u64, Fault)>,
}

impl<S: TelemetryFeed> FaultyTelemetry<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        let serves_stale = plan.iter().any(|(_, f)| f == Fault::TelemetryStale);
        FaultyTelemetry {
            inner,
            serves_stale,
            plan,
            last_good: None,
            calls_this_tick: 0,
            tick: 0,
            injected: Vec::new(),
        }
    }

    /// Every fault actually injected, as `(tick, fault)` pairs.
    pub fn injected(&self) -> &[(u64, Fault)] {
        &self.injected
    }

    fn narrow_counters(&self, text: &str) -> String {
        let modulus = 2u64.pow(self.plan.wrap_width_bits());
        let mut out = String::with_capacity(text.len());
        for line in text.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                out.push_str(line);
            } else {
                let narrowed: Vec<String> = line
                    .split(',')
                    .enumerate()
                    .map(|(k, field)| {
                        if k == 0 {
                            return field.to_string();
                        }
                        match field.trim().parse::<u64>() {
                            Ok(v) => (v % modulus).to_string(),
                            Err(_) => field.to_string(),
                        }
                    })
                    .collect();
                out.push_str(&narrowed.join(","));
            }
            out.push('\n');
        }
        out
    }
}

impl<S: TelemetryFeed> TelemetryFeed for FaultyTelemetry<S> {
    #[expect(
        clippy::integer_division,
        clippy::string_slice,
        reason = "the truncation fault cuts at any 3/5 of the text, walked back to a char boundary <= len, so the slice cannot panic"
    )]
    fn read(&mut self, tick: u64) -> Result<String, ResctrlError> {
        if tick != self.tick {
            self.tick = tick;
            self.calls_this_tick = 0;
        }
        let first_call = self.calls_this_tick == 0;
        self.calls_this_tick += 1;

        if self.plan.contains(tick, Fault::TelemetryRead) {
            self.injected.push((tick, Fault::TelemetryRead));
            return Err(ResctrlError::Io(std::io::Error::other(format!(
                "injected telemetry_read fault at tick {tick}"
            ))));
        }
        if first_call && self.plan.contains(tick, Fault::TelemetryReadOnce) {
            self.injected.push((tick, Fault::TelemetryReadOnce));
            return Err(ResctrlError::Io(std::io::Error::other(format!(
                "injected telemetry_read_once fault at tick {tick}"
            ))));
        }

        let mut text = self.inner.read(tick)?;
        if self.plan.wrap_active_at(tick) {
            if self.plan.contains(tick, Fault::CounterWrap) {
                self.injected.push((tick, Fault::CounterWrap));
            }
            text = self.narrow_counters(&text);
        }
        if self.plan.contains(tick, Fault::TelemetryStale) {
            if let Some(stale) = &self.last_good {
                self.injected.push((tick, Fault::TelemetryStale));
                return Ok(stale.clone());
            }
        }
        if self.plan.contains(tick, Fault::TelemetryTruncated) {
            self.injected.push((tick, Fault::TelemetryTruncated));
            let mut cut = text.len() * 3 / 5;
            while cut > 0 && !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return Ok(text[..cut].to_string());
        }
        if self.serves_stale {
            self.last_good = Some(text.clone());
        }
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory feed scripted per tick.
    struct Scripted(Vec<String>);

    impl TelemetryFeed for Scripted {
        fn read(&mut self, tick: u64) -> Result<String, ResctrlError> {
            Ok(self.0[(tick - 1) as usize].clone())
        }
    }

    /// A scratch file under the system temp dir, removed on drop.
    struct TempFile(PathBuf);

    impl TempFile {
        fn new(tag: &str) -> Self {
            let name = format!("dcat-telemetry-{tag}-{}", std::process::id());
            TempFile(std::env::temp_dir().join(name))
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    #[expect(
        clippy::integer_division,
        reason = "an `é` is two bytes, so half the buffer's length in bytes is its length in chars, exactly"
    )]
    fn file_feed_returns_the_current_contents_as_the_file_grows_and_shrinks() {
        let file = TempFile::new("resize");
        let mut feed = FileTelemetry::new(&file.0);
        assert!(matches!(feed.read(1), Err(ResctrlError::Io(_))), "no file");
        // Empty, short, far past any buffer sized from the sample before
        // it, one byte more, then short and empty again.
        let row = "tenant-07,340000,120000,60000,1000000,20000000\n";
        for (tick, rows) in [0usize, 1, 400, 400, 401, 2, 0, 12].into_iter().enumerate() {
            let mut text = row.repeat(rows);
            if rows == 401 {
                text.push('x');
            }
            std::fs::write(&file.0, &text).unwrap();
            assert_eq!(feed.read(tick as u64).unwrap(), text, "{rows} rows");
        }
        // Exactly as long as the buffer sized from the previous read.
        let text = "é".repeat((row.len() * 12 + 64) / 2);
        std::fs::write(&file.0, &text).unwrap();
        assert_eq!(feed.read(9).unwrap(), text);
    }

    #[test]
    fn file_feed_reports_non_utf8_as_invalid_data() {
        let file = TempFile::new("non-utf8");
        std::fs::write(&file.0, b"a,1,2,3,4,5\nb,\xff\xfe,2,3,4,5\n").unwrap();
        let mut feed = FileTelemetry::new(&file.0);
        match feed.read(1) {
            Err(ResctrlError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                assert_eq!(e.to_string(), "stream did not contain valid UTF-8");
            }
            other => panic!("expected an InvalidData I/O error, got {other:?}"),
        }
        // The feed is not poisoned: the next sample is read whole.
        std::fs::write(&file.0, "a,1,2,3,4,5\n").unwrap();
        assert_eq!(feed.read(2).unwrap(), "a,1,2,3,4,5\n");
    }

    #[test]
    fn lossy_parse_keeps_good_rows_and_reports_bad_ones() {
        let text = "# header\na,1,2,3,4,5\nb,1,2\nc,x,2,3,4,5\na,9,9,9,9,9\nd,1,2,3,4,5\n";
        let (rows, issues) = parse_telemetry_lossy(text);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows["a"].l1_ref, 1, "first duplicate occurrence wins");
        assert_eq!(rows["d"].cycles, 5);
        assert_eq!(issues.len(), 3);
        assert_eq!(issues[0].domain.as_deref(), Some("b"));
        assert!(issues[0].message.contains("expected 6 fields"));
        assert!(issues[1].message.contains("bad l1_ref"));
        assert_eq!(issues[2].message, "duplicate domain row");
    }

    #[test]
    fn truncated_text_loses_the_tail_row_only() {
        let text = "a,1,2,3,4,5\nb,10,20,30,40,50\n";
        let feed = Scripted(vec![text.to_string()]);
        let plan = FaultPlan::scripted([(1, Fault::TelemetryTruncated)]);
        let mut faulty = FaultyTelemetry::new(feed, plan);
        let got = faulty.read(1).unwrap();
        assert!(got.len() < text.len());
        let (rows, issues) = parse_telemetry_lossy(&got);
        assert!(rows.contains_key("a"), "leading rows survive truncation");
        assert!(!rows.contains_key("b"));
        assert_eq!(issues.len(), 1);
        assert_eq!(faulty.injected(), &[(1, Fault::TelemetryTruncated)]);
    }

    #[test]
    fn stale_fault_replays_the_previous_sample() {
        let feed = Scripted(vec!["a,1,1,1,1,1\n".into(), "a,2,2,2,2,2\n".into()]);
        let plan = FaultPlan::scripted([(2, Fault::TelemetryStale)]);
        let mut faulty = FaultyTelemetry::new(feed, plan);
        let first = faulty.read(1).unwrap();
        let second = faulty.read(2).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn wrap_fault_narrows_totals_stickily() {
        let feed = Scripted(vec![
            "a,1,1,1,1,100\n".into(),
            "a,1,1,1,1,300\n".into(),
            "a,1,1,1,1,600\n".into(),
        ]);
        let plan = FaultPlan::scripted([(2, Fault::CounterWrap)]).with_wrap_width(8);
        let mut faulty = FaultyTelemetry::new(feed, plan);
        assert!(faulty.read(1).unwrap().contains(",100"));
        assert!(faulty.read(2).unwrap().contains(",44"), "300 mod 256");
        assert!(
            faulty.read(3).unwrap().contains(",88"),
            "600 mod 256 — sticky"
        );
    }

    #[test]
    fn read_once_fault_fails_only_the_first_attempt() {
        let feed = Scripted(vec!["a,1,1,1,1,1\n".into()]);
        let plan = FaultPlan::scripted([(1, Fault::TelemetryReadOnce)]);
        let mut faulty = FaultyTelemetry::new(feed, plan);
        assert!(faulty.read(1).is_err());
        assert!(faulty.read(1).is_ok(), "the retry within the tick succeeds");
    }
}
