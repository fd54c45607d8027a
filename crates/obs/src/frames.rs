//! `dcat-frames/v2`: a deterministic per-tick frame stream for `dcat-top`.
//!
//! One JSONL record per tick, carrying everything an operator watches
//! live: per-domain way occupancy and CBM, Figure-6 state class, IPC vs.
//! baseline, degraded-tick reason, quarantine status, and a policy
//! decision summary (ways moved, COS count, LFOC clustering / Memshare
//! ledger when those policies are active). The encoder lives here — below
//! the daemon and the bench harness — so `run_daemon_observed` and
//! `bench::scenario`/`bench::fleet` all emit identical bytes for
//! identical ticks, and the determinism regression can diff streams
//! across `--jobs` widths.
//!
//! A stream is a sequence of *segments*: a `frames_header` record
//! (schema and source) followed by `frame` records with strictly
//! increasing ticks.
//! Concatenating streams concatenates segments, which is how multi-run
//! exports (e.g. fig07's streaming/non-streaming pair) stay valid.
//!
//! [`FrameReader`] is the single validator, one line at a time:
//! [`parse_stream`], [`check_frames`], `dcat-top --replay` and
//! `dcat-top --follow` all go through it, so a stream the dashboard can
//! step is exactly a stream CI accepts, and none of them keeps the frames
//! it decoded. [`check_flight`] is the matching validator for
//! `dcat-flight/v1` recorder dumps.

use crate::json::{self, Item, Obj};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Schema tag of the `frames_header` record [`FrameWriter`] writes.
pub const FRAMES_SCHEMA: &str = "dcat-frames/v2";

/// Every schema [`FrameReader`] reads: `dcat-frames/v1` wrote a domain as
/// an object by key, v2 writes it as an array by position.
const READ_SCHEMAS: &[&str] = &["dcat-frames/v1", FRAMES_SCHEMA];

/// Schema tag carried by every `flight_header` record
/// (see [`crate::recorder::FlightRecorder::dump_jsonl`]).
pub const FLIGHT_SCHEMA: &str = "dcat-flight/v1";

/// The state-machine class strings `dcat::state::WorkloadClass` renders;
/// any other `class` value fails validation.
pub const KNOWN_CLASSES: &[&str] = &[
    "Keeper",
    "Donor",
    "Receiver",
    "Streaming",
    "Unknown",
    "Reclaim",
];

/// Degraded-tick reasons `dcat::events::DegradeReason` renders.
pub const KNOWN_REASONS: &[&str] = &["telemetry", "resctrl"];

/// Declares a record of `dcat-frames`: the struct, with its fields in wire
/// order, and their writer and reader. A field is `name: Type [as Codec] =
/// mode ["key"]`; its [`Codec`] is its type unless `as` names another. The
/// modes: `required`; `null`, an `Option` written `null` when `None`;
/// `omitted`, an `Option` left out when `None`; and `flatten`, a record
/// whose fields sit inline among this one's. Either `Option` reads `None`
/// when the key is absent.
///
/// A record declared `as positional` (no `flatten` field) is written as an
/// array of its values in field order, `None` as `null`, and read from one:
/// a missing trailing `Option` reads `None`, and elements past the last
/// field are skipped, as unknown keys are. It still reads an object by key,
/// the way `dcat-frames/v1` wrote it.
macro_rules! record {
    (@codec $ty:ty) => { $ty };
    (@codec $ty:ty, $codec:ty) => { $codec };
    (@put flatten $c:ty, $out:ident, $first:ident, $v:expr) => { $v.put_fields($out, $first) };
    (@put omitted $c:ty, $out:ident, $first:ident, $v:expr, $key:literal) => {
        if $v.is_some() {
            record!(@put required $c, $out, $first, $v, $key)
        }
    };
    (@put $mode:ident $c:ty, $out:ident, $first:ident, $v:expr, $key:literal) => {
        put_field::<$c>($out, $first, concat!(",\"", $key, "\":"), $v)
    };
    (@take flatten $c:ty, $v:ident) => { <$c>::take_fields($v)? };
    (@take $mode:ident $c:ty, $v:ident, $key:literal) => { take::<$c>($v.get($key), $key)? };
    (@shape positional $name:ident $(<$lt:lifetime>)? {
        $( $field:ident: $c:ty = $mode:ident $($key:literal)?, )*
    }) => {
        impl $(<$lt>)? Codec for $name $(<$lt>)? {
            type Value = Self;
            fn put(v: &Self, out: &mut String) {
                out.push('[');
                let first = &mut true;
                $( put_field::<$c>(out, first, ",", &v.$field); )*
                out.push(']');
            }
            fn take(v: Item<'_, '_>, _: &str) -> Result<Self, String> {
                if !v.is_array() {
                    return Self::take_fields(v);
                }
                let mut items = v.children().map(|(_, item)| item);
                Ok($name { $( $field: take::<$c>(items.next(), $($key)?)?, )* })
            }
        }
    };
    (@shape $name:ident $(<$lt:lifetime>)? {
        $( $field:ident: $c:ty = $mode:ident $($key:literal)?, )*
    }) => {
        impl $(<$lt>)? $name $(<$lt>)? {
            /// Appends `"key":value` per field, after a comma unless `first`.
            fn put_fields(&self, out: &mut String, first: &mut bool) {
                $( record!(@put $mode $c, out, first, &self.$field $(, $key)?); )*
            }
        }

        impl $(<$lt>)? Codec for $name $(<$lt>)? {
            type Value = Self;
            fn put(v: &Self, out: &mut String) {
                out.push('{');
                v.put_fields(out, &mut true);
                out.push('}');
            }
            fn take(v: Item<'_, '_>, _: &str) -> Result<Self, String> {
                Self::take_fields(v)
            }
        }
    };
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident $(<$lt:lifetime>)? $(as $shape:ident)? {
            $( $(#[$doc:meta])* $field:ident: $ty:ty $(as $codec:ty)? = $mode:ident $($key:literal)?, )*
        }
    )*) => {$(
        $(#[$meta])*
        pub struct $name $(<$lt>)? {
            $( $(#[$doc])* pub $field: $ty, )*
        }

        impl $(<$lt>)? $name $(<$lt>)? {
            fn take_fields(v: Item<'_, '_>) -> Result<Self, String> {
                Ok($name { $( $field: record!(@take $mode record!(@codec $ty $(, $codec)?), v $(, $key)?), )* })
            }
        }

        record!(@shape $($shape)? $name $(<$lt>)? {
            $( $field: record!(@codec $ty $(, $codec)?) = $mode $($key)?, )*
        });
    )*};
}

record! {
    /// One domain's slice of a frame. A producer lends the name out of its
    /// reports; [`FrameReader`] owns what it read.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DomainFrame<'a> as positional {
        name: Cow<'a, str> = required "name",
        /// State-machine class, rendered (one of [`KNOWN_CLASSES`]).
        class: &'static str as Class = required "class",
        /// Ways currently granted.
        ways: u32 = required "ways",
        /// Raw capacity bitmask when the policy programs one.
        cbm: Option<u64> = null "cbm",
        ipc: f64 = required "ipc",
        /// IPC normalized to the recorded baseline, when a baseline exists.
        norm_ipc: Option<f64> = null "norm_ipc",
        miss_rate: f64 = required "miss_rate",
        baseline_ipc: Option<f64> = null "baseline_ipc",
        /// Domain is quarantined (telemetry dead, allocation frozen).
        quarantined: bool = required "quarantined",
        /// This tick skipped the domain (no usable interval).
        held: bool = required "held",
    }

    /// LFOC decision summary (present when the LFOC policy is active).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct LfocExt {
        /// Occupied sensitive clusters this tick.
        clusters: u32 = required "clusters",
        /// Domains fenced into the shared insensitive bucket.
        insensitive: u32 = required "insensitive",
    }

    /// Memshare ledger summary (present when the Memshare policy is active).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct MemshareExt {
        /// Ways currently lent out of their entitlements.
        lent: u32 = required "lent",
        credit_min: i64 = required "credit_min",
        credit_max: i64 = required "credit_max",
    }

    /// Policy decision summary attached to every frame. The default is what
    /// a policy with no COS bookkeeping reports.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct PolicyExt {
        /// COS (partitions) in use this tick; 0 when the policy has none.
        cos: u32 = required "cos",
        lfoc: Option<LfocExt> = omitted "lfoc",
        memshare: Option<MemshareExt> = omitted "memshare",
    }

    /// One tick of the stream.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Frame<'a> {
        tick: u64 = required "tick",
        /// Policy name (e.g. `dcat`, `lfoc`, `static`).
        policy: Cow<'a, str> = required "policy",
        degraded: bool = required "degraded",
        /// Required when `degraded` (one of [`KNOWN_REASONS`]).
        reason: Option<&'static str> as Option<Reason> = omitted "reason",
        /// Total |Δways| vs. the previous frame ([`FrameWriter::push`] fills
        /// this in; the first frame of a segment reports 0).
        ways_moved: u32 = required "ways_moved",
        ext: PolicyExt = flatten,
        /// Events the daemon emitted this tick.
        events: u64 = required "events",
        domains: Vec<DomainFrame<'a>> = required "domains",
    }
}

/// How one Rust type is spelt on the wire: appended to the caller's
/// buffer with no per-field temporary, and read from its scanned text.
trait Codec {
    type Value;
    fn put(v: &Self::Value, out: &mut String);
    /// Reads `v` as the value of the field `key`.
    fn take(v: Item<'_, '_>, key: &str) -> Result<Self::Value, String>;
    /// What a record without the field holds, if it may lack it.
    fn missing() -> Option<Self::Value> {
        None
    }
}

/// Appends `,"key":value`, without the comma when it is the `first`.
fn put_field<C: Codec>(out: &mut String, first: &mut bool, key: &str, v: &C::Value) {
    out.push_str(key.get(usize::from(std::mem::take(first))..).unwrap_or(key));
    C::put(v, out);
}

/// Reads `field` as the value of `key`; an absent one reads as
/// [`Codec::missing`].
fn take<C: Codec>(field: Option<Item<'_, '_>>, key: &str) -> Result<C::Value, String> {
    match field {
        Some(field) => C::take(field, key),
        None => C::missing().ok_or_else(|| format!("missing field '{key}'")),
    }
}

/// Integers are written by `write!` (infallible on a `String`) and read as
/// integers, through the widest type of their sign: no `f64` on the way,
/// and a value outside the type is refused.
macro_rules! integer_codec {
    ($($t:ty: $what:literal via $wide:ty),*) => {$(
        impl Codec for $t {
            type Value = $t;
            fn put(v: &$t, out: &mut String) {
                let _ = write!(out, "{}", *v);
            }
            fn take(v: Item<'_, '_>, key: &str) -> Result<$t, String> {
                let n = number(v, key)?.parse::<$wide>().ok();
                n.and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| format!("field '{key}' is not {}", $what))
            }
        }
    )*};
}

integer_codec!(u32: "a u32" via u64, u64: "a u64" via u64, i64: "an i64" via i64);

/// `v`'s text when it is a number: a JSON number starts with `-` or a
/// digit.
fn number<'a>(v: Item<'_, 'a>, key: &str) -> Result<&'a str, String> {
    let text = v.text();
    match text.bytes().next() {
        Some(b'-' | b'0'..=b'9') => Ok(text),
        _ => Err(format!("field '{key}' is not a number")),
    }
}

/// Finite floats render through [`json::push_f64`]; non-finite render
/// `null`, mirroring the metrics JSONL export. `null` does not read back.
impl Codec for f64 {
    type Value = f64;
    fn put(v: &f64, out: &mut String) {
        if v.is_finite() {
            json::push_f64(out, *v);
        } else {
            out.push_str("null");
        }
    }
    fn take(v: Item<'_, '_>, key: &str) -> Result<f64, String> {
        // The scan admits only numbers `f64::from_str` reads.
        Ok(number(v, key)?.parse().unwrap_or(f64::NAN))
    }
}

impl Codec for bool {
    type Value = bool;
    fn put(v: &bool, out: &mut String) {
        out.push_str(if *v { "true" } else { "false" });
    }
    fn take(v: Item<'_, '_>, key: &str) -> Result<bool, String> {
        match v.text() {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(format!("field '{key}' is not a bool")),
        }
    }
}

impl<'a> Codec for Cow<'a, str> {
    type Value = Cow<'a, str>;
    fn put(v: &Cow<'a, str>, out: &mut String) {
        out.push('"');
        json::escape_into(out, v);
        out.push('"');
    }
    fn take(v: Item<'_, '_>, key: &str) -> Result<Cow<'a, str>, String> {
        let text = v
            .as_str()
            .ok_or_else(|| format!("field '{key}' is not a string"))?;
        Ok(Cow::Owned(text.into_owned()))
    }
}

/// A name from a table ([`KNOWN_CLASSES`], [`KNOWN_REASONS`]): written as a
/// string, read back as the table's own `&'static str`.
macro_rules! table_codec {
    ($($codec:ident: $table:expr, $what:literal;)*) => {$(
        struct $codec;
        impl Codec for $codec {
            type Value = &'static str;
            fn put(v: &&'static str, out: &mut String) {
                Cow::put(&Cow::Borrowed(*v), out);
            }
            fn take(v: Item<'_, '_>, key: &str) -> Result<&'static str, String> {
                let text = v.as_str().ok_or_else(|| format!("field '{key}' is not a string"))?;
                let known = $table.iter().copied().find(|k| *k == text);
                known.ok_or_else(|| format!("unknown {} '{text}'", $what))
            }
        }
    )*};
}

table_codec! {
    Class: KNOWN_CLASSES, "state class";
    Reason: KNOWN_REASONS, "degrade reason";
}

/// `None` is written `null`, and `null` or no field at all reads `None`.
impl<C: Codec> Codec for Option<C> {
    type Value = Option<C::Value>;
    fn put(v: &Option<C::Value>, out: &mut String) {
        match v {
            Some(v) => C::put(v, out),
            None => out.push_str("null"),
        }
    }
    fn take(v: Item<'_, '_>, key: &str) -> Result<Option<C::Value>, String> {
        match v.text() {
            "null" => Ok(None),
            _ => C::take(v, key).map(Some),
        }
    }
    fn missing() -> Option<Option<C::Value>> {
        Some(None)
    }
}

impl<C: Codec> Codec for Vec<C> {
    type Value = Vec<C::Value>;
    fn put(v: &Vec<C::Value>, out: &mut String) {
        out.push('[');
        for (i, item) in v.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            C::put(item, out);
        }
        out.push(']');
    }
    fn take(v: Item<'_, '_>, key: &str) -> Result<Vec<C::Value>, String> {
        if !v.is_array() {
            return Err(format!("field '{key}' is not an array"));
        }
        let mut items = Vec::with_capacity(v.children().count());
        for (_, item) in v.children() {
            items.push(C::take(item, key)?);
        }
        Ok(items)
    }
}

/// Render a segment header line (no trailing newline).
pub fn header_line(source: &str) -> String {
    Obj::new()
        .str_field("record", "frames_header")
        .str_field("schema", FRAMES_SCHEMA)
        .str_field("source", source)
        .finish()
}

/// Appends one frame record to `out` (no trailing newline). This is the
/// whole per-tick cost of the export (tracked by the `frame_encode_tick`
/// perfbench case); `tests/golden/frames_v2.jsonl` pins its bytes.
fn put_frame(out: &mut String, f: &Frame<'_>) {
    out.push_str("{\"record\":\"frame\"");
    f.put_fields(out, &mut false);
    out.push('}');
}

/// Encode one frame as a single JSONL line (no trailing newline): the
/// one-call form of what [`FrameWriter::push`] appends.
pub fn encode_frame(f: &Frame<'_>) -> String {
    let mut line = String::new();
    put_frame(&mut line, f);
    line
}

/// Incremental stream writer: emits the segment header at construction,
/// computes `ways_moved` against the previous frame, and accumulates the
/// rendered lines so batch producers (scenario, fleet) can hand the whole
/// segment to the coordinator while live producers (`dcatd`) append each
/// returned line to a file as it is produced.
#[derive(Debug)]
pub struct FrameWriter {
    header: String,
    buf: String,
    /// The previous frame's `(name, ways)`, one entry per distinct name
    /// (a repeated name keeps its last ways) in first-appearance order.
    prev_ways: Vec<(String, u32)>,
}

impl FrameWriter {
    /// Start a segment. `source` names the producer (`dcatd`,
    /// `scenario:dcat`, `fleet-host:3`, ...).
    pub fn new(source: &str) -> Self {
        let mut header = header_line(source);
        header.push('\n');
        FrameWriter {
            buf: header.clone(),
            header,
            prev_ways: Vec::new(),
        }
    }

    /// The rendered header line this writer opened with (with newline).
    pub fn header(&self) -> &str {
        &self.header
    }

    /// Σ|Δways| of `domains` against the previous frame — a name the
    /// previous frame did not carry moves nothing — and remember
    /// `domains` as the new previous frame.
    fn ways_moved(&mut self, domains: &[DomainFrame<'_>]) -> u32 {
        // A host's domain list is the same tick after tick, so the names
        // are compared in place and only the ways are overwritten; the
        // list is rebuilt when a tenant arrives, leaves or moves.
        let unchanged = domains.len() == self.prev_ways.len()
            && domains
                .iter()
                .zip(&self.prev_ways)
                .all(|(d, (name, _))| *d.name == **name);
        let mut moved = 0u32;
        if unchanged {
            for (d, (_, ways)) in domains.iter().zip(self.prev_ways.iter_mut()) {
                moved += d.ways.abs_diff(*ways);
                *ways = d.ways;
            }
            return moved;
        }
        for d in domains {
            let prev = self
                .prev_ways
                .iter()
                .find(|(name, _)| **name == *d.name)
                .map_or(d.ways, |&(_, ways)| ways);
            moved += d.ways.abs_diff(prev);
        }
        self.prev_ways.clear();
        for d in domains {
            match self
                .prev_ways
                .iter_mut()
                .find(|(name, _)| **name == *d.name)
            {
                Some((_, ways)) => *ways = d.ways,
                None => self.prev_ways.push((d.name.to_string(), d.ways)),
            }
        }
        moved
    }

    /// Fill in `ways_moved`, encode onto the end of the buffer, and return
    /// the rendered line (newline-terminated) for incremental sinks.
    pub fn push(&mut self, mut frame: Frame<'_>) -> &str {
        frame.ways_moved = self.ways_moved(&frame.domains);
        let start = self.buf.len();
        put_frame(&mut self.buf, &frame);
        self.buf.push('\n');
        self.buf.get(start..).unwrap_or_default()
    }

    /// The whole segment rendered so far (header + frames, one per line).
    pub fn buffer(&self) -> &str {
        &self.buf
    }

    /// Drop the accumulated text (the `ways_moved` state is kept).
    /// Incremental sinks that persist each line returned by
    /// [`FrameWriter::push`] — a long-running `dcatd` — call this per tick
    /// so the in-memory buffer stays bounded.
    pub fn clear_buffer(&mut self) {
        self.buf.clear();
    }

    pub fn into_string(self) -> String {
        self.buf
    }
}

impl Default for FrameWriter {
    fn default() -> Self {
        FrameWriter::new("unknown")
    }
}

/// One validated segment of a stream, borrowing the text it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment<'a> {
    pub source: String,
    pub frames: Frames<'a>,
}

/// A segment's frames, kept as their validated lines (16 B a frame) and
/// decoded one at a time when asked for.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Frames<'a> {
    lines: Vec<&'a str>,
}

/// What [`Frames::iter`] yields: each line decoded as it is reached.
pub type FramesIter<'s, 'a> =
    std::iter::Map<std::slice::Iter<'s, &'a str>, fn(&&'a str) -> Frame<'static>>;

impl<'a> Frames<'a> {
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    pub fn get(&self, index: usize) -> Option<Frame<'static>> {
        self.lines.get(index).map(decode)
    }

    pub fn last(&self) -> Option<Frame<'static>> {
        self.lines.last().map(decode)
    }

    pub fn iter(&self) -> FramesIter<'_, 'a> {
        self.lines
            .iter()
            .map(decode as fn(&&'a str) -> Frame<'static>)
    }
}

impl<'s, 'a> IntoIterator for &'s Frames<'a> {
    type Item = Frame<'static>;
    type IntoIter = FramesIter<'s, 'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Decodes a line [`FrameReader`] has already accepted as a frame.
#[expect(
    clippy::expect_used,
    reason = "`Frames` holds only lines `FrameReader` decoded once already, and decoding is a pure function of the line"
)]
fn decode(raw: &&str) -> Frame<'static> {
    json::scan(raw)
        .and_then(|v| Frame::take_fields(v.root()))
        .expect("a validated frame line decodes")
}

/// Validation summary returned by [`check_frames`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramesSummary {
    pub segments: usize,
    pub frames: usize,
}

/// One validated record, as [`FrameReader::read_line`] yields it.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A `frames_header`: a segment from this source begins.
    Header(String),
    /// A `frame` of the current segment.
    Frame(Frame<'static>),
}

/// The one validator of `dcat-frames`, fed a line at a time. Enforced per
/// segment: header first, a schema it reads (v1 or v2) and its domain shape,
/// strictly increasing ticks, known state classes, degraded frames carry a
/// known reason. It keeps only its position, so a reader over a growing
/// file (`dcat-top --follow`) costs what was appended.
#[derive(Debug, Clone, Default)]
pub struct FrameReader {
    /// Lines read so far, blank ones included: errors name the line.
    line: usize,
    /// The open segment's schema, once a `frames_header` has opened one.
    schema: Option<&'static str>,
    /// The current segment's last tick.
    last_tick: Option<u64>,
}

impl FrameReader {
    /// Validates the next line of the stream (without its newline):
    /// `None` for a blank line, else the header or the decoded frame.
    pub fn read_line(&mut self, raw: &str) -> Result<Option<Record>, String> {
        self.line += 1;
        let line = self.line;
        if raw.trim().is_empty() {
            return Ok(None);
        }
        let at = |e: String| format!("line {line}: {e}");
        let scanned = json::scan(raw).map_err(at)?;
        let v = scanned.root();
        match v.get("record").and_then(Item::as_str).as_deref() {
            Some("frames_header") => {
                let schema = take::<Cow<str>>(v.get("schema"), "schema").map_err(at)?;
                let Some(&schema) = READ_SCHEMAS.iter().find(|s| **s == schema) else {
                    return Err(format!("line {line}: unsupported frames schema '{schema}'"));
                };
                let source = take::<Cow<str>>(v.get("source"), "source").map_err(at)?;
                self.schema = Some(schema);
                self.last_tick = None;
                Ok(Some(Record::Header(source.into_owned())))
            }
            Some("frame") => {
                let Some(schema) = self.schema else {
                    return Err(format!("line {line}: frame before any frames_header"));
                };
                // The segment's schema decides a domain's shape.
                let arrays = schema == FRAMES_SCHEMA;
                let domains = v.get("domains").filter(|d| d.is_array());
                if domains.is_some_and(|ds| ds.children().any(|(_, d)| d.is_array() != arrays)) {
                    let shape = if arrays { "an array" } else { "an object" };
                    return Err(format!("line {line}: {schema} writes a domain as {shape}"));
                }
                let frame = Frame::take_fields(v).map_err(at)?;
                if frame.degraded && frame.reason.is_none() {
                    return Err(format!("line {line}: degraded frame without a reason"));
                }
                if let Some(prev) = self.last_tick {
                    if frame.tick <= prev {
                        return Err(format!(
                            "line {line}: tick {} is not greater than previous tick {prev}",
                            frame.tick
                        ));
                    }
                }
                self.last_tick = Some(frame.tick);
                Ok(Some(Record::Frame(frame)))
            }
            Some(other) => Err(format!("line {line}: unknown record kind '{other}'")),
            None => Err(format!("line {line}: missing 'record' field")),
        }
    }
}

/// Runs a [`FrameReader`] over every line of a whole stream, handing each
/// record and the line it came from to `visit`; a stream must open at
/// least one segment.
pub fn read_stream<'a>(
    text: &'a str,
    mut visit: impl FnMut(&'a str, Record),
) -> Result<(), String> {
    let mut reader = FrameReader::default();
    for raw in text.lines() {
        if let Some(record) = reader.read_line(raw)? {
            visit(raw, record);
        }
    }
    if reader.schema.is_some() {
        Ok(())
    } else {
        Err("stream has no frames_header record".to_string())
    }
}

/// Parse and validate a `dcat-frames` stream into its segments, each
/// holding its frames' lines rather than decoded frames.
pub fn parse_stream(text: &str) -> Result<Vec<Segment<'_>>, String> {
    let mut segments: Vec<Segment<'_>> = Vec::new();
    read_stream(text, |raw, record| match record {
        Record::Header(source) => segments.push(Segment {
            source,
            frames: Frames::default(),
        }),
        Record::Frame(_) => {
            if let Some(seg) = segments.last_mut() {
                seg.frames.lines.push(raw);
            }
        }
    })?;
    Ok(segments)
}

/// Validate a frame stream and count it.
pub fn check_frames(text: &str) -> Result<FramesSummary, String> {
    let mut summary = FramesSummary {
        segments: 0,
        frames: 0,
    };
    read_stream(text, |_, record| match record {
        Record::Header(_) => summary.segments += 1,
        Record::Frame(_) => summary.frames += 1,
    })?;
    Ok(summary)
}

/// One tick of a parsed flight-recorder dump, summarized for replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightTick {
    pub tick: u64,
    pub degraded: bool,
    pub spans: usize,
    /// Event summaries: the event name plus its domain or reason when one
    /// is present (e.g. `domain_quarantined(vm3)`).
    pub events: Vec<String>,
}

fn event_summary(v: Item<'_, '_>) -> String {
    let name = v.get("event").and_then(Item::as_str);
    let name = name.as_deref().unwrap_or("event");
    let detail = v.get("domain").or_else(|| v.get("reason"));
    match detail.and_then(Item::as_str) {
        Some(d) => format!("{name}({d})"),
        None => name.to_string(),
    }
}

/// The elements of the array member `key`.
fn array<'s, 'a>(v: Item<'s, 'a>, key: &str) -> Result<impl Iterator<Item = Item<'s, 'a>>, String> {
    match v.get(key) {
        Some(list) if list.is_array() => Ok(list.children().map(|(_, item)| item)),
        Some(_) => Err(format!("field '{key}' is not an array")),
        None => Err(format!("missing field '{key}'")),
    }
}

/// Parse and validate a `dcat-flight/v1` recorder dump: a `flight_header`
/// carrying the schema field first, then tick records with strictly
/// increasing ticks. Headerless or unknown-version dumps are rejected —
/// the contract behind `dcat-top --replay` of a dump.
pub fn parse_flight(text: &str) -> Result<Vec<FlightTick>, String> {
    let mut ticks: Vec<FlightTick> = Vec::new();
    let mut saw_header = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {line}: {e}");
        let scanned = json::scan(raw).map_err(at)?;
        let v = scanned.root();
        if !saw_header {
            if v.get("record").and_then(Item::as_str).as_deref() != Some("flight_header") {
                return Err(format!(
                    "line {line}: flight dump does not start with a flight_header (headerless pre-v1 dump?)"
                ));
            }
            let schema = v.get("schema").and_then(Item::as_str).ok_or_else(|| {
                format!("line {line}: flight_header has no schema field (pre-v1 dump)")
            })?;
            if schema != FLIGHT_SCHEMA {
                return Err(format!("line {line}: unsupported flight schema '{schema}'"));
            }
            saw_header = true;
            continue;
        }
        let tick = take::<u64>(v.get("tick"), "tick").map_err(at)?;
        if let Some(prev) = ticks.last() {
            if tick <= prev.tick {
                return Err(format!(
                    "line {line}: tick {tick} is not greater than previous tick {}",
                    prev.tick
                ));
            }
        }
        ticks.push(FlightTick {
            tick,
            spans: array(v, "spans").map_err(at)?.count(),
            events: array(v, "events").map_err(at)?.map(event_summary).collect(),
            degraded: take::<bool>(v.get("degraded"), "degraded").map_err(at)?,
        });
    }
    if !saw_header {
        return Err("flight dump is empty (no flight_header)".to_string());
    }
    Ok(ticks)
}

/// Validate a flight dump and return the number of tick records.
pub fn check_flight(text: &str) -> Result<usize, String> {
    parse_flight(text).map(|ticks| ticks.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain(name: &str, ways: u32) -> DomainFrame<'static> {
        DomainFrame {
            name: Cow::Owned(name.to_string()),
            class: "Keeper",
            ways,
            cbm: Some(0xf0),
            ipc: 1.25,
            norm_ipc: Some(1.01),
            miss_rate: 0.02,
            baseline_ipc: Some(1.23),
            quarantined: false,
            held: false,
        }
    }

    fn frame(tick: u64, ways: &[u32]) -> Frame<'static> {
        Frame {
            tick,
            policy: Cow::Borrowed("dcat"),
            degraded: false,
            reason: None,
            ways_moved: 0,
            events: 0,
            ext: PolicyExt {
                cos: ways.len() as u32,
                ..PolicyExt::default()
            },
            domains: ways
                .iter()
                .enumerate()
                .map(|(i, &w)| domain(&format!("vm{i}"), w))
                .collect(),
        }
    }

    #[test]
    fn writer_emits_header_then_frames_and_computes_ways_moved() {
        let mut w = FrameWriter::new("scenario:dcat");
        let l1 = w.push(frame(1, &[4, 4])).to_string();
        let l2 = w.push(frame(2, &[6, 2])).to_string();
        assert!(l1.ends_with('\n') && l2.ends_with('\n'));
        assert_eq!(w.buffer(), format!("{}{l1}{l2}", w.header()));
        let segs = parse_stream(w.buffer()).expect("writer output validates");
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].source, "scenario:dcat");
        // First frame of a segment moves nothing; the second moved
        // |6-4| + |2-4| = 4 ways.
        let moved: Vec<u32> = segs[0].frames.iter().map(|f| f.ways_moved).collect();
        assert_eq!(moved, [0, 4]);
        assert_eq!(segs[0].frames.last(), segs[0].frames.get(1));
        assert_eq!(w.header(), format!("{}\n", header_line("scenario:dcat")));
    }

    #[test]
    fn fully_populated_frame_round_trips() {
        let mut f = frame(9, &[3]);
        f.degraded = true;
        f.reason = Some("resctrl");
        f.events = 2;
        f.ways_moved = 1;
        f.ext.lfoc = Some(LfocExt {
            clusters: 3,
            insensitive: 5,
        });
        f.ext.memshare = Some(MemshareExt {
            lent: 4,
            credit_min: -7,
            credit_max: 12,
        });
        f.domains[0].quarantined = true;
        f.domains[0].held = true;
        f.domains[0].cbm = None;
        f.domains[0].norm_ipc = None;
        let line = encode_frame(&f);
        assert_eq!(decode(&line.as_str()), f);
    }

    record! {
        /// A frame grown by one field of each mode, as a new field joins
        /// the format: one line of the declaration each.
        #[derive(Debug, Clone, PartialEq)]
        pub struct Grown<'a> {
            frame: Frame<'a> = flatten,
            rule: u32 = required "rule",
            cause: Option<Cow<'a, str>> = null "cause",
            credit: Option<i64> = omitted "credit",
        }
    }

    #[test]
    fn a_new_field_of_each_mode_is_one_line_of_the_declaration() {
        let mut grown = Grown {
            frame: frame(9, &[3, 5]),
            rule: 7,
            cause: None,
            credit: None,
        };
        for _ in 0..2 {
            let mut line = String::from("{\"record\":\"frame\"");
            grown.put_fields(&mut line, &mut false);
            line.push('}');
            let scanned = json::scan(&line).expect("the grown line is JSON");
            assert_eq!(Grown::take_fields(scanned.root()).as_ref(), Ok(&grown));
            // A reader that predates the fields skips them.
            let mut reader = FrameReader::default();
            reader.read_line(&header_line("grown")).expect("header");
            let read = reader.read_line(&line).expect("the grown line validates");
            assert_eq!(read, Some(Record::Frame(grown.frame.clone())));
            if grown.cause.is_none() {
                assert!(line.ends_with(r#","rule":7,"cause":null}"#), "{line}");
            } else {
                assert!(
                    line.ends_with(r#","rule":7,"cause":"x","credit":-2}"#),
                    "{line}"
                );
            }
            grown.cause = Some("x".into());
            grown.credit = Some(-2);
        }
    }

    record! {
        /// A positional record, and the same record grown by a field.
        #[derive(Debug, Clone, PartialEq)]
        pub struct Slot as positional {
            ways: u32 = required "ways",
        }

        #[derive(Debug, Clone, PartialEq)]
        pub struct GrownSlot as positional {
            ways: u32 = required "ways",
            rule: Option<u32> = null "rule",
        }
    }

    #[test]
    fn a_positional_record_grows_by_a_trailing_option() {
        let read = |text: &str| {
            let scanned = json::scan(text).expect("JSON");
            (
                Slot::take(scanned.root(), "slot"),
                GrownSlot::take(scanned.root(), "slot"),
            )
        };
        let grown = GrownSlot {
            ways: 3,
            rule: Some(7),
        };
        let mut line = String::new();
        GrownSlot::put(&grown, &mut line);
        assert_eq!(line, "[3,7]");
        // A reader that predates the field skips its element.
        assert_eq!(read(&line), (Ok(Slot { ways: 3 }), Ok(grown)));
        // A line that predates it reads `None` for it.
        let old = GrownSlot {
            ways: 3,
            rule: None,
        };
        assert_eq!(read("[3]"), (Ok(Slot { ways: 3 }), Ok(old.clone())));
        line.clear();
        GrownSlot::put(&old, &mut line);
        assert_eq!(line, "[3,null]");
        // By key, as v1 wrote records.
        assert_eq!(read(r#"{"ways":3}"#).1, Ok(old));
        assert_eq!(read("[]").1, Err("missing field 'ways'".to_string()));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let mut f = frame(1, &[2]);
        f.domains[0].ipc = f64::NAN;
        f.domains[0].norm_ipc = Some(f64::INFINITY);
        let line = encode_frame(&f);
        // ipc and norm_ipc hold positions 5 and 6 of the domain's array.
        let domain = r#"["vm0","Keeper",2,240,null,null,0.02,1.23,false,false]"#;
        assert!(line.contains(domain), "{line}");
        json::parse(&line).expect("null ipc still parses");
    }

    #[test]
    fn concatenated_segments_validate_and_reset_tick_monotonicity() {
        let mut a = FrameWriter::new("scenario:a");
        a.push(frame(1, &[4]));
        a.push(frame(2, &[4]));
        let mut b = FrameWriter::new("scenario:b");
        b.push(frame(1, &[4]));
        let text = format!("{}{}", a.buffer(), b.buffer());
        let summary = check_frames(&text).expect("two segments validate");
        assert_eq!(
            summary,
            FramesSummary {
                segments: 2,
                frames: 3
            }
        );
        let segs = parse_stream(&text).expect("two segments validate");
        let shape: Vec<(&str, usize)> = segs
            .iter()
            .map(|s| (s.source.as_str(), s.frames.len()))
            .collect();
        assert_eq!(shape, [("scenario:a", 2), ("scenario:b", 1)]);
    }

    #[test]
    fn reader_yields_records_and_counts_blank_lines() {
        let mut w = FrameWriter::new("x");
        w.push(frame(1, &[4]));
        let text = w.into_string();
        let mut lines = text.lines();
        let mut r = FrameReader::default();
        let header = r.read_line(lines.next().unwrap());
        assert_eq!(header, Ok(Some(Record::Header("x".to_string()))));
        assert_eq!(r.read_line("  "), Ok(None));
        let decoded = r.read_line(lines.next().unwrap());
        assert_eq!(decoded, Ok(Some(Record::Frame(frame(1, &[4])))));
        let err = r.read_line("{}").unwrap_err();
        assert_eq!(err, "line 4: missing 'record' field");
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        // Headerless.
        let bare = encode_frame(&frame(1, &[4]));
        assert!(parse_stream(&bare).unwrap_err().contains("frames_header"));
        // Unknown schema version.
        let bad = "{\"record\":\"frames_header\",\"schema\":\"dcat-frames/v9\",\"source\":\"x\"}";
        assert!(parse_stream(bad).unwrap_err().contains("unsupported"));
        // Non-monotonic ticks.
        let mut w = FrameWriter::new("x");
        w.push(frame(2, &[4]));
        w.push(frame(2, &[4]));
        assert!(parse_stream(w.buffer())
            .unwrap_err()
            .contains("not greater"));
        // Unknown state class.
        let mut w = FrameWriter::new("x");
        let mut f = frame(1, &[4]);
        f.domains[0].class = "Sleeper";
        w.push(f);
        assert!(parse_stream(w.buffer())
            .unwrap_err()
            .contains("unknown state class"));
        // Degraded without a reason.
        let mut w = FrameWriter::new("x");
        let mut f = frame(1, &[4]);
        f.degraded = true;
        w.push(f);
        assert!(parse_stream(w.buffer())
            .unwrap_err()
            .contains("without a reason"));
        // Empty input.
        assert!(check_frames("").is_err());
    }

    #[test]
    fn flight_validator_requires_versioned_header() {
        let good = "{\"record\":\"flight_header\",\"schema\":\"dcat-flight/v1\",\"capacity\":4,\"retained\":1,\"dropped\":0}\n\
                    {\"tick\":3,\"degraded\":false,\"spans\":[],\"events\":[{\"event\":\"domain_quarantined\",\"domain\":\"vm3\",\"after_ticks\":5}]}\n";
        let ticks = parse_flight(good).expect("v1 dump validates");
        assert_eq!(ticks.len(), 1);
        assert_eq!(ticks[0].events, vec!["domain_quarantined(vm3)".to_string()]);

        let headerless = "{\"tick\":3,\"degraded\":false,\"spans\":[],\"events\":[]}\n";
        assert!(check_flight(headerless).unwrap_err().contains("headerless"));

        let unversioned =
            "{\"record\":\"flight_header\",\"capacity\":4,\"retained\":0,\"dropped\":0}\n";
        assert!(check_flight(unversioned).unwrap_err().contains("schema"));

        let wrong =
            "{\"record\":\"flight_header\",\"schema\":\"dcat-flight/v2\",\"capacity\":4,\"retained\":0,\"dropped\":0}\n";
        assert!(check_flight(wrong).unwrap_err().contains("unsupported"));

        let regressing = format!(
            "{}\n{}\n{}\n",
            "{\"record\":\"flight_header\",\"schema\":\"dcat-flight/v1\",\"capacity\":4,\"retained\":2,\"dropped\":0}",
            "{\"tick\":5,\"degraded\":false,\"spans\":[],\"events\":[]}",
            "{\"tick\":4,\"degraded\":false,\"spans\":[],\"events\":[]}",
        );
        assert!(check_flight(&regressing)
            .unwrap_err()
            .contains("not greater"));
    }
}
