//! dcat-top: terminal rendering for the `dcat-frames` stream, and the
//! one reader of every artifact a dCat run writes.
//!
//! The `dcat-top` binary is the operator's live view of a dCat run: it
//! follows the frame stream a daemon writes (`dcatd --frames-out`) or
//! replays a recorded stream, flight dump or Prometheus metrics export
//! after the fact. Everything here renders to `String`s — the binary
//! decides where the bytes go — so the headless output can be byte-diffed
//! in CI against a golden snapshot, and the interactive mode is just the
//! same table with ANSI color and a screen clear in front.
//!
//! Parsing and validation live in `dcat_obs` ([`FrameReader`],
//! [`parse_flight`], [`check_prometheus`]); this crate never re-interprets
//! a schema, so replay is the validator: what it renders is exactly what
//! they accept, and what they reject it reports as an error.

// Library code does not print; bins, tests and benches are other targets and
// own their stdio (DESIGN.md §12).
#![deny(clippy::print_stdout, clippy::print_stderr)]

use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom};
use std::path::Path;

use dcat_obs::check_prometheus;
use dcat_obs::frames::{parse_flight, read_stream, DomainFrame, Frame, FrameReader, Record};
use dcat_obs::json;

/// How to paint the dashboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderOptions {
    /// ANSI color and emphasis. Off in `--headless` mode, where output
    /// must be byte-stable for CI diffing.
    pub color: bool,
}

impl RenderOptions {
    /// Plain-text mode: no escape codes anywhere in the output.
    pub fn headless() -> Self {
        RenderOptions { color: false }
    }

    /// Interactive mode: color by state class, highlight anomalies.
    pub fn interactive() -> Self {
        RenderOptions { color: true }
    }
}

/// SGR-paint `s` when color is on; identity otherwise. Padding happens
/// before painting so escape codes never disturb column widths.
fn paint(s: &str, code: &str, color: bool) -> String {
    if color {
        format!("\x1b[{code}m{s}\x1b[0m")
    } else {
        s.to_string()
    }
}

/// Color code for a state-machine class (the Figure-6 palette).
fn class_code(class: &str) -> &'static str {
    match class {
        "Keeper" => "32",    // green: holding its baseline
        "Donor" => "36",     // cyan: giving ways back
        "Receiver" => "33",  // yellow: growing
        "Streaming" => "35", // magenta: capped
        "Reclaim" => "31",   // red: under its contract
        _ => "2",            // dim: Unknown
    }
}

fn fmt_opt_f64(v: Option<f64>, prec: usize) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.prec$}"),
        _ => "-".to_string(),
    }
}

fn fmt_cbm(cbm: Option<u64>) -> String {
    cbm.map_or_else(|| "-".to_string(), |c| format!("0x{c:x}"))
}

fn domain_flags(d: &DomainFrame) -> String {
    let mut flags = Vec::new();
    if d.quarantined {
        flags.push("QUAR");
    }
    if d.held {
        flags.push("HELD");
    }
    if flags.is_empty() {
        "-".to_string()
    } else {
        flags.join("+")
    }
}

/// Occupancy bar: one `#` per way granted (the at-a-glance column).
fn ways_bar(ways: u32) -> String {
    "#".repeat(ways.min(32) as usize)
}

/// The one-line per-tick summary above the domain table: tick, policy,
/// COS pressure, allocation churn, event count, the policy-specific
/// extension, and the degraded flag when set.
fn status_line(f: &Frame, opts: &RenderOptions) -> String {
    let mut line = format!(
        "tick {:>4}  policy {}  cos {}  ways_moved {}  events {}",
        f.tick, f.policy, f.ext.cos, f.ways_moved, f.events
    );
    if let Some(l) = f.ext.lfoc {
        line.push_str(&format!(
            "  lfoc[clusters={} insensitive={}]",
            l.clusters, l.insensitive
        ));
    }
    if let Some(m) = f.ext.memshare {
        line.push_str(&format!(
            "  memshare[lent={} credit={}..{}]",
            m.lent, m.credit_min, m.credit_max
        ));
    }
    if f.degraded {
        let reason = f.reason.unwrap_or("unknown");
        line.push_str("  ");
        line.push_str(&paint(&format!("DEGRADED({reason})"), "1;31", opts.color));
    }
    line
}

/// Renders one frame as the full dashboard table (status line, column
/// header, one row per domain). Pure: the same frame always renders the
/// same bytes for the same options — the property the CI golden diff and
/// the `--jobs` byte-identity regression lean on.
pub fn render_frame(f: &Frame, opts: &RenderOptions) -> String {
    let name_w = f
        .domains
        .iter()
        .map(|d| d.name.len())
        .chain(std::iter::once("DOMAIN".len()))
        .max()
        .unwrap_or(6);
    let mut out = status_line(f, opts);
    out.push('\n');
    out.push_str(&paint(
        &format!(
            "{:<name_w$}  {:<9}  {:>4}  {:>8}  {:>7}  {:>6}  {:>6}  {:<9}  OCCUPANCY",
            "DOMAIN", "CLASS", "WAYS", "CBM", "IPC", "NORM", "MISS%", "FLAGS"
        ),
        "4",
        opts.color,
    ));
    out.push('\n');
    for d in &f.domains {
        let class = paint(&format!("{:<9}", d.class), class_code(d.class), opts.color);
        let flags = domain_flags(d);
        let flags = if d.quarantined {
            paint(&format!("{flags:<9}"), "1;31", opts.color)
        } else {
            format!("{flags:<9}")
        };
        out.push_str(&format!(
            "{:<name_w$}  {class}  {:>4}  {:>8}  {:>7}  {:>6}  {:>6}  {flags}  {}\n",
            d.name,
            d.ways,
            fmt_cbm(d.cbm),
            fmt_opt_f64(Some(d.ipc), 3),
            fmt_opt_f64(d.norm_ipc, 2),
            fmt_opt_f64(Some(d.miss_rate * 100.0), 2),
            ways_bar(d.ways),
        ));
    }
    out
}

/// Renders a whole `dcat-frames` stream, segment by segment, frame by
/// frame — the `--replay` path. One pass: each frame is decoded once and
/// rendered onto the end of the output, and a segment's banner, which
/// carries its frame count, goes in front of its frames when it closes.
/// Returns the validator's error verbatim on a malformed stream.
///
/// # Errors
///
/// Anything [`read_stream`] rejects: headerless streams, unknown schema
/// versions, non-monotonic ticks, unknown state classes, degraded frames
/// without a reason.
pub fn render_stream(text: &str, opts: &RenderOptions) -> Result<String, String> {
    /// The open segment: its source, where its frames start in the
    /// output, and how many there are.
    struct Open {
        source: String,
        start: usize,
        frames: usize,
    }
    let close = |out: &mut String, seg: Open| {
        let mut banner = paint(
            &format!("=== {} ({} frames) ===", seg.source, seg.frames),
            "1",
            opts.color,
        );
        banner.push('\n');
        out.insert_str(seg.start, &banner);
    };
    let mut out = String::new();
    let mut open: Option<Open> = None;
    read_stream(text, |_, record| match record {
        Record::Header(source) => {
            if let Some(seg) = open.take() {
                close(&mut out, seg);
            }
            open = Some(Open {
                source,
                start: out.len(),
                frames: 0,
            });
        }
        Record::Frame(f) => {
            out.push_str(&render_frame(&f, opts));
            out.push('\n');
            if let Some(seg) = open.as_mut() {
                seg.frames += 1;
            }
        }
    })?;
    if let Some(seg) = open {
        close(&mut out, seg);
    }
    Ok(out)
}

/// Follows a frame stream a running producer appends to (`dcatd
/// --frames-out`): each [`Follow::poll`] reads only the bytes past the
/// last one and validates them through one long-lived [`FrameReader`], so
/// a poll costs what was appended, not what the file holds.
#[derive(Debug, Default)]
pub struct Follow {
    reader: FrameReader,
    /// Bytes of the file consumed so far, `partial` included.
    offset: u64,
    /// The last line read, until its newline arrives.
    partial: Vec<u8>,
}

impl Follow {
    /// Reads what was appended to `path` since the last poll and returns
    /// its complete frames, in order. A file shorter than what was read
    /// is a producer that restarted onto the same path: the stream is
    /// read again from its first byte.
    ///
    /// # Errors
    ///
    /// I/O errors on `path`, and anything [`FrameReader`] rejects.
    pub fn poll(&mut self, path: &Path) -> Result<Vec<Frame<'static>>, String> {
        let shown = path.display();
        let mut file = File::open(path).map_err(|e| format!("opening {shown}: {e}"))?;
        let len = file
            .metadata()
            .map_err(|e| format!("reading {shown}: {e}"))?
            .len();
        if len < self.offset {
            *self = Follow::default();
        }
        let appended = file
            .seek(SeekFrom::Start(self.offset))
            .and_then(|_| file.read_to_end(&mut self.partial))
            .map_err(|e| format!("reading {shown}: {e}"))?;
        self.offset += appended as u64;
        self.feed()
    }

    /// Validates every complete line in `partial` and keeps the rest.
    fn feed(&mut self) -> Result<Vec<Frame<'static>>, String> {
        let Some(end) = self.partial.iter().rposition(|&b| b == b'\n') else {
            return Ok(Vec::new());
        };
        let rest = self.partial.split_off(end + 1);
        let complete = std::mem::replace(&mut self.partial, rest);
        let text =
            std::str::from_utf8(&complete).map_err(|e| format!("stream is not UTF-8: {e}"))?;
        let mut frames = Vec::new();
        for raw in text.lines() {
            if let Some(Record::Frame(f)) = self.reader.read_line(raw)? {
                frames.push(f);
            }
        }
        Ok(frames)
    }
}

/// Renders a `dcat-flight/v1` recorder dump as a per-tick event timeline —
/// the `--replay` fallback for anomaly-window dumps, which carry spans and
/// events rather than full frames.
///
/// # Errors
///
/// Anything [`parse_flight`] rejects, including headerless pre-v1 dumps.
pub(crate) fn render_flight(text: &str, opts: &RenderOptions) -> Result<String, String> {
    let ticks = parse_flight(text)?;
    let mut out = String::new();
    out.push_str(&paint(
        &format!("=== flight recorder ({} ticks) ===", ticks.len()),
        "1",
        opts.color,
    ));
    out.push('\n');
    for t in &ticks {
        let mut line = format!("tick {:>4}  spans {:>2}", t.tick, t.spans);
        if t.degraded {
            line.push_str("  ");
            line.push_str(&paint("DEGRADED", "1;31", opts.color));
        }
        if !t.events.is_empty() {
            line.push_str("  events: ");
            line.push_str(&t.events.join(", "));
        }
        out.push_str(&line);
        out.push('\n');
    }
    Ok(out)
}

/// Renders Prometheus text (`--metrics-out`) as a summary: its family and
/// sample counts, then one line per family with its count of sample lines.
///
/// # Errors
///
/// Anything [`check_prometheus`] rejects.
pub(crate) fn render_prometheus(text: &str, opts: &RenderOptions) -> Result<String, String> {
    let summary = check_prometheus(text)?;
    // The validator put a `# TYPE` line before every sample.
    let mut families: Vec<(&str, usize)> = Vec::new();
    for line in text.lines().map(str::trim_end) {
        if let Some(family) = line.strip_prefix("# TYPE ") {
            families.push((family, 0));
        } else if !line.is_empty() && !line.starts_with('#') {
            if let Some((_, samples)) = families.last_mut() {
                *samples += 1;
            }
        }
    }
    let banner = format!(
        "=== prometheus text ({} families, {} samples) ===",
        summary.families, summary.samples
    );
    let mut out = paint(&banner, "1", opts.color);
    out.push('\n');
    for (family, samples) in families {
        out.push_str(&format!("  {family:<40} {samples} samples\n"));
    }
    Ok(out)
}

/// What replay input is, from its first non-empty line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// `dcat-frames` (a `frames_header` / `frame` record first).
    Frames,
    /// `dcat-flight/v1` (a `flight_header` record first).
    Flight,
    /// A first line that does not start with `{`: a metrics export.
    Prometheus,
    /// Anything else — no input, or a record of no known kind.
    Unknown,
}

/// Sniffs which renderer applies to `text`: the `record` member of its
/// first non-empty line, read with the JSON grammar the validators use,
/// or Prometheus text when that line is not a JSON object.
pub fn classify(text: &str) -> StreamKind {
    let Some(first) = text.lines().map(str::trim).find(|l| !l.is_empty()) else {
        return StreamKind::Unknown;
    };
    if !first.starts_with('{') {
        return StreamKind::Prometheus;
    }
    let Ok(doc) = json::scan(first) else {
        return StreamKind::Unknown;
    };
    let record = doc.root().get("record").and_then(json::Item::as_str);
    match record.as_deref() {
        Some("frames_header" | "frame") => StreamKind::Frames,
        Some("flight_header") => StreamKind::Flight,
        _ => StreamKind::Unknown,
    }
}

const UNKNOWN_INPUT: &str = "input is not a dcat-frames stream, a dcat-flight/v1 dump or \
     Prometheus text: its first record names no frames_header or flight_header";

/// Renders replay input of any kind [`classify`] knows.
///
/// # Errors
///
/// Unknown input kinds and anything the schema validators reject.
pub fn render_replay(text: &str, opts: &RenderOptions) -> Result<String, String> {
    match classify(text) {
        StreamKind::Frames => render_stream(text, opts),
        StreamKind::Flight => render_flight(text, opts),
        StreamKind::Prometheus => render_prometheus(text, opts),
        StreamKind::Unknown => Err(UNKNOWN_INPUT.to_string()),
    }
}

/// ANSI sequence the live mode prints before each redraw: cursor home +
/// clear to end of screen (not the scrollback-destroying full reset).
pub const CLEAR_SCREEN: &str = "\x1b[H\x1b[J";

#[cfg(test)]
mod tests {
    use super::*;
    use dcat_obs::frames::{FrameWriter, LfocExt, MemshareExt, PolicyExt};
    use std::io::Write as _;
    use std::path::PathBuf;

    fn sample_frame() -> Frame<'static> {
        Frame {
            tick: 7,
            policy: "dcat".into(),
            degraded: true,
            reason: Some("telemetry"),
            ways_moved: 3,
            events: 2,
            ext: PolicyExt {
                cos: 2,
                lfoc: Some(LfocExt {
                    clusters: 2,
                    insensitive: 1,
                }),
                memshare: Some(MemshareExt {
                    lent: 4,
                    credit_min: -7,
                    credit_max: 12,
                }),
            },
            domains: vec![
                DomainFrame {
                    name: "tenant".into(),
                    class: "Receiver",
                    ways: 5,
                    cbm: Some(0x1f),
                    ipc: 1.234,
                    norm_ipc: Some(0.98),
                    miss_rate: 0.0321,
                    baseline_ipc: Some(1.26),
                    quarantined: true,
                    held: true,
                },
                DomainFrame {
                    name: "lookbusy-0".into(),
                    class: "Donor",
                    ways: 1,
                    cbm: None,
                    ipc: 0.5,
                    norm_ipc: None,
                    miss_rate: f64::NAN,
                    baseline_ipc: None,
                    quarantined: false,
                    held: false,
                },
            ],
        }
    }

    #[test]
    fn headless_render_is_plain_and_complete() {
        let out = render_frame(&sample_frame(), &RenderOptions::headless());
        assert!(!out.contains('\x1b'), "headless output has no ANSI codes");
        assert!(out.contains("tick    7"));
        assert!(out.contains("DEGRADED(telemetry)"));
        assert!(out.contains("lfoc[clusters=2 insensitive=1]"));
        assert!(out.contains("memshare[lent=4 credit=-7..12]"));
        assert!(out.contains("Receiver"));
        assert!(out.contains("0x1f"));
        assert!(out.contains("QUAR+HELD"));
        assert!(out.contains("#####"), "occupancy bar tracks ways");
        assert!(out.contains("1.234"));
        // NaN miss rate renders as the absent marker, not "NaN".
        assert!(!out.contains("NaN"));
    }

    #[test]
    fn interactive_render_paints_and_strips_to_headless() {
        let color = render_frame(&sample_frame(), &RenderOptions::interactive());
        assert!(color.contains("\x1b[33m"), "Receiver row is painted");
        assert!(color.contains("\x1b[1;31m"), "anomalies are highlighted");
        // Stripping the escapes recovers the headless bytes exactly —
        // color is presentation-only.
        let mut stripped = String::new();
        let mut rest = color.as_str();
        while let Some(start) = rest.find('\x1b') {
            stripped.push_str(&rest[..start]);
            let tail = &rest[start..];
            let end = tail.find('m').expect("escape terminates") + 1;
            rest = &tail[end..];
        }
        stripped.push_str(rest);
        assert_eq!(
            stripped,
            render_frame(&sample_frame(), &RenderOptions::headless())
        );
    }

    #[test]
    fn replay_renders_streams_and_flight_dumps() {
        let mut w = FrameWriter::new("scenario:dcat");
        let mut f = sample_frame();
        f.degraded = false;
        f.reason = None;
        // The stream validator requires numeric miss rates; the NaN in the
        // fixture exists to exercise the renderer, not the encoder.
        f.domains[1].miss_rate = 0.0;
        w.push(f);
        let text = w.into_string();
        assert_eq!(classify(&text), StreamKind::Frames);
        let out = render_replay(&text, &RenderOptions::headless()).expect("stream renders");
        assert!(out.contains("=== scenario:dcat (1 frames) ==="));
        assert!(out.contains("tenant"));

        let flight = "{\"record\":\"flight_header\",\"schema\":\"dcat-flight/v1\",\"capacity\":4,\"retained\":1,\"dropped\":0}\n\
                      {\"tick\":3,\"degraded\":true,\"spans\":[{}],\"events\":[{\"event\":\"domain_quarantined\",\"domain\":\"vm3\"}]}\n";
        assert_eq!(classify(flight), StreamKind::Flight);
        let out = render_replay(flight, &RenderOptions::headless()).expect("flight renders");
        assert!(out.contains("=== flight recorder (1 ticks) ==="));
        assert!(out.contains("DEGRADED"));
        assert!(out.contains("domain_quarantined(vm3)"));

        assert_eq!(classify("{\"record\":\"metric\"}"), StreamKind::Unknown);
        assert!(render_replay("{\"record\":\"metric\"}", &RenderOptions::headless()).is_err());
    }

    #[test]
    fn malformed_streams_surface_the_validator_error() {
        let headerless = "{\"record\":\"frame\",\"tick\":1}";
        let err = render_replay(headerless, &RenderOptions::headless()).unwrap_err();
        assert!(err.contains("frames_header"), "got: {err}");
    }

    /// A one-segment stream from `source` with ticks `1..=frames`.
    fn stream(source: &str, frames: u64) -> String {
        let mut w = FrameWriter::new(source);
        for tick in 1..=frames {
            let mut f = sample_frame();
            f.tick = tick;
            f.domains[0].ways = 1 + (tick % 7) as u32;
            f.domains[1].miss_rate = 0.0;
            w.push(f);
        }
        w.into_string()
    }

    /// A file under the system temp dir, removed on drop.
    struct TempFile(PathBuf);

    impl TempFile {
        fn new(tag: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("dcat-top-{tag}-{}.jsonl", std::process::id()));
            let _ = std::fs::remove_file(&path);
            TempFile(path)
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn follow_reads_each_frame_once_across_split_lines() {
        let text = stream("dcatd", 1000);
        let file = TempFile::new("follow-chunks");
        let mut producer = File::create(&file.0).unwrap();
        let mut follow = Follow::default();
        let mut ticks = Vec::new();
        let mut rendered = String::from("=== dcatd (1000 frames) ===\n");
        // 37 bytes a write: nearly every poll ends inside a line.
        for chunk in text.as_bytes().chunks(37) {
            producer.write_all(chunk).unwrap();
            for f in follow.poll(&file.0).unwrap() {
                ticks.push(f.tick);
                rendered.push_str(&render_frame(&f, &RenderOptions::headless()));
                rendered.push('\n');
            }
        }
        assert_eq!(ticks, (1..=1000).collect::<Vec<u64>>());
        assert_eq!(
            rendered,
            render_stream(&text, &RenderOptions::headless()).unwrap()
        );
    }

    #[test]
    fn follow_starts_over_when_the_producer_restarts() {
        let file = TempFile::new("follow-restart");
        std::fs::write(&file.0, stream("dcatd", 5)).unwrap();
        let mut follow = Follow::default();
        assert_eq!(follow.poll(&file.0).unwrap().len(), 5);
        // The daemon restarts onto the same path: a shorter file holding a
        // header and two frames.
        std::fs::write(&file.0, stream("dcatd", 2)).unwrap();
        let ticks: Vec<u64> = follow
            .poll(&file.0)
            .unwrap()
            .iter()
            .map(|f| f.tick)
            .collect();
        assert_eq!(ticks, [1, 2]);
    }

    /// `stream("dcatd", 2)` as `dcat-frames/v1` spelt it: each domain an
    /// object by key.
    const V1_SEGMENT: &str = concat!(
        r#"{"record":"frames_header","schema":"dcat-frames/v1","source":"dcatd"}"#,
        "\n",
        r#"{"record":"frame","tick":1,"policy":"dcat","degraded":true,"reason":"telemetry","ways_moved":0,"cos":2,"lfoc":{"clusters":2,"insensitive":1},"memshare":{"lent":4,"credit_min":-7,"credit_max":12},"events":2,"domains":[{"name":"tenant","class":"Receiver","ways":2,"cbm":31,"ipc":1.234,"norm_ipc":0.98,"miss_rate":0.0321,"baseline_ipc":1.26,"quarantined":true,"held":true},{"name":"lookbusy-0","class":"Donor","ways":1,"cbm":null,"ipc":0.5,"norm_ipc":null,"miss_rate":0.0,"baseline_ipc":null,"quarantined":false,"held":false}]}"#,
        "\n",
        r#"{"record":"frame","tick":2,"policy":"dcat","degraded":true,"reason":"telemetry","ways_moved":1,"cos":2,"lfoc":{"clusters":2,"insensitive":1},"memshare":{"lent":4,"credit_min":-7,"credit_max":12},"events":2,"domains":[{"name":"tenant","class":"Receiver","ways":3,"cbm":31,"ipc":1.234,"norm_ipc":0.98,"miss_rate":0.0321,"baseline_ipc":1.26,"quarantined":true,"held":true},{"name":"lookbusy-0","class":"Donor","ways":1,"cbm":null,"ipc":0.5,"norm_ipc":null,"miss_rate":0.0,"baseline_ipc":null,"quarantined":false,"held":false}]}"#,
        "\n",
    );

    #[test]
    fn replay_and_follow_read_a_v1_segment_then_a_v2_segment() {
        // A `dcatd` upgraded and restarted into the file it was appending
        // to: the same two ticks, once per schema.
        let v2 = stream("dcatd", 2);
        let text = format!("{V1_SEGMENT}{v2}");
        let opts = RenderOptions::headless();
        let one = render_stream(&v2, &opts).unwrap();
        assert_eq!(render_stream(&text, &opts).unwrap(), one.repeat(2));

        let file = TempFile::new("follow-upgrade");
        std::fs::write(&file.0, V1_SEGMENT).unwrap();
        let mut follow = Follow::default();
        let mut frames = follow.poll(&file.0).unwrap();
        let mut producer = std::fs::OpenOptions::new()
            .append(true)
            .open(&file.0)
            .unwrap();
        producer.write_all(v2.as_bytes()).unwrap();
        frames.extend(follow.poll(&file.0).unwrap());
        let written: Vec<Frame> = dcat_obs::frames::parse_stream(&v2).unwrap()[0]
            .frames
            .iter()
            .collect();
        assert_eq!(frames, [written.clone(), written].concat());
    }
}
