//! Byte oracles for the `dcat-frames` writer and reader.
//!
//! The unit tests in `frames.rs` round-trip through `parse_stream`, so a
//! reordered or re-spelt field would pass them. These tests pin the bytes,
//! both ways:
//!
//! - `tests/golden/frames_v2.jsonl` is what [`FrameWriter`] writes for the
//!   scenario below — field order, number spelling, escapes, and the
//!   `ways_moved` each frame reports against the one before it.
//! - `tests/golden/frames_v1.jsonl` was recorded from the `dcat-frames/v1`
//!   writer, which spelt a domain as an object by key, and is never
//!   regenerated: each of its lines must still read as the scenario frame
//!   it was written from, and re-encoded as v2 read back bit for bit.
//!
//! Regenerate the v2 golden only for a deliberate schema change, never for
//! a performance change:
//!
//! ```sh
//! DCAT_BLESS=1 cargo test -p dcat-obs --test frames_golden
//! ```

use std::path::PathBuf;

use std::fmt::Write as _;

use dcat_obs::frames::{encode_frame, FrameReader, Record};
use dcat_obs::{DomainFrame, Frame, FrameWriter, LfocExt, MemshareExt, PolicyExt};

fn domain(name: &str, ways: u32) -> DomainFrame<'static> {
    DomainFrame {
        name: name.to_string().into(),
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

fn frame(tick: u64, domains: Vec<DomainFrame<'static>>) -> Frame<'static> {
    Frame {
        tick,
        policy: "dcat".into(),
        degraded: false,
        reason: None,
        ways_moved: 0,
        events: 0,
        ext: PolicyExt {
            cos: domains.len() as u32,
            ..PolicyExt::default()
        },
        domains,
    }
}

/// The recorded scenario: every field shape the encoder has, then a
/// domain list that grows, shrinks, reorders and repeats a name.
fn scenario() -> Vec<Frame<'static>> {
    let mut frames = Vec::new();

    // Fully populated: both policy extensions, a reason, every optional.
    let mut full = frame(1, vec![domain("vm0", 4), domain("vm1", 6)]);
    full.policy = "lfoc+memshare".into();
    full.degraded = true;
    full.reason = Some("resctrl");
    full.events = 3;
    full.ext = PolicyExt {
        cos: 3,
        lfoc: Some(LfocExt {
            clusters: 2,
            insensitive: 5,
        }),
        memshare: Some(MemshareExt {
            lent: 4,
            credit_min: i64::MIN,
            credit_max: 12,
        }),
    };
    full.domains[0].class = "Receiver";
    full.domains[0].quarantined = true;
    full.domains[1].class = "Streaming";
    full.domains[1].held = true;
    full.domains[1].cbm = Some(u64::MAX);
    frames.push(full);

    // Every optional absent.
    let mut bare = frame(2, vec![domain("vm0", 5), domain("vm1", 5)]);
    for d in &mut bare.domains {
        d.cbm = None;
        d.norm_ipc = None;
        d.baseline_ipc = None;
    }
    frames.push(bare);

    // Non-finite floats render null, wherever they sit.
    let mut odd = frame(
        3,
        vec![domain("vm0", 5), domain("vm1", 5), domain("vm2", 1)],
    );
    odd.domains[0].ipc = f64::NAN;
    odd.domains[0].miss_rate = f64::INFINITY;
    odd.domains[1].norm_ipc = Some(f64::NAN);
    odd.domains[1].baseline_ipc = Some(f64::NEG_INFINITY);
    odd.domains[2].ipc = f64::NEG_INFINITY;
    frames.push(odd);

    // Float spellings `{:?}` produces: exponents, negative zero, extremes.
    let spellings = [
        0.0,
        -0.0,
        1.0,
        0.1 + 0.2,
        1e-7,
        1e21,
        123456789.125,
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
    ];
    let mut floats = frame(
        4,
        spellings
            .iter()
            .enumerate()
            .map(|(i, _)| domain(&format!("f{i}"), 1))
            .collect(),
    );
    for (d, &v) in floats.domains.iter_mut().zip(&spellings) {
        d.ipc = v;
        d.norm_ipc = Some(-v);
        d.miss_rate = v / 3.0;
        d.baseline_ipc = Some(v * 0.5);
    }
    floats.tick = u64::MAX - 1;
    floats.events = u64::MAX;
    frames.push(floats);

    // Strings needing `\"`, `\\`, the short escapes and `\u00XX`.
    let mut escapes = frame(
        u64::MAX,
        vec![
            domain("vm\"quoted\"", 2),
            domain("back\\slash", 2),
            domain("ctl\u{1}\u{1f}\u{7f}", 2),
            domain("tab\tnl\ncr\r", 2),
            domain("vm-ü-7", 2),
            domain("", 2),
        ],
    );
    escapes.policy = "po\"li\\cy\u{2}".into();
    escapes.domains[0].class = "Cl\"a\\ss\n";
    escapes.degraded = true;
    escapes.reason = Some("tele\"metry\u{0}");
    frames.push(escapes);

    // A degraded frame with a plain reason and no domains at all (the
    // daemon's first tick degrading before any report exists).
    let mut early = frame(1, Vec::new());
    early.degraded = true;
    early.reason = Some("telemetry");
    early.events = 2;
    frames.push(early);

    // The domain list grows, shrinks, reorders and repeats a name; each
    // frame's ways_moved is against the frame before it (unknown name
    // moves nothing, the last duplicate is the one remembered).
    frames.push(frame(2, vec![domain("a", 4), domain("b", 4)]));
    frames.push(frame(3, vec![domain("a", 6), domain("b", 2)]));
    frames.push(frame(
        4,
        vec![domain("a", 6), domain("b", 3), domain("c", 7)],
    ));
    frames.push(frame(
        5,
        vec![domain("c", 1), domain("a", 7), domain("b", 3)],
    ));
    frames.push(frame(6, vec![domain("b", 9)]));
    frames.push(frame(7, vec![domain("a", 1), domain("b", 8)]));
    frames.push(frame(
        8,
        vec![domain("a", 3), domain("a", 5), domain("b", 8)],
    ));
    frames.push(frame(
        9,
        vec![domain("a", 1), domain("a", 9), domain("b", 8)],
    ));
    frames.push(frame(10, vec![domain("a", 2), domain("b", 8)]));
    frames.push(frame(11, vec![domain("a", 2), domain("b", 8)]));
    frames
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

#[test]
fn frame_writer_reproduces_the_recorded_bytes() {
    let mut writer = FrameWriter::new("golden:\"src\\");
    let mut lines = writer.header().to_string();
    for f in scenario() {
        lines.push_str(writer.push(f));
    }
    assert_eq!(
        writer.buffer(),
        lines,
        "the buffer is the header plus every line push returned"
    );

    // A live sink clears the buffer per tick; ways_moved must not notice.
    let mut live = FrameWriter::new("golden:\"src\\");
    let mut streamed = live.header().to_string();
    for f in scenario() {
        live.clear_buffer();
        streamed.push_str(live.push(f));
    }
    assert_eq!(streamed, lines, "clear_buffer keeps the ways_moved state");

    let path = golden_path("frames_v2.jsonl");
    if std::env::var_os("DCAT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, &lines).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); run with DCAT_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        lines,
        expected,
        "frame bytes diverged from {}; the format is frozen",
        path.display()
    );
    assert_eq!(writer.into_string(), expected);
}

/// Every value of `f`, floats as their bits: equal keys are bit-identical
/// frames (`-0.0` is not `0.0`). The destructuring names every field, so a
/// field added to the format cannot go uncompared.
fn bits(f: &Frame<'_>) -> String {
    let Frame {
        tick,
        policy,
        degraded,
        reason,
        ways_moved,
        ext,
        events,
        domains,
    } = f;
    let mut key = format!("{tick} {policy:?} {degraded} {reason:?} {ways_moved} {ext:?} {events}");
    for d in domains {
        let DomainFrame {
            name,
            class,
            ways,
            cbm,
            ipc,
            norm_ipc,
            miss_rate,
            baseline_ipc,
            quarantined,
            held,
        } = d;
        let opt = |v: &Option<f64>| v.map(f64::to_bits);
        let _ = write!(
            key,
            " [{name:?} {class:?} {ways} {cbm:?} {} {:?} {} {:?} {quarantined} {held}]",
            ipc.to_bits(),
            opt(norm_ipc),
            miss_rate.to_bits(),
            opt(baseline_ipc),
        );
    }
    key
}

/// What `line` reads as, alone in a segment of `schema`.
fn read(schema: &str, line: &str) -> Result<Frame<'static>, String> {
    let mut reader = FrameReader::default();
    let header = format!(r#"{{"record":"frames_header","schema":"{schema}","source":"t"}}"#);
    reader.read_line(&header)?;
    match reader.read_line(line)? {
        Some(Record::Frame(f)) => Ok(f),
        other => Err(format!("not a frame: {other:?}")),
    }
}

/// The frame lines of the v1 golden, after checking its header.
fn v1_frame_lines() -> Vec<String> {
    let path = golden_path("frames_v1.jsonl");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e})", path.display()));
    let mut lines = text.lines().map(str::to_string);
    assert_eq!(
        lines.next().as_deref(),
        Some(r#"{"record":"frames_header","schema":"dcat-frames/v1","source":"golden:\"src\\"}"#)
    );
    lines.collect()
}

#[test]
fn v1_golden_lines_read_as_the_frames_they_were_written_from() {
    // The `ways_moved` the v1 writer filled in, frame by frame.
    let moved = [0, 2, 0, 0, 0, 0, 0, 4, 1, 7, 6, 1, 6, 8, 7, 0];
    let lines = v1_frame_lines();
    let frames = scenario();
    assert_eq!(lines.len(), frames.len());
    assert_eq!(moved.len(), frames.len());
    for (i, ((line, mut want), ways_moved)) in lines.iter().zip(frames).zip(moved).enumerate() {
        let got = read("dcat-frames/v1", line);
        // What v1 wrote that no reader takes back: a required float that
        // was not finite, and a reason no daemon renders.
        match i {
            2 => assert_eq!(got, Err("line 2: field 'ipc' is not a number".into())),
            4 => assert_eq!(
                got,
                Err("line 2: unknown degrade reason 'tele\"metry\0'".into())
            ),
            _ => {
                want.ways_moved = ways_moved;
                // A non-finite optional float was written `null`.
                for d in &mut want.domains {
                    d.norm_ipc = d.norm_ipc.filter(|v| v.is_finite());
                    d.baseline_ipc = d.baseline_ipc.filter(|v| v.is_finite());
                }
                let got = got.unwrap_or_else(|e| panic!("frame {i}: {e}"));
                assert_eq!(bits(&got), bits(&want), "frame {i}");
            }
        }
    }
}

#[test]
fn v1_frames_reencoded_as_v2_read_back_bit_identical() {
    let mut read_back = 0;
    for line in v1_frame_lines() {
        let Ok(v1) = read("dcat-frames/v1", &line) else {
            continue;
        };
        let v2 = encode_frame(&v1);
        assert!(v2.len() <= line.len(), "{v2}");
        let again = read(dcat_obs::FRAMES_SCHEMA, &v2).expect("a v2 line reads back");
        assert_eq!(bits(&again), bits(&v1), "{line}\n{v2}");
        read_back += 1;
    }
    assert_eq!(read_back, 14);
}

/// A daemon tick on a host of 12 tenants, with the floats a ratio of two
/// counters gives: 17 significant digits, not `1.25`.
fn daemon_tick() -> Frame<'static> {
    const CLASSES: [&str; 4] = ["Keeper", "Donor", "Receiver", "Streaming"];
    let domains = (0..12u32)
        .map(|i| {
            let n = u64::from(i);
            let ways = 1 + i % 6;
            DomainFrame {
                name: format!("tenant-{i:02}").into(),
                class: CLASSES[i as usize % CLASSES.len()],
                ways,
                cbm: Some(((1u64 << ways) - 1) << (i % 14)),
                ipc: (2_813_331_907 + 97_331 * n) as f64 / (2_300_000_017 - 11_117 * n) as f64,
                norm_ipc: Some((1_013_777 + 3_331 * n) as f64 / 1_000_003.0),
                miss_rate: (12_345_677 + 1_001 * n) as f64 / 1_000_000_007.0,
                baseline_ipc: Some((2_799_999_991 + 13 * n) as f64 / 2_300_000_017.0),
                quarantined: false,
                held: false,
            }
        })
        .collect();
    Frame {
        tick: 4_321,
        policy: "dcat".into(),
        degraded: false,
        reason: None,
        ways_moved: 2,
        events: 1,
        ext: PolicyExt {
            cos: 12,
            ..PolicyExt::default()
        },
        domains,
    }
}

/// Bytes per frame, gated exactly: the frame stream is the largest live
/// structure of a long daemon run, so a format change that grows it must
/// show here, not in a timing tolerance. `dcat-frames/v1`, a domain an
/// object by key, wrote this frame in 2 657 bytes.
#[test]
fn a_daemon_tick_of_12_domains_encodes_to_a_fixed_length() {
    let line = encode_frame(&daemon_tick());
    assert_eq!(line.len(), 1_541, "{line}");
    let back = read(dcat_obs::FRAMES_SCHEMA, &line).expect("the tick reads back");
    assert_eq!(bits(&back), bits(&daemon_tick()));
}
