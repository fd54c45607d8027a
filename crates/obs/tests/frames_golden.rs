//! Byte oracle for the `dcat-frames/v1` encoder.
//!
//! The unit tests in `frames.rs` round-trip through `parse_stream`, so a
//! reordered or re-spelt field would pass them. This test pins the bytes:
//! `tests/golden/frames_v1.jsonl` was recorded from the `Obj`-per-domain
//! encoder before it was replaced, and [`FrameWriter`] must reproduce it
//! exactly — field order, number spelling, escapes, and the `ways_moved`
//! each frame reports against the one before it.
//!
//! The format is frozen; regenerate only for a deliberate schema change,
//! never for a performance change:
//!
//! ```sh
//! DCAT_BLESS=1 cargo test -p dcat-obs --test frames_golden
//! ```

use std::path::PathBuf;

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

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frames_v1.jsonl")
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

    let path = golden_path();
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
