//! What reading a frame stream keeps in memory, measured rather than
//! argued: `parse_stream` keeps each frame as its line (16 B, 32 with the
//! `Vec`'s growth slack) and `check_frames` keeps no frame at all, so
//! neither grows with the frames a stream holds beyond that.
//!
//! Its own test binary with one `#[test]`, because it installs a counting
//! `#[global_allocator]` (the pattern of `crates/dcat/tests/tick_allocations.rs`):
//! every method forwards to [`System`] after updating the live and peak
//! byte counts.

// The workspace denies `unsafe` (root `Cargo.toml`); a counting allocator
// is an `unsafe impl` by the trait's definition.
#![allow(
    unsafe_code,
    reason = "GlobalAlloc is unsafe to implement; every method forwards to System"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dcat_obs::frames::{check_frames, parse_stream};
use dcat_obs::{DomainFrame, Frame, FrameWriter, PolicyExt};

/// Bytes `parse_stream` may keep per frame: one `&str` per line, doubled
/// for the slack a growing `Vec` leaves.
const PER_FRAME: usize = 32;
/// And per segment: its source `String`, its entry in the segment list and
/// the line list's first allocation.
const PER_SEGMENT: usize = 512;
/// How far `check_frames`' peak may move between 1 000 and 8 000 frames.
const PEAK_DRIFT: usize = 16 << 10;
const SEGMENTS: u64 = 4;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only additions are relaxed
// counter updates, which neither allocate nor touch the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// `SEGMENTS` segments of a 12-domain host, `frames` frames in all.
fn stream(frames: u64) -> String {
    let names: Vec<String> = (0..12).map(|i| format!("tenant-{i:02}")).collect();
    let mut text = String::new();
    for seg in 0..SEGMENTS {
        let mut w = FrameWriter::new(&format!("fleet-host:{seg}"));
        for tick in 1..=frames / SEGMENTS {
            w.push(Frame {
                tick,
                policy: "dcat".into(),
                degraded: false,
                reason: None,
                ways_moved: 0,
                events: 0,
                ext: PolicyExt {
                    cos: 12,
                    ..PolicyExt::default()
                },
                domains: (0u32..)
                    .zip(&names)
                    .map(|(i, name)| DomainFrame {
                        name: name.as_str().into(),
                        class: "Keeper",
                        ways: 1 + (i + tick as u32) % 4,
                        cbm: Some(0xf),
                        ipc: 1.234_567 + f64::from(i),
                        norm_ipc: Some(0.987_654),
                        miss_rate: 0.123_456,
                        baseline_ipc: Some(1.111_111),
                        quarantined: false,
                        held: false,
                    })
                    .collect(),
            });
        }
        text.push_str(w.buffer());
    }
    text
}

/// Live bytes `parse_stream`'s result holds, and `check_frames`' peak
/// above what was live before it ran.
fn measure(frames: u64) -> (usize, usize) {
    let text = stream(frames);
    let before = live();
    let segments = parse_stream(&text).unwrap();
    let retained = live() - before;
    let counted: usize = segments.iter().map(|s| s.frames.len()).sum();
    assert_eq!(counted as u64, frames);
    drop(segments);

    let before = live();
    PEAK.store(before, Ordering::Relaxed);
    let summary = check_frames(&text).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(summary.frames as u64, frames);
    (retained, peak)
}

#[test]
fn reading_a_stream_holds_no_decoded_frames() {
    let (retained_1k, peak_1k) = measure(1_000);
    let (retained_8k, peak_8k) = measure(8_000);
    println!(
        "parse_stream keeps {retained_1k} B at 1 000 frames, {retained_8k} B at 8 000; \
         check_frames peaks {peak_1k} B above its input at 1 000, {peak_8k} B at 8 000"
    );
    for (frames, retained) in [(1_000, retained_1k), (8_000, retained_8k)] {
        let bound = PER_FRAME * frames + PER_SEGMENT * SEGMENTS as usize;
        assert!(
            retained <= bound,
            "parse_stream keeps {retained} B for {frames} frames (bound {bound})"
        );
    }
    assert!(
        peak_8k.abs_diff(peak_1k) < PEAK_DRIFT,
        "check_frames' peak grows with the stream: {peak_1k} B → {peak_8k} B"
    );
}
