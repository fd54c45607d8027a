//! Probes: short timed loops over one layer's public functions, run after
//! the traced pass on what that pass captured. They measure what sits
//! inside a call the benchmark cannot open (`Engine::run_epoch`) and the
//! read side of formats the run only writes.

use std::hint::black_box;
use std::time::Instant;

use dcat::perf_table::max_performance_split;
use dcat::DcatController;
use dcat_obs::Snapshot;
use host::{EngineConfig, Pool};
use llc_sim::{FrameAllocator, Hierarchy, HitLevel, PageMapper, SimFidelity, WayMask};
use smallrng::{split_seed, SmallRng};

use crate::meters::Capture;
use crate::stats::median;

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Median over `reps` timings of `f`, in microseconds.
fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            ns_since(t) / 1e3
        })
        .collect();
    median(&samples)
}

/// What replaying captured references into fresh structures measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub translate_ns_per_ref: f64,
    pub access_ns_per_ref: f64,
    /// Pages mapped once every captured reference was translated.
    pub mapped_pages: u64,
}

/// Replays `capture` in slice order into a fresh `FrameAllocator`, one
/// fresh `PageMapper` per VM and a fresh `Hierarchy` of the run's
/// geometry, fidelity and final fill masks. The first half warms the
/// page tables and caches untimed; on the second half `translate_with`
/// and `access` are timed separately.
pub fn replay(
    capture: &Capture,
    cfg: &EngineConfig,
    fidelity: SimFidelity,
    fill_masks: &[WayMask],
    primary_cores: &[u32],
) -> Replay {
    let mut hierarchy = Hierarchy::new(cfg.socket.hierarchy);
    hierarchy.set_fidelity(fidelity);
    for (core, mask) in fill_masks.iter().enumerate() {
        hierarchy.set_fill_mask(core as u32, *mask);
    }
    let mut frames = FrameAllocator::new(cfg.memory_bytes, cfg.frame_policy, cfg.seed);
    // Placement streams are derived as the engine derives them.
    let mut rngs: Vec<SmallRng> = (0..primary_cores.len())
        .map(|vm| SmallRng::seed_from_u64(split_seed(cfg.seed, vm as u64)))
        .collect();
    let mut mappers: Vec<Option<PageMapper>> = primary_cores.iter().map(|_| None).collect();

    let (warm, timed) = capture.refs.split_at(capture.refs.len() / 2);
    let mut translate = |refs: &[(u32, llc_sim::PageSize, workloads::MemRef)]| -> Vec<u64> {
        refs.iter()
            .map(|(vm, page, r)| {
                let vm = *vm as usize;
                mappers[vm]
                    .get_or_insert_with(|| PageMapper::new(*page))
                    .translate_with(r.vaddr, &mut frames, &mut rngs[vm])
                    .expect("the replay pool is the engine's size")
                    .0
            })
            .collect()
    };
    let mut access = |refs: &[(u32, llc_sim::PageSize, workloads::MemRef)], paddrs: &[u64]| {
        let mut dram = 0u64;
        for ((vm, _, r), paddr) in refs.iter().zip(paddrs) {
            let level = hierarchy.access(primary_cores[*vm as usize], *paddr, r.kind);
            dram += u64::from(level == HitLevel::Dram);
        }
        dram
    };

    let paddrs = translate(warm);
    black_box(access(warm, &paddrs));

    let t = Instant::now();
    let paddrs = translate(timed);
    let translate_ns = ns_since(t);
    let t = Instant::now();
    black_box(access(timed, &paddrs));
    let access_ns = ns_since(t);

    let n = timed.len().max(1) as f64;
    Replay {
        translate_ns_per_ref: translate_ns / n,
        access_ns_per_ref: access_ns / n,
        mapped_pages: mappers
            .iter()
            .flatten()
            .map(|m| m.mapped_pages() as u64)
            .sum(),
    }
}

/// `max_performance_split` over the tables `controller` holds now, in
/// microseconds (median of a few calls).
pub fn max_perf_split_us(controller: &DcatController) -> f64 {
    let tables: Vec<_> = (0..controller.num_domains())
        .map(|i| controller.performance_table(i))
        .collect();
    let total_ways = tables.first().map_or(0, |t| t.max_ways());
    median_us(15, || max_performance_split(&tables, total_ways))
}

/// `Pool::map` over `items` no-op items at `jobs` workers, microseconds.
pub fn pool_map_us(jobs: usize, items: usize) -> f64 {
    let pool = Pool::new(jobs);
    median_us(101, || {
        pool.map((0..items).collect::<Vec<usize>>(), |_, x| x)
    })
}

/// Read-side and render costs of the formats a run writes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsProbe {
    pub frame_bytes_per_frame: f64,
    pub parse_stream_us_per_frame: f64,
    pub top_render_us_per_frame: f64,
    pub ways_moved_per_tick: f64,
}

/// Parses and renders the run's own frame stream.
pub fn obs_probe(frames_text: &str) -> Result<ObsProbe, String> {
    let segments = dcat_obs::frames::parse_stream(frames_text)?;
    let frames: u64 = segments.iter().map(|s| s.frames.len() as u64).sum();
    let moved: u64 = segments
        .iter()
        .flat_map(|s| &s.frames)
        .map(|f| u64::from(f.ways_moved))
        .sum();
    let header_bytes: usize = frames_text
        .lines()
        .filter(|l| l.contains("frames_header"))
        .map(|l| l.len() + 1)
        .sum();
    let n = frames.max(1) as f64;
    // Long streams are parsed once, short ones a few times.
    let reps = if frames > 2_000 { 1 } else { 5 };
    let parse_us = median_us(reps, || dcat_obs::frames::parse_stream(frames_text));
    let render_us = median_us(reps, || {
        dcat_top::render_stream(frames_text, &dcat_top::RenderOptions::headless())
    });
    Ok(ObsProbe {
        frame_bytes_per_frame: (frames_text.len() - header_bytes) as f64 / n,
        parse_stream_us_per_frame: parse_us / n,
        // `render_stream` parses first; charge `top` only the rendering.
        top_render_us_per_frame: (render_us - parse_us).max(0.0) / n,
        ways_moved_per_tick: moved as f64 / n,
    })
}

/// `(render microseconds, series)` of a metrics snapshot in Prometheus
/// text form, validated by `check_prometheus`.
pub fn metrics_probe(snapshot: &Snapshot) -> Result<(f64, u64), String> {
    let text = snapshot.to_prometheus();
    let summary = dcat_obs::check_prometheus(&text)?;
    Ok((
        median_us(15, || snapshot.to_prometheus()),
        summary.samples as u64,
    ))
}

/// The micro-benchmark suite's calibration spin, re-stated here because
/// `dcat-perfbench` keeps it private: xorshift rounds that each stream
/// one cache line of a 4 MiB buffer. Nanoseconds per 16-round iteration.
/// A canary for drift of the box between runs; nothing is divided by it.
pub fn spin_calibration_ns() -> f64 {
    const WORDS: usize = 1 << 19;
    const ITERS: u32 = 200_000;
    let mut buf = vec![0u64; WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut idx = 0usize;
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ITERS {
                for _ in 0..16 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    idx = (idx + 8) & (WORDS - 1);
                    buf[idx] = buf[idx].wrapping_add(x);
                }
            }
            black_box(&buf);
            ns_since(t) / f64::from(ITERS)
        })
        .collect();
    median(&samples)
}
