//! Shared experiment plumbing.

use dcat::DcatConfig;
use host::EngineConfig;
use llc_sim::{Cbm, Hierarchy, HierarchyConfig, PageMapper, PageSize};
use llc_sim::{FrameAllocator, FramePolicy, LatencyModel};
use workloads::AccessStream;

/// Engine configuration on the paper's Xeon-E5 v4 socket.
///
/// `fast` shrinks the per-epoch cycle budget (for tests); experiments use
/// the full budget so cache warm-up resolves within a few epochs. The
/// LLC fidelity follows the process-global `--sample-sets` flag
/// ([`crate::runner::llc_fidelity`]): full by default, UMON-style set
/// sampling when the user opts in for speed.
pub(crate) fn paper_engine(fast: bool) -> EngineConfig {
    let mut cfg = EngineConfig::xeon_e5_v4();
    cfg.cycles_per_epoch = if fast { 1_500_000 } else { 10_000_000 };
    cfg.llc_fidelity = crate::runner::llc_fidelity();
    cfg
}

/// dCat configuration used by the timeline experiments.
pub(crate) fn paper_dcat() -> DcatConfig {
    DcatConfig::default()
}

/// Parameters for a single-stream measurement (the microbenchmark
/// methodology of the paper's Section 2, Figures 2 and 3, where no
/// controller is involved).
#[derive(Debug, Clone)]
pub(crate) struct MeasureSpec {
    /// Hierarchy shape.
    pub(crate) hier_cfg: HierarchyConfig,
    /// CAT fill mask for the measured core.
    pub(crate) mask: Cbm,
    /// Working-set size (for the returned line list).
    pub(crate) wss_bytes: u64,
    /// Page size backing the buffer.
    pub(crate) page_size: PageSize,
    /// Page colors the buffer may use (OS page coloring); `None` = any.
    pub(crate) colors: Option<llc_sim::ColorSet>,
    /// Accesses to run before measurement starts.
    pub(crate) warm_accesses: u64,
    /// Accesses measured.
    pub(crate) measured_accesses: u64,
    /// Frame-placement seed.
    pub(crate) seed: u64,
}

/// Drives one stream alone on one core with a fixed LLC way mask and/or a
/// page-color restriction. Returns the average data-access latency in
/// cycles over the measured window and the physical line addresses of the stream's working set (for conflict
/// histograms).
pub(crate) fn measure_single(
    spec: &MeasureSpec,
    stream: &mut dyn AccessStream,
) -> (f64, Vec<llc_sim::PhysAddr>) {
    let mut hierarchy = Hierarchy::new(spec.hier_cfg);
    hierarchy.set_fill_mask(0, spec.mask);
    let mut frames =
        FrameAllocator::new(2 * 1024 * 1024 * 1024, FramePolicy::Randomized, spec.seed);
    let mut mapper = PageMapper::new(spec.page_size);
    let colors = spec.colors.as_ref();

    // One core issues every reference: one slice for the warm-up, one for
    // the measurement.
    for accesses in [spec.warm_accesses, spec.measured_accesses] {
        hierarchy.reset_counters(0);
        let mut slice = hierarchy.slice(0);
        for _ in 0..accesses {
            let r = stream.next_access();
            let p = mapper
                .translate_colored(r.vaddr, &mut frames, colors)
                .expect("pool exhausted");
            slice.access(p.0);
        }
    }
    let counters = hierarchy.counters(0);
    let lat = LatencyModel::default().average_access_latency(&counters);

    // Translate every line of the working set for the histogram.
    let lines: Vec<llc_sim::PhysAddr> = (0..spec.wss_bytes / 64)
        .map(|l| {
            mapper
                .translate_colored(llc_sim::VirtAddr(l * 64), &mut frames, colors)
                .expect("pool exhausted")
        })
        .collect();
    (lat, lines)
}

/// Megabytes, readable in scenario definitions.
pub(crate) const MB: u64 = 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::CacheGeometry;
    use workloads::Mlr;

    fn spec(cfg: HierarchyConfig, mask: Cbm, wss: u64, seed: u64) -> MeasureSpec {
        MeasureSpec {
            hier_cfg: cfg,
            mask,
            wss_bytes: wss,
            page_size: PageSize::Small,
            colors: None,
            warm_accesses: 50_000,
            measured_accesses: 50_000,
            seed,
        }
    }

    fn small_cfg() -> HierarchyConfig {
        HierarchyConfig {
            cores: 1,
            l1: CacheGeometry::new(64, 8, 64),
            l2: CacheGeometry::new(128, 8, 64),
            llc: CacheGeometry::from_capacity(2 * MB, 8),
            llc_policy: Default::default(),
        }
    }

    #[test]
    fn measure_single_reports_plausible_latency() {
        // Small WSS, full mask: mostly cache hits -> latency far below DRAM.
        let mut mlr = Mlr::new(256 * 1024, 1);
        let (fit, lines) =
            measure_single(&spec(small_cfg(), Cbm::full(8), 256 * 1024, 7), &mut mlr);
        assert!(fit < 100.0, "latency {fit}");
        assert_eq!(lines.len(), 4096);

        // Huge WSS: DRAM bound.
        let mut big = Mlr::new(16 * MB, 2);
        let (thrash, _) = measure_single(&spec(small_cfg(), Cbm::full(8), 16 * MB, 8), &mut big);
        assert!(thrash > fit * 2.0);
    }

    #[test]
    fn colored_measurement_restricts_frames() {
        use llc_sim::ColorSet;
        let cfg = small_cfg();
        let colors = ColorSet::contiguous(cfg.llc, PageSize::Small, 0, 16);
        let mut s = spec(cfg, Cbm::full(8), 256 * 1024, 9);
        s.colors = Some(colors.clone());
        let mut mlr = Mlr::new(256 * 1024, 3);
        let (_, lines) = measure_single(&s, &mut mlr);
        for p in lines {
            assert!(colors.permits_frame(p.0 & !4095, PageSize::Small));
        }
    }

    #[test]
    fn paper_engine_fast_mode_is_cheaper() {
        assert!(paper_engine(true).cycles_per_epoch < paper_engine(false).cycles_per_epoch);
    }
}
