//! Figure 3: cache-set conflict histograms.
//!
//! For the Figure-2 working sets, how many of the working set's lines map
//! to each LLC set. With 4 KiB pages a substantial fraction of sets
//! receives 3+ lines (guaranteed conflicts in a 2-way partition): the paper
//! reports ~32.5% on Xeon-D and ~29% on Xeon-E5. Huge pages drive Xeon-D
//! to zero conflicting sets (one page covers the working set) but leave
//! ~11.2% of sets with 3 lines on Xeon-E5 (three pages, two fit).

use llc_sim::{
    CacheGeometry, FrameAllocator, FramePolicy, PageMapper, PageSize, PhysAddr,
    SetOccupancyHistogram, VirtAddr,
};

use crate::experiments::common::MB;
use crate::report;

/// Conflict statistics for one (machine, page size) pair.
#[derive(Debug, Clone)]
pub struct HistogramRow {
    /// Label for the report.
    pub label: String,
    /// Fraction of sets with 3 or more lines mapped (conflicts in a 2-way
    /// partition).
    pub frac_3_plus: f64,
    /// The histogram itself.
    pub(crate) histogram: SetOccupancyHistogram,
}

/// Maps a working set and histograms its lines over the partition's sets.
fn map_working_set(llc: CacheGeometry, wss: u64, page: PageSize, seed: u64) -> HistogramRow {
    let mut frames = FrameAllocator::new(2 * 1024 * 1024 * 1024, FramePolicy::Randomized, seed);
    let mut mapper = PageMapper::new(page);
    let lines: Vec<PhysAddr> = (0..wss / 64)
        .map(|l| {
            mapper
                .translate(VirtAddr(l * 64), &mut frames)
                .expect("pool")
        })
        .collect();
    let histogram = SetOccupancyHistogram::from_lines(llc, lines);
    HistogramRow {
        label: String::new(),
        frac_3_plus: histogram.fraction_with_at_least(3),
        histogram,
    }
}

/// Runs all four configurations and prints the histograms.
pub fn run(_fast: bool) -> Vec<HistogramRow> {
    report::section("Figure 3: Cache set conflicts on Intel Broadwell processors");
    let configs = [
        (
            "Xeon-D 4KB (2MB WSS)",
            CacheGeometry::xeon_d_llc(),
            2 * MB,
            PageSize::Small,
        ),
        (
            "Xeon-D hugepage (2MB WSS)",
            CacheGeometry::xeon_d_llc(),
            2 * MB,
            PageSize::Huge,
        ),
        (
            "Xeon-E5 4KB (4.5MB WSS)",
            CacheGeometry::xeon_e5_llc(),
            4 * MB + MB / 2,
            PageSize::Small,
        ),
        (
            "Xeon-E5 hugepage (4.5MB WSS)",
            CacheGeometry::xeon_e5_llc(),
            4 * MB + MB / 2,
            PageSize::Huge,
        ),
    ];
    let rows: Vec<HistogramRow> =
        crate::Runner::from_env().map(configs.to_vec(), |i, (label, llc, wss, page)| {
            let mut row = map_working_set(llc, wss, page, 42 + i as u64);
            row.label = label.to_string();
            row
        });
    let mut printed = Vec::new();
    for row in &rows {
        let hist_str = row
            .histogram
            .buckets
            .iter()
            .enumerate()
            .take(8)
            .map(|(k, &sets)| {
                format!(
                    "{k}:{:.1}%",
                    100.0 * sets as f64 / row.histogram.total_sets as f64
                )
            })
            .collect::<Vec<_>>()
            .join(" ");
        printed.push(vec![
            row.label.clone(),
            format!("{:.1}%", row.frac_3_plus * 100.0),
            hist_str,
        ]);
    }
    report::table(
        &[
            "configuration",
            "sets with 3+ lines",
            "lines-per-set histogram",
        ],
        &printed,
    );
    report::say("(a 2-way partition conflicts wherever 3+ lines share a set)");
    rows
}
