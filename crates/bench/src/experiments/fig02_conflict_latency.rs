//! Figure 2: impact of CAT-limited cache size and page size.
//!
//! A CAT partition whose *capacity* equals the working set still performs
//! far worse than the full cache with 4 KiB pages, because reduced
//! associativity turns the randomized virtual-to-physical mapping into
//! conflict misses. Huge pages fix it only while the working set fits one
//! page (Xeon-D's 2 MB case); the Xeon-E5 4.5 MB working set spans three
//! huge pages and still conflicts.

use llc_sim::{Cbm, HierarchyConfig, PageSize};
use workloads::Mlr;

use crate::experiments::common::{measure_single, MeasureSpec, MB};
use crate::report;

/// One machine's three bars.
#[derive(Debug, Clone, Copy)]
pub struct ConflictRow {
    /// Latency with a 2-way CAT partition, 4 KiB pages.
    pub cat_4k: f64,
    /// Latency with a 2-way CAT partition, 2 MiB huge pages.
    pub cat_huge: f64,
    /// Latency with the full cache, 4 KiB pages.
    pub full_4k: f64,
}

fn machine(cfg: HierarchyConfig, wss: u64, fast: bool) -> ConflictRow {
    let accesses = if fast { 100_000 } else { 1_500_000 };
    let two_ways = Cbm::from_way_range(0, 2);
    let full = Cbm::full(cfg.llc.ways);
    let run = |mask: Cbm, page: PageSize, seed: u64| {
        let mut mlr = Mlr::with_page_size(wss, page, seed);
        let spec = MeasureSpec {
            hier_cfg: cfg,
            mask,
            wss_bytes: wss,
            page_size: page,
            colors: None,
            warm_accesses: accesses,
            measured_accesses: accesses,
            seed,
        };
        measure_single(&spec, &mut mlr).0
    };
    ConflictRow {
        cat_4k: run(two_ways, PageSize::Small, 11).avg_latency,
        cat_huge: run(two_ways, PageSize::Huge, 12).avg_latency,
        full_4k: run(full, PageSize::Small, 13).avg_latency,
    }
}

/// Runs both machines and prints the bars.
pub fn run(fast: bool) -> (ConflictRow, ConflictRow) {
    report::section("Figure 2: Impact of CAT-limited cache size");
    // Xeon-D: 2 MB working set in a 2-way 2 MB partition; Xeon-E5: 4.5 MB
    // working set in a 2-way 4.5 MB partition. Both machines run in
    // parallel under the sweep runner.
    let machines = vec![
        (HierarchyConfig::xeon_d(), 2 * MB),
        (HierarchyConfig::default(), 4 * MB + MB / 2),
    ];
    let rows = crate::Runner::from_env().map(machines, |_, (cfg, wss)| machine(cfg, wss, fast));
    let (xeon_d, xeon_e5) = (rows[0], rows[1]);
    report::table(
        &[
            "machine",
            "CAT 2-way (4KB pages)",
            "CAT 2-way (2MB pages)",
            "full cache",
        ],
        &[
            vec![
                "Xeon-D (2MB WSS)".to_string(),
                format!("{:.1}", xeon_d.cat_4k),
                format!("{:.1}", xeon_d.cat_huge),
                format!("{:.1}", xeon_d.full_4k),
            ],
            vec![
                "Xeon-E5 (4.5MB WSS)".to_string(),
                format!("{:.1}", xeon_e5.cat_4k),
                format!("{:.1}", xeon_e5.cat_huge),
                format!("{:.1}", xeon_e5.full_4k),
            ],
        ],
    );
    report::say("(average data-access latency in cycles; capacity matches the working set in every CAT case)");
    (xeon_d, xeon_e5)
}
