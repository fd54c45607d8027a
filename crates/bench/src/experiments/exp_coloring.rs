//! Extension experiment: CAT way-partitioning vs. OS page coloring.
//!
//! The paper's Section 2.2 dismisses page coloring for *dynamic* use
//! (re-coloring copies pages), but its Figure-2 conflict-miss analysis
//! begs the comparison: at equal capacity, coloring restricts *sets* and
//! keeps the full associativity, so it should not suffer CAT's conflict
//! misses at all. This experiment quantifies that trade-off on the
//! Figure-2 methodology: MLR with a working set equal to the partition,
//! under (a) CAT with 2 ways, (b) coloring with the same capacity, and
//! (c) the full cache.

use llc_sim::{Cbm, ColorSet, HierarchyConfig, PageSize};
use workloads::Mlr;

use crate::experiments::common::{measure_single, MeasureSpec, MB};
use crate::report;

/// Latencies (cycles) for one machine.
#[derive(Debug, Clone, Copy)]
pub struct ColoringRow {
    /// CAT partition of 2 ways (capacity = working set).
    pub cat_2way: f64,
    /// Page coloring granting the same capacity (full associativity).
    pub coloring: f64,
    /// Full cache.
    pub full: f64,
}

fn machine(cfg: HierarchyConfig, wss: u64, fast: bool) -> ColoringRow {
    let accesses = if fast { 100_000 } else { 1_500_000 };
    let base_spec = |mask: Cbm, colors: Option<ColorSet>, seed: u64| MeasureSpec {
        hier_cfg: cfg,
        mask,
        wss_bytes: wss,
        page_size: PageSize::Small,
        colors,
        warm_accesses: accesses,
        measured_accesses: accesses,
        seed,
    };
    let run = |spec: MeasureSpec| {
        let mut mlr = Mlr::new(wss, spec.seed);
        measure_single(&spec, &mut mlr).0.avg_latency
    };

    // Same capacity as 2 of `ways` ways, expressed in page colors.
    let num_colors = ColorSet::num_colors_of(cfg.llc, PageSize::Small);
    let colors_for_capacity = (num_colors * 2 / u64::from(cfg.llc.ways)).max(1);
    ColoringRow {
        cat_2way: run(base_spec(Cbm::from_way_range(0, 2), None, 21)),
        coloring: run(base_spec(
            Cbm::full(cfg.llc.ways),
            Some(ColorSet::contiguous(
                cfg.llc,
                PageSize::Small,
                0,
                colors_for_capacity,
            )),
            22,
        )),
        full: run(base_spec(Cbm::full(cfg.llc.ways), None, 23)),
    }
}

/// Runs the comparison on both of the paper's machines.
pub fn run(fast: bool) -> (ColoringRow, ColoringRow) {
    report::section("Extension: CAT way-partitioning vs. OS page coloring (equal capacity)");
    let machines = vec![
        (HierarchyConfig::xeon_d(), 2 * MB),
        (HierarchyConfig::default(), 4 * MB + MB / 2),
    ];
    let out = crate::Runner::from_env().map(machines, |_, (cfg, wss)| machine(cfg, wss, fast));
    let (xeon_d, xeon_e5) = (out[0], out[1]);
    let rows = vec![
        ("Xeon-D (2MB WSS)", xeon_d),
        ("Xeon-E5 (4.5MB WSS)", xeon_e5),
    ]
    .into_iter()
    .map(|(name, r)| {
        vec![
            name.to_string(),
            format!("{:.1}", r.cat_2way),
            format!("{:.1}", r.coloring),
            format!("{:.1}", r.full),
        ]
    })
    .collect::<Vec<_>>();
    report::table(
        &[
            "machine",
            "CAT 2-way",
            "coloring (same capacity)",
            "full cache",
        ],
        &rows,
    );
    report::say("(coloring keeps full associativity: no conflict-miss penalty —");
    report::say(" the flip side is that re-coloring at runtime requires copying pages,");
    report::say(" which is why the paper builds on CAT instead)");
    (xeon_d, xeon_e5)
}
