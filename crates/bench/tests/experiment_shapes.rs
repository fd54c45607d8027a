//! Qualitative-shape assertions for the paper reproductions, run on the
//! scaled-down (`fast`) experiment variants so the suite stays quick.
//!
//! These tests encode the paper's *claims*, not its absolute numbers: who
//! wins, what saturates, what gets detected.

use dcat_bench::experiments as e;

#[test]
fn fig02_reduced_associativity_hurts_and_hugepages_help() {
    let (xeon_d, xeon_e5) = e::fig02_conflict_latency::run(true);
    // A capacity-matched 2-way partition is much worse than the full cache.
    assert!(xeon_d.cat_4k > 1.3 * xeon_d.full_4k);
    assert!(xeon_e5.cat_4k > 1.2 * xeon_e5.full_4k);
    // Huge pages recover Xeon-D fully (one page covers the working set)...
    assert!(xeon_d.cat_huge < 1.1 * xeon_d.full_4k);
    // ...but on Xeon-E5 the 4.5 MB set spans three pages and still pays.
    assert!(xeon_e5.cat_huge > xeon_e5.full_4k);
    assert!(xeon_e5.cat_huge < xeon_e5.cat_4k);
}

#[test]
fn fig03_conflict_fractions_match_paper_pattern() {
    let rows = e::fig03_set_histogram::run(true);
    let by_label = |needle: &str| {
        rows.iter()
            .find(|r| r.label.contains(needle))
            .unwrap_or_else(|| panic!("missing {needle}"))
    };
    // The paper reports roughly 30% of sets with 3+ lines for 4 KiB pages.
    assert!(by_label("Xeon-D 4KB").frac_3_plus > 0.15);
    assert!(by_label("Xeon-E5 4KB").frac_3_plus > 0.15);
    // Hugepages drive Xeon-D to zero conflicting sets.
    assert_eq!(by_label("Xeon-D hugepage").frac_3_plus, 0.0);
    // Xeon-E5's 3-page working set still conflicts, but less than 4 KiB.
    let e5_huge = by_label("Xeon-E5 hugepage").frac_3_plus;
    assert!(e5_huge > 0.0 && e5_huge < by_label("Xeon-E5 4KB").frac_3_plus);
}

#[test]
fn fig05_phase_signature_is_flat_across_allocations() {
    let series = e::fig05_phase_metric::run(true);
    for s in &series {
        assert!(
            s.relative_spread() < 0.02,
            "{} signature varies {:.1}% with allocation",
            s.label,
            s.relative_spread() * 100.0
        );
    }
    // And the signature distinguishes MLR from MLOAD.
    let mlr = series
        .iter()
        .find(|s| s.label.starts_with("MLR-6"))
        .unwrap();
    let mload = series
        .iter()
        .find(|s| s.label.starts_with("MLOAD-8"))
        .unwrap();
    let diff = (mlr.points[0].1 - mload.points[0].1).abs() / mlr.points[0].1;
    assert!(diff > 0.2, "MLR and MLOAD signatures too close");
}

#[test]
fn fig07_lifecycle_reclaims_grows_and_donates() {
    let lc = e::fig07_lifecycle::run(true);
    // Idle at first -> donated to 1 way at some point before the start.
    assert!(lc.friendly_ways.contains(&1));
    // Grew beyond the 3-way baseline while running.
    assert!(lc.friendly_ways.iter().any(|&w| w > 3));
    // Donated again after the workload stopped.
    assert_eq!(*lc.friendly_ways.last().unwrap(), 1);
    assert_eq!(*lc.streaming_ways.last().unwrap(), 1);
}

#[test]
fn fig13_streaming_is_detected_and_defunded() {
    let row = e::fig13_streaming::run(true);
    assert!(row.peak_ways >= 6, "should have probed toward the cap");
    assert!(row.peak_ways <= 10, "must not grow past the streaming cap");
    assert_eq!(row.final_ways, 1, "streaming VM ends at the minimum");
}

#[test]
fn fig15_mload_released_and_mlr_absorbed() {
    let row = e::fig15_mixed::run(true);
    // MLOAD was eventually dropped to the minimum...
    assert_eq!(*row.mload_ways.last().unwrap(), 1);
    // ...and MLR ended above its 3-way baseline.
    assert!(*row.mlr_ways.last().unwrap() > 3);
    // The streaming neighbor is not hurt by dCat relative to static CAT.
    assert!(row.mload_ipc_ratio > 0.9);
}

#[test]
fn fig17_subset_shows_the_three_classes() {
    let rows = e::fig17_spec2006::run(true);
    let get = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
    // The high-reuse benchmark beats shared under dCat...
    assert!(get("omnetpp").dcat_vs_shared > 1.05);
    // ...and dCat is at least as good as static for it.
    assert!(get("omnetpp").dcat_vs_shared >= 0.95 * get("omnetpp").static_vs_shared);
    // The streaming benchmark is insensitive (within noise of 1.0).
    let lq = get("libquantum");
    assert!(lq.dcat_vs_shared > 0.8 && lq.dcat_vs_shared < 1.25);
    // The small-WSS benchmark is also insensitive.
    let hm = get("hmmer");
    assert!(hm.dcat_vs_shared > 0.8 && hm.dcat_vs_shared < 1.25);
}

#[test]
fn ablation_perf_table_reuse_speeds_up_the_second_run() {
    let with = e::fig12_perf_table_reuse::run_with_reuse(true, true);
    let without = e::fig12_perf_table_reuse::run_with_reuse(true, false);
    assert!(
        with.second_run_epochs <= without.second_run_epochs,
        "reuse {} vs no-reuse {}",
        with.second_run_epochs,
        without.second_run_epochs
    );
}

#[test]
fn postgres_multi_instance_parity_with_static() {
    // The paper reports "similar improvement" for three instances; our
    // PostgreSQL model is uniform-dominated, so each instance should sit
    // near static-CAT parity — and crucially, none may regress badly.
    let ratios = e::tab_services::run_postgres_multi(true);
    assert_eq!(ratios.len(), 3);
    for r in ratios {
        assert!(r > 0.85, "an instance regressed under dCat: {r}");
    }
}

#[test]
fn coloring_beats_cat_at_equal_capacity() {
    // Page coloring keeps full associativity, so it must land between the
    // 2-way CAT partition and the full cache on both machines.
    let (xeon_d, xeon_e5) = e::exp_coloring::run(true);
    for (name, r) in [("Xeon-D", xeon_d), ("Xeon-E5", xeon_e5)] {
        assert!(
            r.coloring < r.cat_2way,
            "{name}: coloring {:.1} should beat CAT {:.1}",
            r.coloring,
            r.cat_2way
        );
        assert!(
            r.coloring >= r.full * 0.95,
            "{name}: coloring cannot beat the full cache"
        );
    }
}

#[test]
fn replacement_policies_are_sane_at_small_scale() {
    // BIP's protection accumulates too slowly to show at the fast scale
    // (the single-set unit test in llc-sim proves the scan-resistance
    // semantics; the full `ablate_replacement` experiment shows the
    // engine-level effect). Here: every policy runs, none collapses.
    let rows = e::ablate_replacement::run(true);
    assert_eq!(rows.len(), 4);
    let ipcs: Vec<f64> = rows.iter().map(|r| r.ipc).collect();
    let max = ipcs.iter().cloned().fold(f64::MIN, f64::max);
    for r in &rows {
        assert!(r.ipc > 0.0, "{} produced zero IPC", r.label);
        assert!(
            r.ipc > max / 4.0,
            "{} collapsed: {} vs best {max}",
            r.label,
            r.ipc
        );
    }
}
