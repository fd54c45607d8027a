//! Property-based tests for counter snapshots, metrics, and windows.

use perf_events::{CounterSnapshot, IntervalMetrics, SlidingWindow};
use prop_lite::Gen;

fn snapshot(g: &mut Gen) -> CounterSnapshot {
    let max = (1u64 << 40) - 1;
    CounterSnapshot {
        l1_ref: g.u64_in(0, max),
        llc_ref: g.u64_in(0, max),
        llc_miss: g.u64_in(0, max),
        ret_ins: g.u64_in(0, max),
        cycles: g.u64_in(0, max),
    }
}

fn signed_sample(g: &mut Gen) -> f64 {
    (g.f64_unit() - 0.5) * 2e6
}

/// Deltas never underflow, and `later - earlier + earlier >= earlier`.
#[test]
fn delta_never_underflows() {
    prop_lite::run_cases("delta_never_underflows", 256, |g| {
        let a = snapshot(g);
        let b = snapshot(g);
        let d = a.delta_since(&b);
        assert!(d.l1_ref <= a.l1_ref.max(b.l1_ref));
        // Any monotone pair reconstructs exactly.
        let merged = b.merged_with(&d);
        if a.l1_ref >= b.l1_ref
            && a.llc_ref >= b.llc_ref
            && a.llc_miss >= b.llc_miss
            && a.ret_ins >= b.ret_ins
            && a.cycles >= b.cycles
        {
            assert_eq!(merged, a);
        }
    });
}

/// Derived ratios are finite and within their mathematical ranges.
#[test]
fn metrics_ranges() {
    prop_lite::run_cases("metrics_ranges", 256, |g| {
        let d = snapshot(g);
        let m = IntervalMetrics::from_delta(&d);
        assert!(m.ipc.is_finite() && m.ipc >= 0.0);
        assert!(m.mem_access_per_instr.is_finite() && m.mem_access_per_instr >= 0.0);
        assert!(m.llc_miss_rate.is_finite() && m.llc_miss_rate >= 0.0);
        if d.llc_miss <= d.llc_ref {
            assert!(m.llc_miss_rate <= 1.0 + 1e-9);
        }
        assert!(m.llc_ref_per_instr().is_finite());
    });
}

/// The sliding window's mean is always within the min/max of its
/// retained samples.
#[test]
fn sliding_mean_bounded() {
    prop_lite::run_cases("sliding_mean_bounded", 128, |g| {
        let cap = g.usize_in(1, 15);
        let samples = g.vec_of(1, 63, signed_sample);
        let mut w = SlidingWindow::new(cap);
        for (i, &s) in samples.iter().enumerate() {
            w.push(s);
            let start = (i + 1).saturating_sub(cap);
            let window = &samples[start..=i];
            let lo = window.iter().cloned().fold(f64::MAX, f64::min);
            let hi = window.iter().cloned().fold(f64::MIN, f64::max);
            let mean = w.mean().unwrap();
            assert!(mean >= lo - 1e-6 && mean <= hi + 1e-6);
        }
    });
}

/// `between` equals `from_delta` of the difference.
#[test]
fn between_matches_delta() {
    prop_lite::run_cases("between_matches_delta", 256, |g| {
        let earlier = snapshot(g);
        let growth = snapshot(g);
        let later = earlier.merged_with(&growth);
        let a = IntervalMetrics::between(&earlier, &later);
        let b = IntervalMetrics::from_delta(&later.delta_since(&earlier));
        assert_eq!(a, b);
    });
}
