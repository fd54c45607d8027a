//! Property-based tests: controller invariants under arbitrary telemetry.
//!
//! Whatever counter stream the workloads produce — including adversarial
//! nonsense — the controller must keep the hardware state legal: at most
//! the cache's total ways allocated, at least one way per workload,
//! non-overlapping masks, and Intel-valid CBMs.

use dcat::perf_table::{max_performance_split, PerformanceTable};
use dcat::{DcatConfig, DcatController, WorkloadHandle};
use perf_events::CounterSnapshot;
use prop_lite::Gen;
use resctrl::{CacheController, CatCapabilities, CosId, InMemoryController};

/// One synthetic interval for one domain.
#[derive(Debug, Clone)]
struct IntervalSpec {
    active: bool,
    mem_per_instr_milli: u64, // 0..=1000
    miss_rate_milli: u64,     // 0..=1000
    cpi_milli: u64,           // 500..=80_000
}

fn interval_spec(g: &mut Gen) -> IntervalSpec {
    IntervalSpec {
        active: g.bool_with(0.8),
        mem_per_instr_milli: g.u64_in(0, 1000),
        miss_rate_milli: g.u64_in(0, 1000),
        cpi_milli: g.u64_in(500, 80_000),
    }
}

fn delta_of(spec: &IntervalSpec) -> CounterSnapshot {
    if !spec.active {
        return CounterSnapshot::default();
    }
    let instr = 1_000_000u64;
    let l1_ref = instr * spec.mem_per_instr_milli / 1000;
    let llc_ref = l1_ref / 3;
    CounterSnapshot {
        l1_ref,
        llc_ref,
        llc_miss: llc_ref * spec.miss_rate_milli / 1000,
        ret_ins: instr,
        cycles: instr * spec.cpi_milli / 1000,
    }
}

/// Hardware-state legality under arbitrary telemetry.
#[test]
fn controller_state_always_legal() {
    prop_lite::run_cases("controller_state_always_legal", 64, |g| {
        let domains = g.usize_in(1, 5);
        let reserved = g.u32_in(1, 3);
        let steps: Vec<Vec<IntervalSpec>> = g.vec_of(2, 19, |g| g.vec_of(1, 5, interval_spec));

        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 16);
        let handles: Vec<WorkloadHandle> = (0..domains)
            .map(|i| {
                WorkloadHandle::new(
                    format!("d{i}"),
                    vec![(2 * i) as u32, (2 * i + 1) as u32],
                    reserved,
                )
            })
            .collect();
        let mut ctl = DcatController::new(
            DcatConfig {
                settle_intervals: 1,
                ..DcatConfig::default()
            },
            handles,
            &mut cat,
        )
        .unwrap();

        let mut totals = vec![CounterSnapshot::default(); domains];
        for step in steps {
            for (i, total) in totals.iter_mut().enumerate() {
                let spec = &step[i % step.len()];
                *total = total.merged_with(&delta_of(spec));
            }
            let reports = ctl.tick(&totals, &mut cat).unwrap();

            let total_ways: u32 = reports.iter().map(|r| r.ways).sum();
            assert!(total_ways <= 20, "oversubscribed: {total_ways}");
            assert!(reports.iter().all(|r| r.ways >= 1), "zero-way grant");
            assert!(!cat.has_overlapping_active_masks(), "overlapping masks");
            for (i, report) in reports.iter().enumerate() {
                let cos = CosId((i + 1) as u8);
                let mask = cat.cos_mask(cos).unwrap();
                assert!(mask.is_valid_for(20, 1), "illegal CBM {mask}");
                assert_eq!(mask.ways(), report.ways, "mask/report mismatch");
            }
        }
    });
}

/// An always-idle domain converges to the minimum allocation and an
/// always-hungry-and-improving domain never drops below its baseline.
#[test]
fn idle_shrinks_and_active_keeps_baseline() {
    prop_lite::run_cases("idle_shrinks_and_active_keeps_baseline", 64, |g| {
        let reserved = g.u32_in(2, 4);
        let ticks = g.usize_in(6, 19);

        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 8);
        let handles = vec![
            WorkloadHandle::new("idle", vec![0, 1], reserved),
            WorkloadHandle::new("busy", vec![2, 3], reserved),
        ];
        let mut ctl = DcatController::new(
            DcatConfig {
                settle_intervals: 1,
                ..DcatConfig::default()
            },
            handles,
            &mut cat,
        )
        .unwrap();
        let mut busy_total = CounterSnapshot::default();
        let mut cycles_per_tick = 30_000_000u64;
        for _ in 0..ticks {
            // The busy domain improves a little every interval.
            cycles_per_tick = cycles_per_tick.saturating_sub(1_000_000).max(10_000_000);
            busy_total = busy_total.merged_with(&CounterSnapshot {
                l1_ref: 340_000,
                llc_ref: 120_000,
                llc_miss: 50_000,
                ret_ins: 1_000_000,
                cycles: cycles_per_tick,
            });
            let snaps = vec![CounterSnapshot::default(), busy_total];
            let reports = ctl.tick(&snaps, &mut cat).unwrap();
            assert!(
                reports[1].ways >= reserved,
                "hungry domain below baseline: {} < {reserved}",
                reports[1].ways
            );
        }
        assert_eq!(ctl.ways_of(0), 1, "idle domain should donate to 1 way");
    });
}

/// The best total value of one recorded option per table within
/// `budget` ways, by trying every combination; `None` when none fits.
fn brute_force_best(tables: &[PerformanceTable], budget: u32) -> Option<f64> {
    let Some((first, rest)) = tables.split_first() else {
        return Some(0.0);
    };
    first
        .iter()
        .filter(|&(ways, _)| ways <= budget)
        .filter_map(|(ways, value)| Some(value + brute_force_best(rest, budget - ways)?))
        .max_by(f64::total_cmp)
}

/// `max_performance_split` against brute force on up to 4 tenants and 8
/// ways: the same best total value, and a split that fits the budget,
/// takes a recorded option from every table and achieves that value.
#[test]
fn max_performance_split_matches_brute_force() {
    prop_lite::run_cases("max_performance_split_matches_brute_force", 512, |g| {
        let total = g.u32_in(0, 8);
        let tables: Vec<PerformanceTable> = g.vec_of(1, 4, |g| {
            let mut table = PerformanceTable::new(g.u32_in(1, 8));
            for ways in 1..=table.max_ways() {
                if g.bool_with(0.6) {
                    table.record(ways, 0.5 + 1.5 * g.f64_unit());
                }
            }
            table
        });
        let refs: Vec<&PerformanceTable> = tables.iter().collect();
        let split = max_performance_split(&refs, total);
        let best = if tables.iter().any(PerformanceTable::is_empty) {
            None
        } else {
            brute_force_best(&tables, total)
        };
        let (Some(split), Some(best)) = (split.as_ref(), best) else {
            assert_eq!(split.is_none(), best.is_none(), "{split:?} vs {best:?}");
            return;
        };
        assert_eq!(split.len(), tables.len());
        assert!(split.iter().sum::<u32>() <= total, "{split:?} over {total}");
        let value = tables
            .iter()
            .zip(split)
            .map(|(t, &w)| t.get(w).expect("the split takes a recorded option"))
            .fold(0.0, |sum, v| sum + v);
        assert!((value - best).abs() < 1e-9, "{split:?}: {value} vs {best}");
    });
}
