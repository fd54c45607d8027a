//! The model checker's full run, counted: a change that makes it explore
//! less, inject fewer faults or degrade fewer ticks moves a number here,
//! not only a floor it may still clear.

#[test]
fn a_full_run_explores_and_injects_exactly_the_recorded_counts() {
    let report = dcat_verify::run(false);
    assert_eq!(report.verdict(false), Ok(()));
    let c = report.counts;
    // Lattice: explored / unreachable / rejected / intervals.
    assert_eq!(
        (c.explored, c.unreachable, c.rejected, c.ticks),
        (25_344, 2_304, 8, 846_144)
    );
    // Fault dimension: schedules, ticks, faults injected / degraded ticks.
    let f = c.fault;
    assert_eq!(
        (f.schedules, f.ticks, f.injected, f.degraded),
        (1_536, 73_728, 8_602, 2_165)
    );
    // The mid-apply family.
    let m = c.mid_apply;
    assert_eq!(
        (m.schedules, m.ticks, m.injected, m.degraded),
        (384, 18_432, 11_784, 3_928)
    );
}
