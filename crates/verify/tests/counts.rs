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
    // Per policy, the seeded then the mid-apply family: schedules, ticks,
    // faults injected, ticks degraded (and constructions cut off), and of
    // those ticks the ones a backend failure degraded.
    let rows = c.policies.map(|p| {
        [p.fault, p.mid_apply].map(|f| {
            (
                f.schedules,
                f.ticks,
                f.injected,
                f.degraded,
                f.resctrl_degraded,
            )
        })
    });
    let policies = ["dcat", "static-cat", "lfoc", "memshare"];
    assert_eq!(dcat_verify::POLICIES, policies);
    assert_eq!(
        rows,
        [
            [
                (1_824, 87_552, 9_218, 5_713, 2_322),
                (2_584, 58_368, 18_312, 6_104, 5_360)
            ],
            [(36, 1_728, 0, 71, 0), (27, 0, 54, 18, 0)],
            [(36, 1_728, 288, 138, 77), (48, 1_008, 462, 154, 148)],
            [(36, 1_728, 300, 155, 86), (45, 864, 486, 162, 150)],
        ]
    );
}
