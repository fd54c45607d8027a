//! A slice is the same machine as its references one at a time.
//! `Hierarchy::slice(core)` holds the core's L1 and L2 arrays, its counts
//! and its estimator for a run of references and writes the counts and
//! the estimator back when the slice ends; `machine_differential.rs` holds
//! slices at full fidelity to a model that has no estimator. Here random
//! multi-core programs — runs of `k` references, each run from one core —
//! go through two hierarchies built alike, at full fidelity or sampling
//! one LLC set in four: one as a single slice per run, the other as
//! `k` calls of `Hierarchy::access`. After every run the two must agree on
//! every `HitLevel`, every core's counters and LLC occupancy, and where
//! every line in play is; a run that ends with `finish` must return what it
//! added to its core's counters. Fill masks overlap, so one core's fills
//! evict lines other cores share, and the private caches come in four
//! shapes: 8-way with a power-of-two set count, 1-way, 5-way and 24-set.

use llc_sim::{
    AccessKind, CacheGeometry, CoreCounters, Hierarchy, HierarchyConfig, HitLevel,
    ReplacementPolicy, SimFidelity, WayMask,
};
use prop_lite::Gen;

const CORES: u32 = 4;

/// L1, L2 and LLC of one shape; every LLC is small enough to evict often.
fn shapes() -> [(CacheGeometry, CacheGeometry, CacheGeometry); 4] {
    let g = CacheGeometry::new;
    [
        (g(2, 8, 64), g(4, 8, 64), g(16, 8, 64)),
        (g(4, 1, 64), g(8, 1, 64), g(8, 2, 64)),
        (g(2, 5, 64), g(4, 5, 64), g(12, 5, 64)),
        (g(24, 8, 64), g(48, 8, 64), g(24, 16, 64)),
    ]
}

fn hierarchy(
    (l1, l2, llc): (CacheGeometry, CacheGeometry, CacheGeometry),
    llc_policy: ReplacementPolicy,
    fidelity: SimFidelity,
) -> Hierarchy {
    let mut h = Hierarchy::new(HierarchyConfig {
        cores: CORES,
        l1,
        l2,
        llc,
        llc_policy,
    });
    h.set_fidelity(fidelity);
    h
}

/// A mask most cores share a way of: fills of one core evict lines that
/// other cores hit.
fn overlapping_mask(g: &mut Gen, ways: u32) -> WayMask {
    let start = g.u32_in(0, ways - 1);
    let count = g.u32_in(1, (ways - start).min(2));
    WayMask::from_way_range(start, count)
}

/// One run: a core and its references, half of them from a four-line hot
/// set (L1 and L2 hits), half anywhere in the shared universe.
fn random_run(g: &mut Gen, universe: u64) -> (u32, Vec<u64>) {
    let core = g.u32_in(0, CORES - 1);
    let hot: Vec<u64> = (0..4).map(|_| g.u64_in(0, universe - 1)).collect();
    let len = g.usize_in(0, 48);
    let lines = (0..len)
        .map(|_| {
            if g.bool_with(0.5) {
                *g.pick(&hot)
            } else {
                g.u64_in(0, universe - 1)
            }
        })
        .collect();
    (core, lines)
}

/// Every core's counters and LLC lines, and where each line of the
/// universe is: the LLC, and every core's L1 and L2.
type Observed = (Vec<(CoreCounters, u64)>, Vec<(bool, Vec<(bool, bool)>)>);

fn observe(h: &Hierarchy, universe: u64) -> Observed {
    let cores = (0..CORES).map(|core| (h.counters(core), h.llc_occupancy_of_core(core)));
    let lines = (0..universe).map(|line| {
        let paddr = line * 64;
        let private = |core| (h.l1_probe(core, paddr), h.l2_probe(core, paddr));
        (h.llc_probe(paddr), (0..CORES).map(private).collect())
    });
    (cores.collect(), lines.collect())
}

fn slice_cases(name: &str, fidelity: SimFidelity) {
    prop_lite::run_cases(name, 64, |g| {
        let shape = *g.pick(&shapes());
        let policy = *g.pick(&[
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
            ReplacementPolicy::bip(),
        ]);
        let llc = shape.2;
        let universe = u64::from(llc.sets * llc.ways) * 3 / 2;
        let mut sliced = hierarchy(shape, policy, fidelity);
        let mut plain = hierarchy(shape, policy, fidelity);
        for run in 0..g.usize_in(20, 60) {
            if g.bool_with(0.2) {
                let core = g.u32_in(0, CORES - 1);
                let mask = overlapping_mask(g, llc.ways);
                sliced.set_fill_mask(core, mask);
                plain.set_fill_mask(core, mask);
            }
            if g.bool_with(0.05) {
                let mask = overlapping_mask(g, llc.ways);
                assert_eq!(sliced.flush_mask(mask), plain.flush_mask(mask));
            }
            let (core, lines) = random_run(g, universe);
            let before = plain.counters(core);
            let expected: Vec<HitLevel> = lines
                .iter()
                .map(|&line| plain.access(core, line * 64, AccessKind::Load))
                .collect();
            let mut slice = sliced.slice(core);
            let got: Vec<HitLevel> = lines.iter().map(|&line| slice.access(line * 64)).collect();
            // Half the runs end by `finish`, half by dropping the slice.
            if g.bool_with(0.5) {
                let counted = slice.finish();
                let delta = plain.counters(core).delta_since(&before);
                assert_eq!(counted, delta, "what run {run} says it counted");
            } else {
                drop(slice);
            }
            assert_eq!(got, expected, "levels of run {run} (core {core})");
            let same = observe(&sliced, universe) == observe(&plain, universe);
            assert!(same, "the machines differ after run {run}");
        }
        let total = (0..CORES).fold(CoreCounters::default(), |acc, c| {
            acc.merged_with(&plain.counters(c))
        });
        assert!(total.l1_ref > 0, "the program issued references");
    });
}

#[test]
fn a_slice_equals_its_references_one_at_a_time_at_full_fidelity() {
    slice_cases("slice_equivalence_full", SimFidelity::Full);
}

#[test]
fn a_slice_equals_its_references_one_at_a_time_sampling_one_set_in_four() {
    let sampled = SimFidelity::Sampled { one_in: 4 };
    slice_cases("slice_equivalence_sampled4", sampled);
}
