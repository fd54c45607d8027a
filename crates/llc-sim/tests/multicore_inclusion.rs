//! Multi-core inclusion, back-invalidation and occupancy accounting,
//! checked without a second implementation.
//!
//! Several cores reference one shared pool of physical lines, so LLC
//! lines routinely have more than one private-cache sharer; fill masks
//! change and `flush_mask` runs mid-sequence. After every step the
//! property asserts what the simulated machine guarantees regardless of
//! how the simulator reaches it:
//!
//! * **inclusion** — a line in a core's L1 is in that core's L2, and a
//!   line in an L2 is in the LLC whenever its LLC set is simulated (every
//!   set under `Full`, the sampled ones under `Sampled`);
//! * **back-invalidation** — a line that just left the LLC (evicted by a
//!   fill or dropped by a flush) is in no private cache of any core;
//! * **occupancy** — `llc_occupancy_of_core` equals the per-set
//!   `CacheSet::occupancy_of` scan, scaled the way the hierarchy scales.
//!
//! A recorded digest of the `HitLevel` sequence, the flush counts and the
//! final counters pins decision identity for one fixed seed per LLC
//! policy and fidelity. The constants were generated from the commit
//! before the hot-path rewrite (sweeping back-invalidation, scanned
//! occupancy, probe-then-access fills) and must never be re-blessed by a
//! performance change.

use llc_sim::{
    AccessKind, CacheGeometry, Cbm, Hierarchy, HierarchyConfig, HitLevel, ReplacementPolicy,
    SimFidelity,
};
use prop_lite::Gen;

const CORES: u32 = 4;

fn hierarchy(llc: CacheGeometry, policy: ReplacementPolicy, fidelity: SimFidelity) -> Hierarchy {
    let mut h = Hierarchy::new(HierarchyConfig {
        cores: CORES,
        l1: CacheGeometry::new(4, 2, 64),
        l2: CacheGeometry::new(8, 4, 64),
        llc,
        llc_policy: policy,
    });
    h.set_fidelity(fidelity);
    h
}

enum Op {
    Access { core: u32, line: u64 },
    SetMask { core: u32, mask: Cbm },
    Flush { mask: Cbm },
}

fn random_mask(g: &mut Gen, ways: u32) -> Cbm {
    let start = g.u32_in(0, ways - 1);
    let count = g.u32_in(1, ways - start);
    Cbm::from_way_range(start, count)
}

fn random_op(g: &mut Gen, llc_ways: u32, universe: u64) -> Op {
    match g.u32_in(0, 99) {
        0..=89 => Op::Access {
            core: g.u32_in(0, CORES - 1),
            line: g.u64_in(0, universe - 1),
        },
        90..=94 => Op::SetMask {
            core: g.u32_in(0, CORES - 1),
            mask: random_mask(g, llc_ways),
        },
        _ => Op::Flush {
            mask: random_mask(g, llc_ways),
        },
    }
}

/// Whether the hierarchy runs `line`'s LLC set through the real tag store.
fn set_is_simulated(llc: CacheGeometry, fidelity: SimFidelity, line: u64) -> bool {
    match fidelity {
        SimFidelity::Full => true,
        SimFidelity::Sampled { one_in } => {
            (line % u64::from(llc.sets)).is_multiple_of(u64::from(one_in))
        }
    }
}

/// The hierarchy's documented occupancy scale: exact `sets / simulated`
/// ratio, round-half-up.
fn scaled(llc: CacheGeometry, fidelity: SimFidelity, count: u64) -> u64 {
    match fidelity {
        SimFidelity::Full => count,
        SimFidelity::Sampled { one_in } => {
            let sets = u64::from(llc.sets);
            let simulated = sets.div_ceil(u64::from(one_in));
            (count * sets + simulated / 2) / simulated
        }
    }
}

fn check_invariants(
    h: &Hierarchy,
    llc: CacheGeometry,
    fidelity: SimFidelity,
    universe: u64,
    was_in_llc: &mut [bool],
) {
    for line in 0..universe {
        let paddr = line * 64;
        let in_llc = h.llc_probe(paddr);
        let simulated = set_is_simulated(llc, fidelity, line);
        let left_llc = was_in_llc[line as usize] && !in_llc;
        for core in 0..CORES {
            let in_l1 = h.l1_probe(core, paddr);
            let in_l2 = h.l2_probe(core, paddr);
            assert!(!in_l1 || in_l2, "line {line} in core {core}'s L1, not L2");
            if simulated {
                assert!(
                    !in_l2 || in_llc,
                    "line {line} in core {core}'s L2 but not in the LLC"
                );
            }
            assert!(
                !(left_llc && (in_l1 || in_l2)),
                "line {line} left the LLC but core {core} still holds it"
            );
        }
        was_in_llc[line as usize] = in_llc;
    }
    for core in 0..CORES {
        let scan: u64 = (0..llc.sets)
            .map(|s| u64::from(h.llc().set(s).occupancy_of(core)))
            .sum();
        assert_eq!(
            h.llc_occupancy_of_core(core),
            scaled(llc, fidelity, scan),
            "core {core}: occupancy disagrees with the per-set scan"
        );
    }
}

fn inclusion_cases(name: &str, fidelity: SimFidelity) {
    prop_lite::run_cases(name, 48, |g| {
        // A non-power-of-two and a power-of-two LLC: both index paths.
        let llc = *g.pick(&[CacheGeometry::new(24, 6, 64), CacheGeometry::new(32, 4, 64)]);
        let policy = *g.pick(&[
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
            ReplacementPolicy::bip(),
        ]);
        // Around 1.5x the LLC's lines: hits, sharing and evictions all occur.
        let universe = u64::from(llc.sets * llc.ways) * 3 / 2;
        let mut h = hierarchy(llc, policy, fidelity);
        let mut was_in_llc = vec![false; universe as usize];
        for _ in 0..g.usize_in(100, 300) {
            match random_op(g, llc.ways, universe) {
                Op::Access { core, line } => {
                    h.access(core, line * 64, AccessKind::Load);
                }
                Op::SetMask { core, mask } => h.set_fill_mask(core, mask),
                Op::Flush { mask } => {
                    h.flush_mask(mask);
                }
            }
            check_invariants(&h, llc, fidelity, universe, &mut was_in_llc);
        }
    });
}

#[test]
fn inclusion_and_occupancy_hold_under_full_fidelity() {
    inclusion_cases("multicore_inclusion_full", SimFidelity::Full);
}

#[test]
fn inclusion_and_occupancy_hold_sampling_every_set() {
    inclusion_cases(
        "multicore_inclusion_sampled1",
        SimFidelity::Sampled { one_in: 1 },
    );
}

#[test]
fn inclusion_and_occupancy_hold_sampling_one_set_in_four() {
    inclusion_cases(
        "multicore_inclusion_sampled4",
        SimFidelity::Sampled { one_in: 4 },
    );
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One fixed 40 000-step sequence; the digest covers every `HitLevel`,
/// every flush's dropped-line count, and the final counters/occupancy.
fn decision_digest(policy: ReplacementPolicy, fidelity: SimFidelity) -> u64 {
    let llc = CacheGeometry::new(24, 6, 64);
    let universe = 400;
    let mut h = hierarchy(llc, policy, fidelity);
    let mut digest = Fnv::new();
    prop_lite::replay_case("multicore_decision_digest", 0, |g| {
        for _ in 0..40_000 {
            match random_op(g, llc.ways, universe) {
                Op::Access { core, line } => {
                    digest.u64(match h.access(core, line * 64, AccessKind::Load) {
                        HitLevel::L1 => 1,
                        HitLevel::L2 => 2,
                        HitLevel::Llc => 3,
                        HitLevel::Dram => 4,
                    });
                }
                Op::SetMask { core, mask } => h.set_fill_mask(core, mask),
                Op::Flush { mask } => digest.u64(h.flush_mask(mask)),
            }
        }
    });
    for core in 0..CORES {
        let c = h.counters(core);
        for v in [c.l1_ref, c.l1_miss, c.llc_ref, c.llc_miss] {
            digest.u64(v);
        }
        digest.u64(h.llc_occupancy_of_core(core));
    }
    digest.u64(h.llc_occupancy());
    digest.0
}

#[test]
fn decision_digest_matches_the_recorded_constants() {
    let full = SimFidelity::Full;
    let every_set = SimFidelity::Sampled { one_in: 1 };
    let one_in_four = SimFidelity::Sampled { one_in: 4 };
    let recorded = [
        (ReplacementPolicy::Lru, full, 0x6121_a165_49f7_5e0c_u64),
        (ReplacementPolicy::Fifo, full, 0xdda3_b0d8_b43b_c6eb),
        (ReplacementPolicy::Random, full, 0xab59_8a24_ad44_de0e),
        (ReplacementPolicy::bip(), full, 0x430c_be08_3fa0_278c),
        // Stride 1 simulates every set: same decisions as `Full`.
        (ReplacementPolicy::Lru, every_set, 0x6121_a165_49f7_5e0c),
        (ReplacementPolicy::Lru, one_in_four, 0xfa48_29e0_87eb_bfa4),
    ];
    for (policy, fidelity, expected) in recorded {
        let got = decision_digest(policy, fidelity);
        assert_eq!(
            got, expected,
            "{policy:?}/{fidelity:?}: digest {got:#018x} differs from the recorded one"
        );
    }
}
