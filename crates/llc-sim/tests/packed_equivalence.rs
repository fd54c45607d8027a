//! Decision-identity of the packed `CacheSet` against the seed oracle.
//!
//! The packed bitmask/SoA set (`set.rs`) replaced the seed
//! `Vec<Option<LineEntry>>` representation for speed; the seed code is
//! preserved verbatim as `set::legacy::LegacyCacheSet`. These properties
//! drive both implementations through identical randomized sequences of
//! lookups, fills, invalidations, mask-restricted flushes, and full
//! flushes — for every replacement policy — and assert that *every*
//! observable agrees at *every* step: hit/miss and hit way, fill way and
//! evicted line, occupancy (total, per-mask, per-owner), and the exact
//! resident-line listing. 10_000 sequences per policy.

use llc_sim::replacement::ReplacementPolicy;
use llc_sim::set::legacy::LegacyCacheSet;
use llc_sim::set::{CacheSet, MAX_FILLERS};
use llc_sim::{LineAddr, WayMask};

/// Drives one randomized op sequence through both set implementations.
fn equivalence_cases(policy: ReplacementPolicy) {
    let name = format!("packed_set_equivalence_{policy:?}");
    prop_lite::run_cases(&name, 10_000, |g| {
        let ways = g.u32_in(1, 16);
        let mut packed = CacheSet::new(ways);
        let mut oracle = LegacyCacheSet::new(ways);
        // Small line universe so sequences revisit lines (hits, re-fills
        // of previously evicted lines) instead of missing forever.
        let universe = g.u64_in(4, 40);
        // The active fill mask mutates mid-sequence, exercising fills
        // whose mask excludes previously filled ways.
        let mut mask = random_nonempty_mask(g, ways);
        let ops = g.usize_in(10, 50);
        let mut now = 0u64;
        for _ in 0..ops {
            now += 1;
            match g.u32_in(0, 9) {
                // Access: lookup, fill on miss — the cache's own pattern.
                0..=5 => {
                    let line = LineAddr(g.u64_in(0, universe));
                    let draw = g.u64_in(0, u64::MAX - 1);
                    let a = packed.lookup_with(line, policy);
                    let b = oracle.lookup_with(line, now, policy);
                    assert_eq!(a, b, "lookup diverged for {line:?}");
                    if a.is_none() {
                        // A filler id the packed set's 5-bit field can hold.
                        let owner = g.u32_in(0, MAX_FILLERS - 1);
                        let fa = packed.fill_with(line, mask, owner, policy, draw);
                        let fb = oracle.fill_with(line, mask, now, owner, policy, draw);
                        assert_eq!(fa, fb, "fill diverged for {line:?}");
                    }
                }
                6 => {
                    let line = LineAddr(g.u64_in(0, universe));
                    assert_eq!(
                        packed.invalidate(line),
                        oracle.invalidate(line),
                        "invalidate diverged"
                    );
                }
                7 => mask = random_nonempty_mask(g, ways),
                8 => {
                    let victim_mask = random_nonempty_mask(g, ways);
                    let a: Vec<LineAddr> = packed.invalidate_ways(victim_mask);
                    let b: Vec<LineAddr> = oracle.invalidate_ways(victim_mask);
                    assert_eq!(a, b, "invalidate_ways diverged");
                }
                _ => {
                    packed.flush();
                    oracle.flush();
                }
            }
            // Probe a line both ways without touching LRU state.
            let probe = LineAddr(g.u64_in(0, universe));
            assert_eq!(packed.probe(probe), oracle.probe(probe), "probe diverged");
            assert_eq!(packed.occupancy(), oracle.occupancy());
            assert_eq!(packed.occupancy_in(mask), oracle.occupancy_in(mask));
            let owner = g.u32_in(0, MAX_FILLERS - 1);
            assert_eq!(packed.occupancy_of(owner), oracle.occupancy_of(owner));
            let a: Vec<LineAddr> = packed.resident_lines().collect();
            let b: Vec<LineAddr> = oracle.resident_lines().collect();
            assert_eq!(a, b, "resident lines diverged");
        }
    });
}

fn random_nonempty_mask(g: &mut prop_lite::Gen, ways: u32) -> WayMask {
    let start = g.u32_in(0, ways - 1);
    let count = g.u32_in(1, ways - start);
    WayMask::from_way_range(start, count)
}

#[test]
fn packed_set_matches_oracle_lru() {
    equivalence_cases(ReplacementPolicy::Lru);
}

#[test]
fn packed_set_matches_oracle_fifo() {
    equivalence_cases(ReplacementPolicy::Fifo);
}

#[test]
fn packed_set_matches_oracle_random() {
    equivalence_cases(ReplacementPolicy::Random);
}

#[test]
fn packed_set_matches_oracle_bip() {
    equivalence_cases(ReplacementPolicy::bip());
}
