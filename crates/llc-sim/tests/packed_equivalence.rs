//! Decision-identity of the packed set against the reference model's LLC
//! (`support/reference.rs`): a `Vec` of ways holding whole lines with
//! their filler, exact sharer sets and last use on a 64-bit clock.
//!
//! A one-set `SetAssocCache` — one packed set of 1 to 16 ways with its
//! draw stream — and the model are driven through identical randomized
//! sequences of accesses by requestors 0..=31 under a fill mask that
//! changes mid-sequence, invalidations, mask-restricted way flushes and
//! full flushes, for every replacement policy. At every step every
//! observable must agree: hit or miss, the evicted line with its filler
//! and shared bit, the lines each flush dropped, occupancy (total, per
//! mask, per filler) and the set way by way. 10 000 sequences per policy.

#[path = "support/reference.rs"]
mod reference;

use llc_sim::replacement::ReplacementPolicy;
use llc_sim::set::{Evicted, MAX_FILLERS};
use llc_sim::{CacheGeometry, LineAddr, SetAssocCache, WayMask};
use reference::Llc;

/// Drives one randomized op sequence through the cache and the model.
fn equivalence_cases(policy: ReplacementPolicy) {
    let name = format!("packed_set_equivalence_{policy:?}");
    prop_lite::run_cases(&name, 10_000, |g| {
        let ways = g.u32_in(1, 16);
        let geometry = CacheGeometry::new(1, ways, 64);
        let mut packed = SetAssocCache::with_policy(geometry, policy);
        let mut oracle = Llc::new(geometry, policy);
        // Small line universe so sequences revisit lines (hits, re-fills
        // of previously evicted lines) instead of missing forever.
        let universe = g.u64_in(4, 40);
        // The active fill mask mutates mid-sequence, exercising fills
        // whose mask excludes previously filled ways.
        let mut mask = random_nonempty_mask(g, ways);
        for _ in 0..g.usize_in(10, 50) {
            let line = LineAddr(g.u64_in(0, universe));
            match g.u32_in(0, 9) {
                0..=5 => {
                    let requestor = g.u32_in(0, MAX_FILLERS - 1);
                    assert_eq!(
                        packed.access_as(line, mask, requestor),
                        oracle.access_as(line, mask, requestor),
                        "access diverged for {line:?} by {requestor}"
                    );
                }
                6 => assert_eq!(
                    packed.invalidate(line),
                    oracle.invalidate(line),
                    "invalidate diverged"
                ),
                7 => mask = random_nonempty_mask(g, ways),
                8 => {
                    let victim_mask = random_nonempty_mask(g, ways);
                    let mut dropped = Vec::new();
                    packed.drain_lines_in(victim_mask, |gone| dropped.push(gone));
                    assert_eq!(dropped, oracle.drain(victim_mask), "way flush diverged");
                }
                _ => {
                    packed.flush();
                    oracle.drain(WayMask::all(ways));
                }
            }
            // Probe a line both ways without touching replacement state.
            let probe = LineAddr(g.u64_in(0, universe));
            assert_eq!(packed.probe(probe), oracle.probe(probe), "probe diverged");
            let held: Vec<(u32, Evicted)> = packed.set(0).residents().collect();
            assert_eq!(held, oracle.set(0), "the set diverged");
            let in_mask = held.iter().filter(|(way, _)| mask.contains(*way));
            assert_eq!(packed.occupancy(), held.len() as u64);
            assert_eq!(packed.occupancy_in(mask), in_mask.count() as u64);
            let owner = g.u32_in(0, MAX_FILLERS - 1);
            let filled = held.iter().filter(|(_, line)| line.owner == owner);
            assert_eq!(packed.occupancy_of(owner), filled.count() as u64);
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
