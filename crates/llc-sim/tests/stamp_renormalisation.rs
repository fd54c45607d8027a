//! Exactness of the 9-bit stamp: a `SetAssocCache` driven across many
//! re-ranks of every set's clock against the reference model's LLC
//! (`support/reference.rs`), whose stamps are on one 64-bit clock.
//!
//! A packed line keeps 9 bits of last-use stamp, and each set its own
//! clock, advanced once per access to the set; when a set's clock reaches
//! `MAX_STAMP` the set's non-zero stamps are rewritten as their ranks and
//! its clock restarts at `ways`. The claim is that no decision can tell:
//! victim selection is the only reader of a stamp and compares stamps of
//! one set only. The model keeps one clock for the whole cache that never
//! wraps, and exact sharer sets from which it derives the shared bit the
//! cache keeps instead. Each sequence runs long enough that every set
//! re-ranks at least three times — under changing fill masks and
//! requestors 0..=31 (so the top filler id, beside the shared bit, is in
//! play), with invalidations and way flushes in between so sets hold
//! emptied ways with stale meta words when they are re-ranked. After every
//! access the outcome, the evicted line with its filler and shared bit,
//! and the residency of the whole universe must agree. 150 sequences per
//! policy.

#[path = "support/reference.rs"]
mod reference;

use llc_sim::replacement::ReplacementPolicy;
use llc_sim::set::{MAX_FILLERS, MAX_STAMP};
use llc_sim::{CacheGeometry, Cbm, LineAddr, SetAssocCache};
use reference::Llc;

fn random_nonempty_mask(g: &mut prop_lite::Gen, ways: u32) -> Cbm {
    let start = g.u32_in(0, ways - 1);
    let count = g.u32_in(1, ways - start);
    Cbm::from_way_range(start, count)
}

/// Re-ranks a `ways`-way set has made after `accesses` accesses: the first
/// at access `MAX_STAMP + 1`, each later one `MAX_STAMP - ways` on, once
/// its restarted clock has climbed back to the top.
fn reranks(accesses: u64, ways: u32) -> u64 {
    let (top, period) = (u64::from(MAX_STAMP), u64::from(MAX_STAMP - ways));
    accesses
        .checked_sub(top + 1)
        .map_or(0, |past| 1 + past / period)
}

fn lockstep_cases(label: &str, policy: ReplacementPolicy) {
    let name = format!("stamp_renormalisation_{label}");
    prop_lite::run_cases(&name, 150, |g| {
        let geometry = CacheGeometry::new(g.u32_in(1, 4), g.u32_in(1, 8), 64);
        let mut cache = SetAssocCache::with_policy(geometry, policy);
        let mut oracle = Llc::new(geometry, policy);
        // About twice as many lines a set as it has ways: sequences hit,
        // evict and re-fill evicted lines.
        let universe = u64::from(geometry.sets) * (2 * u64::from(geometry.ways) + 2);
        let mut mask = random_nonempty_mask(g, geometry.ways);
        let mut per_set = vec![0u64; geometry.sets as usize];
        // Four clock spans a set on average: three re-ranks need a little
        // over three.
        let mut accesses = u64::from(geometry.sets) * 4 * u64::from(MAX_STAMP);
        while accesses > 0 {
            let line = LineAddr(g.u64_in(0, universe - 1));
            let set = (line.0 % u64::from(geometry.sets)) as usize;
            match g.u32_in(0, 19) {
                0..=15 => {
                    let requestor = g.u32_in(0, MAX_FILLERS - 1);
                    assert_eq!(
                        cache.access_as(line, mask, requestor),
                        oracle.access_as(line, mask, requestor),
                        "access_as diverged for {line:?} by {requestor}"
                    );
                    accesses -= 1;
                    per_set[set] += 1;
                }
                16 => mask = random_nonempty_mask(g, geometry.ways),
                17..=18 => assert_eq!(
                    cache.invalidate(line),
                    oracle.invalidate(line),
                    "invalidate diverged for {line:?}"
                ),
                _ => {
                    let flushed = random_nonempty_mask(g, geometry.ways);
                    let mut dropped = Vec::new();
                    cache.drain_lines_in(flushed, |gone| dropped.push(gone));
                    assert_eq!(dropped, oracle.drain(flushed), "flush diverged");
                }
            }
            for l in (0..universe).map(LineAddr) {
                assert_eq!(cache.probe(l), oracle.probe(l), "residency of {l:?}");
            }
        }
        for (set, &count) in per_set.iter().enumerate() {
            let times = reranks(count, geometry.ways);
            assert!(
                times >= 3,
                "set {set} re-ranked {times} times in {count} accesses"
            );
        }
    });
}

#[test]
fn narrow_stamps_match_wide_stamps_lru() {
    lockstep_cases("lru", ReplacementPolicy::Lru);
}

#[test]
fn narrow_stamps_match_wide_stamps_fifo() {
    lockstep_cases("fifo", ReplacementPolicy::Fifo);
}

#[test]
fn narrow_stamps_match_wide_stamps_random() {
    lockstep_cases("random", ReplacementPolicy::Random);
}

/// BIP is the policy with ties: most fills insert at stamp 0, and zeros
/// must stay tied (and below every rank) through every re-rank. The
/// paper's 1-in-32 and a 1-in-2 that mixes zeros and clock stamps in
/// every set.
#[test]
fn narrow_stamps_match_wide_stamps_bip() {
    lockstep_cases("bip32", ReplacementPolicy::bip());
    lockstep_cases("bip2", ReplacementPolicy::Bip { mru_one_in: 2 });
}
