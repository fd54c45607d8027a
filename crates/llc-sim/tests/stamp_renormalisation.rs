//! Exactness of the 9-bit stamp: a `SetAssocCache` driven across many
//! re-ranks of every set's clock against an oracle on 64-bit stamps.
//!
//! A packed line keeps 9 bits of last-use stamp, and each set its own
//! clock, advanced once per access to the set; when a set's clock reaches
//! `MAX_STAMP` the set's non-zero stamps are rewritten as their ranks and
//! its clock restarts at `ways`. The claim is that no decision can tell:
//! victim selection is the only reader of a stamp and compares stamps of
//! one set only. The oracle here is one `LegacyCacheSet` per set on one
//! `u64` clock for the whole cache that never wraps, plus the exact sharer
//! masks the legacy set does not keep — from which it derives the shared
//! bit the cache keeps instead: some requestor other than the filler hit
//! the line — and a copy of the cache's draw stream. Each sequence runs
//! long enough that every set re-ranks at least three times — under
//! changing fill masks and requestors 0..=31 (so the top filler id, beside
//! the shared bit, is in play), with invalidations and way flushes in
//! between so sets hold emptied ways with stale meta words when they are
//! re-ranked. After every access the outcome, the evicted line with its
//! filler and shared bit, and the residency of the whole universe must
//! agree. 150 sequences per policy.

use std::collections::BTreeMap;

use llc_sim::replacement::ReplacementPolicy;
use llc_sim::set::legacy::LegacyCacheSet;
use llc_sim::set::{Evicted, MAX_FILLERS, MAX_STAMP};
use llc_sim::{AccessOutcome, CacheGeometry, LineAddr, SetAssocCache, WayMask};

/// What `SetAssocCache` was before its stamps narrowed, set by set.
struct Oracle {
    sets: Vec<LegacyCacheSet>,
    // Sharer masks of the resident lines.
    sharers: BTreeMap<LineAddr, u32>,
    policy: ReplacementPolicy,
    now: u64,
    draw_state: u64,
}

impl Oracle {
    fn new(geometry: CacheGeometry, policy: ReplacementPolicy) -> Self {
        Oracle {
            sets: (0..geometry.sets)
                .map(|_| LegacyCacheSet::new(geometry.ways))
                .collect(),
            sharers: BTreeMap::new(),
            policy,
            now: 0,
            draw_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The cache's xorshift64* stream, which only Random and BIP advance.
    fn next_draw(&mut self) -> u64 {
        if !self.policy.uses_draw() {
            return 0;
        }
        let mut x = self.draw_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.draw_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn set_of(&mut self, line: LineAddr) -> &mut LegacyCacheSet {
        let sets = self.sets.len() as u64;
        &mut self.sets[(line.0 % sets) as usize]
    }

    /// `access_as` when `sharer` names the requestor, `access` (filler 0,
    /// no sharer recorded) when it is `None`.
    fn access(&mut self, line: LineAddr, mask: WayMask, sharer: Option<u32>) -> AccessOutcome {
        self.now += 1;
        let (now, draw, policy) = (self.now, self.next_draw(), self.policy);
        let bit = sharer.map_or(0, |r| 1 << r);
        if self.set_of(line).lookup_with(line, now, policy).is_some() {
            *self.sharers.get_mut(&line).expect("resident") |= bit;
            return AccessOutcome::Hit;
        }
        let owner = sharer.unwrap_or(0);
        let filled = self
            .set_of(line)
            .fill_with(line, mask, now, owner, policy, draw);
        let evicted = filled.evicted.map(|gone| {
            let sharers = self.sharers.remove(&gone.line).expect("resident");
            Evicted {
                shared: sharers & !(1 << gone.owner) != 0,
                ..gone
            }
        });
        self.sharers.insert(line, bit);
        AccessOutcome::Miss { evicted }
    }

    fn invalidate(&mut self, line: LineAddr) -> bool {
        self.sharers.remove(&line);
        self.set_of(line).invalidate(line)
    }

    /// Dropped lines, set by set and in way order.
    fn invalidate_ways(&mut self, mask: WayMask) -> Vec<LineAddr> {
        let dropped: Vec<LineAddr> = self
            .sets
            .iter_mut()
            .flat_map(|set| set.invalidate_ways(mask))
            .collect();
        for line in &dropped {
            self.sharers.remove(line);
        }
        dropped
    }

    fn probe(&self, line: LineAddr) -> bool {
        self.sharers.contains_key(&line)
    }
}

fn random_nonempty_mask(g: &mut prop_lite::Gen, ways: u32) -> WayMask {
    let start = g.u32_in(0, ways - 1);
    let count = g.u32_in(1, ways - start);
    WayMask::from_way_range(start, count)
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
        let mut oracle = Oracle::new(geometry, policy);
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
                0..=13 => {
                    let requestor = g.u32_in(0, MAX_FILLERS - 1);
                    assert_eq!(
                        cache.access_as(line, mask, requestor),
                        oracle.access(line, mask, Some(requestor)),
                        "access_as diverged for {line:?} by {requestor}"
                    );
                    accesses -= 1;
                    per_set[set] += 1;
                }
                14..=15 => {
                    assert_eq!(
                        cache.access(line, mask),
                        oracle.access(line, mask, None),
                        "access diverged for {line:?}"
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
                    cache.drain_lines_in(flushed, |gone| dropped.push(gone.line));
                    assert_eq!(dropped, oracle.invalidate_ways(flushed), "flush diverged");
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
