//! Exactness of the 27-bit stamp: a `SetAssocCache` driven across its
//! clock's renormalisation against an oracle on 64-bit stamps.
//!
//! A packed line keeps 27 bits of last-use stamp; when the cache's clock
//! reaches `MAX_STAMP` every set's non-zero stamps are rewritten as their
//! ranks and the clock restarts above them. The claim is that no decision
//! can tell: victim selection is the only reader of a stamp and compares
//! stamps of one set only. The oracle here is one `LegacyCacheSet` per set
//! on a `u64` clock that never wraps, plus the sharer masks the legacy set
//! does not keep and a copy of the cache's draw stream. Each sequence
//! starts its cache a few hundred ticks short of `MAX_STAMP`, crosses the
//! renormalisation, is moved short of `MAX_STAMP` again and crosses a
//! second one — under changing fill masks and requestors, with
//! invalidations and way flushes in between so sets hold emptied ways with
//! stale meta words when they are re-ranked. After every access the
//! outcome, the evicted line with its filler and sharers, and the
//! residency of the whole universe must agree. 2 000 sequences per policy.

use std::collections::BTreeMap;

use llc_sim::replacement::ReplacementPolicy;
use llc_sim::set::legacy::LegacyCacheSet;
use llc_sim::set::{Evicted, MAX_SHARERS, MAX_STAMP};
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
        let evicted = filled.evicted.map(|gone| Evicted {
            sharers: self.sharers.remove(&gone.line).expect("resident"),
            ..gone
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

fn lockstep_cases(label: &str, policy: ReplacementPolicy) {
    let name = format!("stamp_renormalisation_{label}");
    prop_lite::run_cases(&name, 2_000, |g| {
        let geometry = CacheGeometry::new(g.u32_in(1, 4), g.u32_in(1, 8), 64);
        let mut cache = SetAssocCache::with_policy(geometry, policy);
        let mut oracle = Oracle::new(geometry, policy);
        // About twice as many lines a set as it has ways: sequences hit,
        // evict and re-fill evicted lines.
        let universe = u64::from(geometry.sets) * (2 * u64::from(geometry.ways) + 2);
        let mut mask = random_nonempty_mask(g, geometry.ways);
        for _renormalisation in 0..2 {
            // `short` accesses take the clock to MAX_STAMP; the one after
            // re-ranks every set first.
            let short = g.u64_in(100, 300);
            cache.skip_clock_to(MAX_STAMP - short);
            let mut accesses = short + g.u64_in(40, 120);
            while accesses > 0 {
                let line = LineAddr(g.u64_in(0, universe - 1));
                match g.u32_in(0, 19) {
                    0..=13 => {
                        let requestor = g.u32_in(0, MAX_SHARERS - 1);
                        assert_eq!(
                            cache.access_as(line, mask, requestor),
                            oracle.access(line, mask, Some(requestor)),
                            "access_as diverged for {line:?} by {requestor}"
                        );
                        accesses -= 1;
                    }
                    14..=15 => {
                        assert_eq!(
                            cache.access(line, mask),
                            oracle.access(line, mask, None),
                            "access diverged for {line:?}"
                        );
                        accesses -= 1;
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
/// must stay tied (and below every rank) through a renormalisation. The
/// paper's 1-in-32 and a 1-in-2 that mixes zeros and clock stamps in
/// every set.
#[test]
fn narrow_stamps_match_wide_stamps_bip() {
    lockstep_cases("bip32", ReplacementPolicy::bip());
    lockstep_cases("bip2", ReplacementPolicy::Bip { mru_one_in: 2 });
}
