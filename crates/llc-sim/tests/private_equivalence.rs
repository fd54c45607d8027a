//! Decision-identity of `PrivateCache` against the stamped cache it
//! replaced behind `Hierarchy`'s L1 and L2.
//!
//! The recency list keeps no stamps, clock, occupancy word or owner word;
//! `SetAssocCache::new(g)` under `Cbm::all` is what the private caches
//! used to be and stays as the oracle. Both are driven in lockstep through
//! randomized sequences of access / touch / fill of an absent line /
//! invalidate / flush, and after *every* operation they must agree on the
//! result (hit or miss, the evicted line) and on the residency of every
//! line of the sequence's universe. Which way holds a line is the one
//! thing they may differ on, and neither exposes it.
//!
//! 2 000 sequences per geometry: 1-way, 2-way, 64×8 (the fleet's L1 and
//! the socket's `l1d()` are the same shape), the fleet's 128×8 L2, the
//! socket's `l2()`, and a set count that is not a power of two — 12 000
//! in all.

use llc_sim::{AccessOutcome, CacheGeometry, Cbm, LineAddr, PrivateCache, SetAssocCache};

/// The oracle's half of an operation the stamped cache has no single call
/// for: `touch` is an access that only happens when the line is resident,
/// `fill` one that only happens when it is not.
struct Oracle {
    cache: SetAssocCache,
    mask: Cbm,
}

impl Oracle {
    fn new(geometry: CacheGeometry) -> Self {
        Oracle {
            cache: SetAssocCache::new(geometry),
            mask: Cbm::full(geometry.ways),
        }
    }

    /// `(hit, evicted)` of one access.
    fn access(&mut self, line: LineAddr) -> (bool, Option<LineAddr>) {
        match self.cache.access_as(line, self.mask, 0) {
            AccessOutcome::Hit => (true, None),
            AccessOutcome::Miss { evicted } => (false, evicted.map(|gone| gone.line)),
        }
    }

    fn touch(&mut self, line: LineAddr) -> bool {
        self.cache.probe(line) && self.access(line).0
    }
}

fn equivalence_cases(label: &str, geometry: CacheGeometry) {
    let name = format!("private_cache_equivalence_{label}");
    prop_lite::run_cases(&name, 2_000, |g| {
        let mut list = PrivateCache::new(geometry);
        let mut oracle = Oracle::new(geometry);
        // A universe that collides: a few sets, and in each about twice
        // as many lines as it has ways, so sequences hit, evict, re-fill
        // evicted lines and invalidate resident ones.
        let sets = u64::from(geometry.sets);
        let hot_sets: Vec<u64> = (0..3).map(|_| g.u64_in(0, sets - 1)).collect();
        let depth = u64::from(geometry.ways) * 2 + 2;
        let universe: Vec<LineAddr> = hot_sets
            .iter()
            .flat_map(|&set| (0..depth).map(move |k| LineAddr(set + k * sets)))
            .collect();
        let ops = g.usize_in(20, 80);
        for _ in 0..ops {
            let line = *g.pick(&universe);
            match g.u32_in(0, 11) {
                0..=4 => {
                    let before: Vec<bool> = universe.iter().map(|&l| list.probe(l)).collect();
                    let hit = list.access(line);
                    let (oracle_hit, oracle_evicted) = oracle.access(line);
                    assert_eq!(hit, oracle_hit, "access diverged for {line:?}");
                    // `access` does not report its victim; it is the one
                    // line that was resident and no longer is.
                    let evicted = universe
                        .iter()
                        .zip(&before)
                        .find(|(&l, &was)| was && !list.probe(l))
                        .map(|(&l, _)| l);
                    assert_eq!(evicted, oracle_evicted, "access evicted another line");
                }
                5..=6 => {
                    assert_eq!(list.touch(line), oracle.touch(line), "touch diverged");
                }
                7..=8 => {
                    if !list.probe(line) {
                        let (hit, evicted) = oracle.access(line);
                        assert!(!hit, "oracle holds a line the list does not");
                        assert_eq!(list.fill(line), evicted, "fill diverged for {line:?}");
                    }
                }
                9..=10 => {
                    assert_eq!(
                        list.invalidate(line),
                        oracle.cache.invalidate(line),
                        "invalidate diverged for {line:?}"
                    );
                }
                _ => {
                    list.flush();
                    oracle.cache.flush();
                }
            }
            for &seen in &universe {
                assert_eq!(
                    list.probe(seen),
                    oracle.cache.probe(seen),
                    "residency of {seen:?} diverged"
                );
            }
        }
    });
}

#[test]
fn direct_mapped() {
    equivalence_cases("1way", CacheGeometry::new(16, 1, 64));
}

#[test]
fn two_way() {
    equivalence_cases("2way", CacheGeometry::new(8, 2, 64));
}

#[test]
fn fleet_l2() {
    equivalence_cases("fleet_l2", CacheGeometry::new(128, 8, 64));
}

#[test]
fn l1d_of_both_machines() {
    let l1d = CacheGeometry::l1d();
    assert_eq!((l1d.sets, l1d.ways), (64, 8), "the fleet's L1 too");
    equivalence_cases("l1d", l1d);
}

#[test]
fn socket_l2() {
    equivalence_cases("socket_l2", CacheGeometry::l2());
}

#[test]
fn set_count_not_a_power_of_two() {
    equivalence_cases("24x5", CacheGeometry::new(24, 5, 64));
}
