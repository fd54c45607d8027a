//! Memshare-style multi-tenant share accounting (arXiv 1610.08129).
//!
//! Memshare's model, transplanted from a key-value cache onto CAT ways:
//! every tenant holds **shares** (here: its reserved way count) that
//! define a guaranteed *entitlement* of the LLC. Tenants that are not
//! using their entitlement — idle cores, compute-bound phases — lend the
//! surplus into a common pool, and tenants whose miss rate shows demand
//! borrow from that pool in proportion to their shares. A running
//! **credit** ledger (way-ticks lent minus borrowed) breaks ties when
//! the pool is oversubscribed, so a tenant that donated capacity in the
//! past is first in line when it needs capacity back — the reciprocity
//! that distinguishes share accounting from plain work conservation.
//!
//! COS pressure is handled by *coalescing*: tenants are grouped by their
//! granted way count and each group shares one COS sized to the sum of
//! its members' grants (members contend within the pooled partition,
//! like Memshare tenants inside one memory arena). The number of
//! programmed COS is bounded by a fixed partition budget (8, or the
//! hardware's `num_closids - 1` if fewer) regardless of tenant count.
//!
//! Deterministic throughout: integer entitlements via largest-remainder
//! apportionment, credit ties broken on domain index, `BTreeMap` for
//! grouping — no RNG, no wall clock, no hash-order iteration.

use std::collections::BTreeMap;

use resctrl::{CacheController, Class, CosId, DefaultClass, Programmed, ResctrlError};

use crate::baselines::{largest_remainder, MetricsTracker};
use crate::controller::{DomainReport, WorkloadHandle};
use crate::invariants::InvariantViolation;
use crate::policy::{CachePolicy, TickInput};
use crate::state::WorkloadClass;

/// [`MemsharePolicy`]'s configuration. It has no field: the policy's
/// thresholds are constants and its way floor is the hardware's
/// `min_cbm_bits`. It is kept only for the system benchmark's link list
/// (`MemshareConfig::default()`, passed to [`MemsharePolicy::new`]); it
/// goes with ROADMAP item 19b.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemshareConfig;

/// Interval miss rate above which a tenant is *needy* (borrows).
const NEEDY_MISS_RATE: f64 = 0.05;
/// `llc_ref / instruction` below which a tenant is *idle* (lends
/// everything above the floor).
const IDLE_INTENSITY: f64 = 1e-3;
/// Upper bound on simultaneously programmed COS, before the clamp to the
/// hardware's `num_closids - 1`.
const MAX_PARTITIONS: u32 = 8;

/// A tenant's demand classification for one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Demand {
    /// Below the intensity floor: lends everything above `min_ways`.
    Idle,
    /// Misses above the needy threshold: borrows from the pool.
    Needy,
    /// In between: runs at its entitlement.
    Content,
    /// No trustworthy interval: keeps its grant and its credit.
    Held,
}

/// Memshare-style share-accounting policy behind [`CachePolicy`].
pub struct MemsharePolicy {
    /// Way floor any active tenant keeps even while lending: the
    /// hardware's `min_cbm_bits`.
    min_ways: u32,
    /// [`MAX_PARTITIONS`], clamped to the hardware's `num_closids - 1`.
    max_partitions: u32,
    tracker: MetricsTracker,
    /// Shares per domain (its reserved way count, floored at 1).
    shares: Vec<u64>,
    /// Integer way entitlement per domain (sums to `cbm_len`).
    entitlement: Vec<u32>,
    /// Cumulative way-ticks lent (+) or borrowed (−).
    credit: Vec<i64>,
    /// This tick's granted ways per domain.
    granted: Vec<u32>,
    /// One COS per group, laid out fresh on each regrouping.
    programmed: Programmed,
    /// Groups (so COS) in the last completed apply.
    partitions: u32,
    cbm_len: u32,
}

impl MemsharePolicy {
    /// Creates the policy; entitlements are apportioned from reserved
    /// ways and the initial (everyone content) layout is programmed.
    pub fn new(
        handles: Vec<WorkloadHandle>,
        cat: &mut dyn CacheController,
        _cfg: MemshareConfig,
    ) -> Result<Self, ResctrlError> {
        let caps = cat.capabilities();
        let hw_partitions = caps.num_closids.saturating_sub(1).max(1);
        let min_ways = caps.min_cbm_bits.max(1);
        let shares: Vec<u64> = handles
            .iter()
            .map(|h| u64::from(h.reserved_ways.max(1)))
            .collect();
        let entitlement = apportion(caps.cbm_len, min_ways, &shares);
        let n = handles.len();
        let mut policy = MemsharePolicy {
            min_ways,
            max_partitions: MAX_PARTITIONS.min(hw_partitions),
            tracker: MetricsTracker::new(handles),
            shares,
            granted: entitlement.clone(),
            entitlement,
            credit: vec![0; n],
            programmed: Programmed::new(caps, DefaultClass::Untouched),
            partitions: 0,
            cbm_len: caps.cbm_len,
        };
        policy.program(cat)?;
        Ok(policy)
    }

    /// Shares per domain (reserved ways, floored at 1) — the weights the
    /// entitlements were apportioned from.
    pub fn shares(&self) -> &[u64] {
        &self.shares
    }

    /// Classifies each domain's demand from the tracker's interval.
    fn classify(&self) -> Vec<Demand> {
        self.tracker
            .interval
            .iter()
            .map(|(m, ok)| {
                if !ok {
                    return Demand::Held;
                }
                if m.instructions == 0 {
                    return Demand::Idle;
                }
                let intensity = m.llc_ref as f64 / m.instructions as f64;
                if intensity < IDLE_INTENSITY {
                    Demand::Idle
                } else if m.llc_miss_rate > NEEDY_MISS_RATE {
                    Demand::Needy
                } else {
                    Demand::Content
                }
            })
            .collect()
    }

    /// Runs one round of share accounting: idle tenants lend down to the
    /// floor, needy tenants borrow the pool in credit order, and the
    /// ledger advances by each tenant's net position. A held tenant sits
    /// the round out: what it lends or borrows stays in or out of the
    /// pool (a loan the lenders no longer cover shrinks to what they do),
    /// and its credit stands.
    fn settle(&mut self, demand: &[Demand]) {
        let n = demand.len().min(self.entitlement.len());
        let mut pool = 0u32;
        for i in 0..n {
            let e = self.entitlement.get(i).copied().unwrap_or(0);
            let Some(slot) = self.granted.get_mut(i) else {
                continue;
            };
            let g = match demand.get(i) {
                Some(Demand::Idle) => self.min_ways.min(e),
                // What it lent stays lent; what it borrowed is settled
                // below, once every lender is counted.
                Some(Demand::Held) => {
                    pool += e.saturating_sub(*slot);
                    continue;
                }
                _ => e,
            };
            pool += e - g;
            *slot = g;
        }
        for i in 0..n {
            let e = self.entitlement.get(i).copied().unwrap_or(0);
            if let (Some(Demand::Held), Some(slot)) = (demand.get(i), self.granted.get_mut(i)) {
                let loan = slot.saturating_sub(e).min(pool);
                pool -= loan;
                *slot = (*slot).min(e) + loan;
            }
        }
        // Borrowers in credit order (past lenders first), index-stable.
        let mut borrowers: Vec<usize> = Vec::with_capacity(n);
        for i in 0..n {
            if demand.get(i) == Some(&Demand::Needy) {
                borrowers.push(i);
            }
        }
        borrowers.sort_by(|&a, &b| self.credit.get(b).cmp(&self.credit.get(a)).then(a.cmp(&b)));
        while pool > 0 && !borrowers.is_empty() {
            let mut gave = false;
            for &i in &borrowers {
                if pool == 0 {
                    break;
                }
                if let Some(slot) = self.granted.get_mut(i) {
                    *slot += 1;
                    pool -= 1;
                    gave = true;
                }
            }
            if !gave {
                break;
            }
        }
        // Ledger: positive when running under entitlement (lending).
        for i in 0..n {
            if demand.get(i) == Some(&Demand::Held) {
                continue;
            }
            let e = i64::from(self.entitlement.get(i).copied().unwrap_or(0));
            let g = i64::from(self.granted.get(i).copied().unwrap_or(0));
            if let Some(c) = self.credit.get_mut(i) {
                *c = c.saturating_add(e - g);
            }
        }
    }

    /// Groups equal grants into shared COS and programs the layout.
    /// Groups beyond the COS budget are merged smallest-first.
    fn program(&mut self, cat: &mut dyn CacheController) -> Result<(), ResctrlError> {
        let mut by_grant: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, &g) in self.granted.iter().enumerate() {
            by_grant.entry(g).or_default().push(i);
        }
        let mut groups: Vec<(u32, Vec<usize>)> = by_grant.into_iter().collect();
        // Merge the two smallest-grant groups until the COS budget and
        // the per-group way floor both fit; the merged group keeps the
        // larger grant per member. This biases merging toward lenders,
        // whose partitions are interchangeable.
        while groups.len() >= 2
            && (groups.len() > self.max_partitions as usize
                || groups.len() as u32 * self.min_ways > self.cbm_len)
        {
            let (_, members0) = groups.remove(0);
            if let Some((merged_grant, members1)) = groups.first_mut() {
                let merged_grant = *merged_grant;
                for &m in &members0 {
                    if let Some(slot) = self.granted.get_mut(m) {
                        *slot = merged_grant;
                    }
                }
                members1.extend(members0);
                members1.sort_unstable();
            }
        }
        // One COS per group, sized to the members' pooled grant but
        // never past the cache.
        let mut counts: Vec<u32> = Vec::with_capacity(groups.len());
        let mut budget = self.cbm_len;
        for (grant, members) in &groups {
            let want = grant
                .saturating_mul(members.len() as u32)
                .max(self.min_ways);
            let take =
                want.min(budget.saturating_sub(
                    (groups.len() as u32 - counts.len() as u32 - 1) * self.min_ways,
                ));
            let take = take.max(self.min_ways.min(budget));
            counts.push(take);
            budget = budget.saturating_sub(take);
        }
        let handles = self.tracker.handles();
        let classes = groups.iter().zip(counts).enumerate();
        self.programmed.apply(
            classes.map(|(j, ((_, members), ways))| Class {
                cos: CosId((j + 1) as u8),
                ways,
                anchor: None,
                cores: members
                    .iter()
                    .filter_map(|&i| handles.get(i))
                    .flat_map(|h| h.cores.iter().copied()),
            }),
            cat,
        )?;
        self.partitions = groups.len() as u32;
        Ok(())
    }

    /// The report class for one domain this tick.
    fn class_of(&self, i: usize, demand: &[Demand]) -> WorkloadClass {
        let e = self.entitlement.get(i).copied().unwrap_or(0);
        let g = self.granted.get(i).copied().unwrap_or(0);
        match demand.get(i) {
            Some(Demand::Idle | Demand::Held) if g < e => WorkloadClass::Donor,
            Some(Demand::Needy | Demand::Held) if g > e => WorkloadClass::Receiver,
            Some(_) => WorkloadClass::Keeper,
            None => WorkloadClass::Unknown,
        }
    }
}

/// Integer largest-remainder apportionment of `total` ways by `shares`,
/// with a `floor` per holder. Degenerate cases (no shares, floors
/// exceeding the cache) fall back to handing everyone the floor clamped to
/// what is left.
fn apportion(total: u32, floor: u32, shares: &[u64]) -> Vec<u32> {
    let mut out = vec![0u32; shares.len()];
    let mut remaining = total;
    for slot in out.iter_mut() {
        *slot = floor.min(remaining);
        remaining -= *slot;
    }
    largest_remainder(remaining, shares, &mut out);
    out
}

impl CachePolicy for MemsharePolicy {
    fn name(&self) -> &'static str {
        "memshare"
    }

    fn decide(
        &mut self,
        input: TickInput<'_>,
        cat: &mut dyn CacheController,
    ) -> Result<&[DomainReport], ResctrlError> {
        self.tracker.advance(&input)?;
        let demand = self.classify();
        self.settle(&demand);
        self.program(cat)
            .inspect_err(|_| self.tracker.hold_masks(&self.programmed))?;
        for i in 0..demand.len() {
            let ways = self.granted.get(i).copied().unwrap_or(0);
            // Group members share their first core's COS.
            let cores = self.tracker.handles().get(i).map(|h| h.cores.as_slice());
            let cbm = cores
                .and_then(|c| c.first())
                .and_then(|&c| self.programmed.core_mask(c))
                .map(|c| u64::from(c.0));
            self.tracker.report(i, ways, self.class_of(i, &demand), cbm);
        }
        Ok(&self.tracker.reports)
    }

    fn reports(&self) -> &[DomainReport] {
        &self.tracker.reports
    }

    fn audit(&mut self) -> Result<(), InvariantViolation> {
        self.programmed.audit().map_err(InvariantViolation::Layout)
    }

    fn frame_ext(&self) -> dcat_obs::PolicyExt {
        let lent: u32 = self
            .entitlement
            .iter()
            .zip(&self.granted)
            .map(|(&e, &g)| e.saturating_sub(g))
            .sum();
        let credit_min = self.credit.iter().copied().min().unwrap_or(0);
        let credit_max = self.credit.iter().copied().max().unwrap_or(0);
        dcat_obs::PolicyExt {
            cos: self.partitions,
            lfoc: None,
            memshare: Some(dcat_obs::MemshareExt {
                lent,
                credit_min,
                credit_max,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_events::CounterSnapshot;
    use resctrl::{CatCapabilities, InMemoryController};

    #[expect(
        clippy::integer_division,
        reason = "fixture arithmetic: the truncated quotient is the intended value"
    )]
    fn snapshot(ins: u64, llc_ref: u64, llc_miss: u64) -> CounterSnapshot {
        CounterSnapshot {
            l1_ref: ins / 3,
            llc_ref,
            llc_miss,
            ret_ins: ins,
            cycles: ins,
        }
    }

    fn accumulate(t: u64, per: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            l1_ref: per.l1_ref * t,
            llc_ref: per.llc_ref * t,
            llc_miss: per.llc_miss * t,
            ret_ins: per.ret_ins * t,
            cycles: per.cycles * t,
        }
    }

    #[test]
    fn idle_tenants_lend_and_needy_tenants_borrow() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 2);
        let handles = vec![
            WorkloadHandle::new("idle", vec![0], 8),
            WorkloadHandle::new("needy", vec![1], 8),
        ];
        let mut p = MemsharePolicy::new(handles, &mut cat, MemshareConfig).unwrap();
        let mut last = Vec::new();
        for t in 1..=4u64 {
            let snaps = vec![
                accumulate(t, snapshot(1000, 0, 0)),
                accumulate(t, snapshot(1000, 400, 200)),
            ];
            last = p.tick(&snaps, &mut cat).unwrap();
        }
        assert_eq!(last[0].class, WorkloadClass::Donor);
        assert_eq!(last[1].class, WorkloadClass::Receiver);
        assert!(last[0].ways < last[1].ways, "{last:?}");
        assert_eq!(
            last[1].ways, 19,
            "borrower takes the whole lent surplus: {last:?}"
        );
        assert!(!cat.has_overlapping_active_masks());
    }

    #[test]
    fn credit_breaks_ties_toward_past_lenders() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(9), 4);
        // Entitlements come out [4, 2, 3]: when `b` lends its single
        // surplus way, exactly one pooled way exists and the ledger must
        // decide who gets it.
        let handles = vec![
            WorkloadHandle::new("a", vec![0], 4),
            WorkloadHandle::new("b", vec![1], 1),
            WorkloadHandle::new("c", vec![2], 4),
        ];
        let mut p = MemsharePolicy::new(handles, &mut cat, MemshareConfig).unwrap();
        // Phase 1: `a` idles (lends), b/c needy (borrow).
        for t in 1..=3u64 {
            p.tick(
                &[
                    accumulate(t, snapshot(1000, 0, 0)),
                    accumulate(t, snapshot(1000, 400, 100)),
                    accumulate(t, snapshot(1000, 400, 100)),
                ],
                &mut cat,
            )
            .unwrap();
        }
        // Phase 2: everyone needy; the lone surplus way must go to `a`,
        // whose ledger is positive from phase 1 — but there is no pool
        // now, so grants return to entitlements.
        let base = 4u64;
        let r = p
            .tick(
                &[
                    accumulate(base, snapshot(1000, 400, 100)),
                    accumulate(base, snapshot(1000, 400, 100)),
                    accumulate(base, snapshot(1000, 400, 100)),
                ],
                &mut cat,
            )
            .unwrap();
        assert_eq!(r.iter().map(|d| d.ways).sum::<u32>(), 9);
        // Phase 3: `b` idles; between equally-needy a and c, credit puts
        // `a` (the past lender) first for the odd lent way.
        let r = p
            .tick(
                &[
                    accumulate(base + 1, snapshot(1000, 400, 100)),
                    accumulate(base + 1, snapshot(1000, 0, 0)),
                    accumulate(base + 1, snapshot(1000, 400, 100)),
                ],
                &mut cat,
            )
            .unwrap();
        assert!(
            r[0].ways > r[2].ways,
            "past lender must be first in line for the lone pooled way: {r:?}"
        );
        assert_eq!(r[1].class, WorkloadClass::Donor);
    }

    #[test]
    fn many_tenants_fit_the_cos_budget() {
        let n = 32u32;
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), n);
        let handles: Vec<WorkloadHandle> = (0..n)
            .map(|i| WorkloadHandle::new(format!("t{i}"), vec![i], 1))
            .collect();
        let mut p = MemsharePolicy::new(handles, &mut cat, MemshareConfig).unwrap();
        for t in 1..=4u64 {
            let snaps: Vec<CounterSnapshot> = (0..n)
                .map(|i| match i % 3 {
                    0 => accumulate(t, snapshot(1000, 0, 0)),
                    1 => accumulate(t, snapshot(1000, 300, 5)),
                    _ => accumulate(t, snapshot(1000, 300, 120)),
                })
                .collect();
            let r = p.tick(&snaps, &mut cat).unwrap();
            assert_eq!(r.len(), n as usize);
        }
        let distinct: std::collections::BTreeSet<u8> = (0..n)
            .filter_map(|c| cat.core_cos(c).ok().map(|cos| cos.0))
            .collect();
        assert!(distinct.len() <= MAX_PARTITIONS as usize, "{distinct:?}");
        assert!(!cat.has_overlapping_active_masks());
        assert_eq!(p.name(), "memshare");
    }

    #[test]
    fn accounting_is_deterministic() {
        let run = || {
            let n = 10u32;
            let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), n);
            let handles: Vec<WorkloadHandle> = (0..n)
                .map(|i| WorkloadHandle::new(format!("t{i}"), vec![i], 1 + i % 3))
                .collect();
            let mut p = MemsharePolicy::new(handles, &mut cat, MemshareConfig).unwrap();
            let mut out = Vec::new();
            for t in 1..=6u64 {
                let snaps: Vec<CounterSnapshot> = (0..n)
                    .map(|i| {
                        accumulate(
                            t,
                            snapshot(1000, 100 * u64::from(i % 4), 30 * u64::from(i % 3)),
                        )
                    })
                    .collect();
                for r in p.tick(&snaps, &mut cat).unwrap() {
                    out.push(format!("{}:{}:{:?}", r.name, r.ways, r.class));
                }
            }
            (out, cat.log.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn apportionment_is_exact() {
        let e = apportion(20, 1, &[3, 3, 3]);
        assert_eq!(e.iter().sum::<u32>(), 20);
        let e = apportion(20, 1, &[1, 2, 3, 4]);
        assert_eq!(e.iter().sum::<u32>(), 20);
        assert!(e.windows(2).all(|w| w[0] <= w[1]));
        assert!(apportion(4, 1, &[5, 5, 5, 5, 5, 5]).iter().all(|&w| w <= 1));
    }
}
