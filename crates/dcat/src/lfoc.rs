//! LFOC-style workload clustering onto shared COS (arXiv 2402.07578).
//!
//! dCat assigns one class of service per workload, which caps a host at
//! `num_closids - 1` tenants (15 on the paper's machines). A fleet host
//! packs far more. LFOC's answer — reproduced here in its structural
//! essentials — is to **cluster** workloads with similar cache behavior
//! onto a shared COS:
//!
//! * workloads that cannot profit from LLC capacity (idle cores, and
//!   streaming/thrashing patterns whose miss rate stays near 1.0 no
//!   matter the allocation) are fenced into one small *insensitive*
//!   bucket so they stop polluting everyone else — the same insight as
//!   dCat's `Streaming` class, applied fleet-wide;
//! * cache-sensitive workloads are sorted by their smoothed miss rate
//!   and split into quantile clusters; each cluster gets one COS sized
//!   by its aggregate miss pressure.
//!
//! The number of programmed COS is therefore bounded by
//! [`LfocConfig::max_clusters`] regardless of tenant count. Within a
//! cluster, tenants share the partition unpartitioned (LFOC accepts
//! intra-cluster interference between look-alikes in exchange for
//! isolation between clusters).
//!
//! Everything is deterministic: features are smoothed with a fixed-weight
//! EWMA, ordering ties break on domain index, and way apportionment is
//! integer largest-remainder — no RNG, no wall clock, no hash iteration.

use resctrl::{CacheController, CosId, ResctrlError};

use crate::baselines::{largest_remainder, MetricsTracker};
use crate::controller::WorkloadHandle;
use crate::policy::{Allocation, CachePolicy, TickInput};
use crate::state::WorkloadClass;

/// Tuning knobs for [`LfocPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct LfocConfig {
    /// Upper bound on simultaneously programmed clusters (each cluster
    /// occupies one COS). Clamped to the hardware's `num_closids - 1`.
    pub max_clusters: u32,
    /// Re-cluster every this many ticks; between reclusterings the
    /// assignment is stable so tenants keep warm partitions.
    pub recluster_ticks: u64,
}

impl Default for LfocConfig {
    fn default() -> Self {
        LfocConfig {
            max_clusters: 4,
            recluster_ticks: 4,
        }
    }
}

/// Weight of the newest observation in the feature EWMA.
const SMOOTHING: f64 = 0.5;
/// `llc_ref / instruction` below which a domain is considered
/// cache-insensitive (idle or compute-bound).
const IDLE_INTENSITY: f64 = 1e-3;
/// Smoothed miss rate above which a domain is treated as
/// streaming/thrashing (no allocation will help it).
const STREAMING_MISS_RATE: f64 = 0.9;

/// Smoothed per-domain behavior signature.
#[derive(Debug, Clone, Copy, Default)]
struct Feature {
    /// EWMA of the interval LLC miss rate.
    miss_rate: f64,
    /// EWMA of LLC references per instruction.
    intensity: f64,
    /// Whether any active interval has been observed yet.
    warm: bool,
}

/// The insensitive bucket's cluster id; sensitive clusters follow.
const INSENSITIVE: usize = 0;

/// LFOC-style clustering policy behind [`CachePolicy`].
pub struct LfocPolicy {
    cfg: LfocConfig,
    /// Way floor for every cluster: the hardware's `min_cbm_bits`.
    min_ways: u32,
    /// Its plan: the occupied clusters' COS, each anchored under its
    /// cluster id so a cluster's mask stays put while its COS id follows
    /// its index.
    tracker: MetricsTracker,
    features: Vec<Feature>,
    /// Cluster id per domain (0 = insensitive bucket).
    cluster_of: Vec<usize>,
    /// Ways granted to each cluster (index = cluster id).
    cluster_ways: Vec<u32>,
    cbm_len: u32,
    ticks: u64,
}

impl LfocPolicy {
    /// Creates the policy and programs the initial single-cluster layout
    /// (everyone shares the full cache until features warm up) through
    /// the one apply.
    pub fn new(
        handles: Vec<WorkloadHandle>,
        cat: &mut dyn CacheController,
        mut cfg: LfocConfig,
    ) -> Result<Self, ResctrlError> {
        let caps = cat.capabilities();
        let hw_clusters = caps.num_closids.saturating_sub(1).max(1);
        cfg.max_clusters = cfg.max_clusters.clamp(1, hw_clusters);
        cfg.recluster_ticks = cfg.recluster_ticks.max(1);
        let n = handles.len();
        let mut policy = LfocPolicy {
            cfg,
            min_ways: caps.min_cbm_bits.max(1),
            tracker: MetricsTracker::new(handles, caps),
            features: vec![Feature::default(); n],
            cluster_of: vec![INSENSITIVE; n],
            cluster_ways: vec![caps.cbm_len],
            cbm_len: caps.cbm_len,
            ticks: 0,
        };
        policy.stage();
        policy.tracker.allocation.start(cat)?;
        Ok(policy)
    }

    /// Folds the tracker's interval into the smoothed features. A held
    /// lane's features stand — its zero filler is not an idle interval —
    /// so a reclustering sorts it where it was.
    fn update_features(&mut self) {
        for (f, (m, ok)) in self.features.iter_mut().zip(&self.tracker.interval) {
            if !ok {
                continue;
            }
            if m.instructions == 0 {
                // Idle interval: decay intensity toward zero, keep the
                // miss-rate estimate (no evidence either way).
                f.intensity *= 1.0 - SMOOTHING;
                continue;
            }
            let intensity = m.llc_ref as f64 / m.instructions as f64;
            if f.warm {
                f.miss_rate = (1.0 - SMOOTHING) * f.miss_rate + SMOOTHING * m.llc_miss_rate;
                f.intensity = (1.0 - SMOOTHING) * f.intensity + SMOOTHING * intensity;
            } else {
                f.miss_rate = m.llc_miss_rate;
                f.intensity = intensity;
                f.warm = true;
            }
        }
    }

    /// Recomputes the cluster assignment and per-cluster way grants.
    #[expect(
        clippy::indexing_slicing,
        clippy::integer_division,
        reason = "loop-bounded: every index is a domain below `n`, and `features` and `cluster_of` hold one entry per domain; `rank * groups / len` is the quantile split, truncation included"
    )]
    fn recluster(&mut self) {
        let n = self.features.len();
        // Split sensitive vs insensitive.
        let mut sensitive: Vec<usize> = Vec::with_capacity(n);
        for (i, f) in self.features.iter().enumerate() {
            let insensitive =
                !f.warm || f.intensity < IDLE_INTENSITY || f.miss_rate > STREAMING_MISS_RATE;
            if insensitive {
                self.cluster_of[i] = INSENSITIVE;
            } else {
                sensitive.push(i);
            }
        }
        // Quantile-cluster the sensitive set by smoothed miss rate;
        // ties break on domain index so the split is total-ordered.
        sensitive.sort_by(|&a, &b| {
            self.features[a]
                .miss_rate
                .total_cmp(&self.features[b].miss_rate)
                .then(a.cmp(&b))
        });
        let groups = (self.cfg.max_clusters as usize)
            .saturating_sub(1)
            .min(sensitive.len());
        if groups == 0 {
            // A one-COS budget cannot separate anyone.
            for &i in &sensitive {
                self.cluster_of[i] = INSENSITIVE;
            }
        }
        for (rank, &i) in sensitive.iter().enumerate() {
            if groups == 0 {
                break;
            }
            // rank * groups / len is a balanced quantile split.
            let g = rank * groups / sensitive.len();
            self.cluster_of[i] = 1 + g.min(groups - 1);
        }
        let clusters = 1 + groups;
        // Weight each sensitive cluster by its aggregate miss pressure;
        // the insensitive bucket is pinned to the floor.
        let mut weights = vec![0u64; clusters];
        let mut members = vec![0u64; clusters];
        for i in 0..n {
            let c = self.cluster_of[i];
            if let (Some(w), Some(m)) = (weights.get_mut(c), members.get_mut(c)) {
                let f = &self.features[i];
                // 100 base + up to 1000 of miss pressure, integerized so
                // apportionment stays exact.
                *w += 100 + (f.miss_rate.clamp(0.0, 1.0) * 1000.0) as u64;
                *m += 1;
            }
        }
        self.cluster_ways = apportion_ways(self.cbm_len, self.min_ways, &weights, &members);
    }

    /// Stages one COS per non-empty cluster, with its members' cores.
    fn stage(&mut self) {
        let clusters = self.cluster_ways.len();
        // Compact to non-empty clusters (layout forbids zero counts).
        let occupied = (0..clusters)
            .filter(|&c| self.cluster_of.contains(&c) || (c == INSENSITIVE && clusters == 1));
        let classes = occupied.enumerate().map(|(j, c)| {
            let ways = self.cluster_ways.get(c).copied().unwrap_or(1).max(1);
            let members = self.cluster_of.iter().enumerate();
            let members = members.filter(move |&(_, &k)| k == c).map(|(i, _)| i);
            (CosId((j + 1) as u8), ways, Some(c), members)
        });
        self.tracker.allocation.stage(classes);
    }

    /// The report class for domain `i` under the current clustering.
    fn class_of(&self, i: usize) -> WorkloadClass {
        let f = match self.features.get(i) {
            Some(f) => f,
            None => return WorkloadClass::Unknown,
        };
        if !f.warm {
            return WorkloadClass::Unknown;
        }
        if self.cluster_of.get(i).copied() == Some(INSENSITIVE) {
            return if f.miss_rate > STREAMING_MISS_RATE && f.intensity >= IDLE_INTENSITY {
                WorkloadClass::Streaming
            } else {
                WorkloadClass::Donor
            };
        }
        let top = self.cluster_ways.len().saturating_sub(1);
        if self.cluster_of.get(i).copied() == Some(top) && top > INSENSITIVE {
            WorkloadClass::Receiver
        } else {
            WorkloadClass::Keeper
        }
    }
}

/// Integer largest-remainder apportionment of `total` ways.
///
/// The insensitive bucket (index 0) is pinned to `floor` when occupied;
/// every other occupied cluster receives at least `floor` and the rest
/// proportionally to its weight. Deterministic: remainders tie-break on
/// cluster index.
fn apportion_ways(total: u32, floor: u32, weights: &[u64], members: &[u64]) -> Vec<u32> {
    let occupied = |c: usize| members.get(c).is_some_and(|&m| m > 0);
    let mut ways = vec![0u32; weights.len()];
    let mut remaining = total;
    // Floors first (the insensitive bucket stays at its floor).
    for (_, w) in ways.iter_mut().enumerate().filter(|&(c, _)| occupied(c)) {
        *w = floor.min(remaining);
        remaining -= *w;
    }
    let sensitive = |(c, &w): (usize, &u64)| if c != 0 && occupied(c) { w } else { 0 };
    let weights: Vec<u64> = weights.iter().enumerate().map(sensitive).collect();
    if weights.iter().all(|&w| w == 0) {
        // Nothing sensitive: hand the remainder to the first cluster.
        let first = (0..ways.len()).find(|&c| occupied(c)).unwrap_or(0);
        if let Some(w) = ways.get_mut(first) {
            *w += remaining;
        }
        return ways;
    }
    largest_remainder(remaining, &weights, &mut ways);
    ways
}

impl CachePolicy for LfocPolicy {
    fn name(&self) -> &'static str {
        "lfoc"
    }

    /// Reclusters every `recluster_ticks`; every tick's plan is the
    /// current clustering's whole layout.
    fn decide(&mut self, input: &mut TickInput<'_>) -> &mut Allocation {
        self.tracker.advance(input);
        self.update_features();
        self.ticks += 1;
        if self.ticks.is_multiple_of(self.cfg.recluster_ticks) {
            self.recluster();
        }
        self.stage();
        for i in 0..self.features.len() {
            let cluster = self.cluster_of.get(i).copied().unwrap_or(INSENSITIVE);
            let ways = self
                .cluster_ways
                .get(cluster)
                .copied()
                .unwrap_or(self.cbm_len);
            let class = self.class_of(i);
            self.tracker.report(i, ways, class);
        }
        &mut self.tracker.allocation
    }

    fn allocation(&self) -> &Allocation {
        &self.tracker.allocation
    }

    fn frame_ext(&self) -> dcat_obs::PolicyExt {
        let clusters = self.cluster_ways.len();
        let mut occupied = 0u32;
        for c in INSENSITIVE + 1..clusters {
            if self.cluster_of.contains(&c) {
                occupied += 1;
            }
        }
        let insensitive = self
            .cluster_of
            .iter()
            .filter(|&&c| c == INSENSITIVE)
            .count() as u32;
        dcat_obs::PolicyExt {
            // One COS per occupied cluster, plus the insensitive bucket
            // when anyone is fenced into it.
            cos: occupied + u32::from(insensitive > 0),
            lfoc: Some(dcat_obs::LfocExt {
                clusters: occupied,
                insensitive,
            }),
            memshare: None,
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
    fn snapshot(ins: u64, cyc: u64, llc_ref: u64, llc_miss: u64) -> CounterSnapshot {
        CounterSnapshot {
            l1_ref: ins / 3,
            llc_ref,
            llc_miss,
            ret_ins: ins,
            cycles: cyc,
        }
    }

    fn accumulate(ticks: u64, per: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            l1_ref: per.l1_ref * ticks,
            llc_ref: per.llc_ref * ticks,
            llc_miss: per.llc_miss * ticks,
            ret_ins: per.ret_ins * ticks,
            cycles: per.cycles * ticks,
        }
    }

    /// 24 tenants — way beyond the 15-COS budget — in three behavior
    /// archetypes. The policy must fit them into `max_clusters` COS.
    #[test]
    fn clusters_many_tenants_into_few_cos() {
        let n = 24u32;
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), n);
        let handles: Vec<WorkloadHandle> = (0..n)
            .map(|i| WorkloadHandle::new(format!("t{i}"), vec![i], 1))
            .collect();
        let mut p = LfocPolicy::new(handles, &mut cat, LfocConfig::default()).unwrap();
        let per_tick: Vec<CounterSnapshot> = (0..n)
            .map(|i| match i % 3 {
                0 => snapshot(1000, 1000, 300, 30),  // cache-friendly
                1 => snapshot(1000, 2000, 400, 380), // streaming
                _ => snapshot(1000, 1500, 300, 150), // miss-heavy
            })
            .collect();
        for t in 1..=8u64 {
            let snaps: Vec<CounterSnapshot> = per_tick.iter().map(|s| accumulate(t, *s)).collect();
            let r = p.tick(&snaps, &mut cat).unwrap();
            assert_eq!(r.len(), n as usize);
        }
        assert!(!cat.has_overlapping_active_masks());
        let distinct: std::collections::BTreeSet<u8> = (0..n)
            .filter_map(|c| cat.core_cos(c).ok().map(|cos| cos.0))
            .collect();
        assert!(
            distinct.len() <= LfocConfig::default().max_clusters as usize,
            "expected ≤ {} clusters, got {distinct:?}",
            LfocConfig::default().max_clusters
        );
        assert!(distinct.len() >= 2, "behaviors must separate: {distinct:?}");
        assert_eq!(p.name(), "lfoc");
    }

    #[test]
    fn streaming_tenants_are_fenced_into_the_insensitive_bucket() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 4);
        let handles = vec![
            WorkloadHandle::new("friendly", vec![0], 1),
            WorkloadHandle::new("stream", vec![1], 1),
        ];
        let mut p = LfocPolicy::new(handles, &mut cat, LfocConfig::default()).unwrap();
        let mut last = Vec::new();
        for t in 1..=8u64 {
            let snaps = vec![
                accumulate(t, snapshot(1000, 1000, 300, 15)),
                accumulate(t, snapshot(1000, 3000, 500, 490)),
            ];
            last = p.tick(&snaps, &mut cat).unwrap();
        }
        assert_eq!(last[1].class, WorkloadClass::Streaming);
        assert!(
            last[1].ways <= last[0].ways,
            "streaming bucket must not out-size the sensitive cluster: {last:?}"
        );
    }

    #[test]
    fn reclustering_is_deterministic() {
        let run = || {
            let n = 12u32;
            let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), n);
            let handles: Vec<WorkloadHandle> = (0..n)
                .map(|i| WorkloadHandle::new(format!("t{i}"), vec![i], 1))
                .collect();
            let mut p = LfocPolicy::new(handles, &mut cat, LfocConfig::default()).unwrap();
            let mut out = Vec::new();
            for t in 1..=6u64 {
                let snaps: Vec<CounterSnapshot> = (0..n)
                    .map(|i| {
                        accumulate(
                            t,
                            snapshot(
                                1000 + u64::from(i),
                                1500,
                                200 + 20 * u64::from(i),
                                10 * u64::from(i),
                            ),
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
    fn apportionment_is_exact_and_respects_floors() {
        let ways = apportion_ways(20, 1, &[100, 300, 700], &[2, 3, 3]);
        assert_eq!(ways.iter().sum::<u32>(), 20);
        assert!(ways.iter().all(|&w| w >= 1));
        assert_eq!(ways[0], 1, "insensitive bucket pinned to the floor");
        assert!(ways[2] > ways[1], "weightier cluster gets more ways");
    }
}
