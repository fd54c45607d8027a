//! Laying out way *counts* as non-overlapping contiguous CBMs.
//!
//! dCat reasons in "number of ways per workload" (the paper allocates and
//! reclaims one way at a time), but CAT is programmed with contiguous
//! bitmasks. Something must translate `[3, 7, 1, 1]` into concrete,
//! non-overlapping runs of ways — and should avoid gratuitously moving a
//! workload's ways around, because a moved partition starts cold (the
//! paper's Section 6 notes Intel has no way-flush instruction, so a moved
//! workload re-warms from DRAM).
//!
//! [`LayoutPlanner`] does this translation. Placement is left-to-right in
//! a *stable order*: groups are placed in the order of their previous
//! positions, so a group whose way count did not change — and whose
//! left-neighbors did not change — keeps its exact mask.

use crate::controller::ResctrlError;
use crate::invariants;
use cbm::Cbm;

/// Translates per-group way counts into concrete non-overlapping CBMs.
#[derive(Debug, Clone, Copy)]
pub struct LayoutPlanner {
    cbm_len: u32,
}

impl LayoutPlanner {
    /// Creates a planner for a cache with `cbm_len` ways.
    pub fn new(cbm_len: u32) -> Self {
        assert!((1..=32).contains(&cbm_len), "cbm_len out of range");
        LayoutPlanner { cbm_len }
    }

    /// Number of ways the planner lays out over.
    pub fn cbm_len(&self) -> u32 {
        self.cbm_len
    }

    /// Lays out `counts`, disturbing as few groups as possible.
    ///
    /// A moved partition starts cold (there is no way-flush instruction),
    /// so the cost of a relayout should fall on the group that *changed*,
    /// never on bystanders — otherwise every growth step of one tenant
    /// flushes its neighbors, whose IPC blips then confuse any
    /// feedback-driven controller. The algorithm:
    ///
    /// 1. groups whose count is unchanged keep their exact mask; a shrunk
    ///    group keeps its *top* ways, releasing from the bottom — freed
    ///    ways then sit adjacent to the left neighbor, which (with the
    ///    planner's left-to-right packing) is the likeliest grower, so a
    ///    later growth extends in place instead of relocating;
    /// 2. a grown group takes any free contiguous run that contains its
    ///    previous mask (upward first, then sliding downward) — every way
    ///    it already warmed stays warm;
    /// 3. a grower still blocked may displace *one-way* bystanders out of
    ///    such a run: a single-way group holds at most one warm way, so
    ///    moving it costs far less than relocating the multi-way grower;
    /// 4. otherwise it is first-fit placed into a free gap (as are the
    ///    displaced one-way groups);
    /// 5. only if fragmentation leaves no gap does the planner fall back
    ///    to a full left-to-right repack (ordered by previous position).
    ///
    /// Fails when a count is zero (CAT forbids empty masks) or the counts
    /// exceed the cache; unassigned high ways are the free pool. The
    /// layout is written into `result`, a buffer the caller keeps across
    /// intervals (a controller lays out every tick): it is overwritten,
    /// and on error its contents are unspecified.
    #[expect(
        clippy::indexing_slicing,
        reason = "loop-bounded: indices enumerate `counts`, and the assert and `resize` give `previous` and `result` its length; `.get()` would cost the tick (DESIGN.md §12)"
    )]
    pub fn layout_stable_into(
        &self,
        counts: &[u32],
        previous: &[Option<Cbm>],
        result: &mut Vec<Cbm>,
    ) -> Result<(), ResctrlError> {
        assert_eq!(
            counts.len(),
            previous.len(),
            "counts/previous length mismatch"
        );
        let total: u32 = counts.iter().sum();
        if total > self.cbm_len {
            return Err(ResctrlError::InvalidCbm {
                cbm: Cbm::full(self.cbm_len),
                reason: format!("requested {total} ways exceed cbm_len={}", self.cbm_len),
            });
        }
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                return Err(ResctrlError::InvalidCbm {
                    cbm: Cbm(0),
                    reason: format!("group {i} requested zero ways"),
                });
            }
        }

        result.clear();
        result.resize(counts.len(), Cbm(0));
        let mut used = Cbm(0);
        let mut pending: Vec<usize> = Vec::new();
        let mut clashed: Vec<usize> = Vec::new();

        // Pass 1: keepers hold their mask; shrinkers keep their top ways,
        // releasing from the bottom toward the left neighbor.
        // An empty previous mask cannot anchor a placement; such a group
        // (impossible while CAT rejects zero-way masks) falls to pending.
        // Previous masks need not be disjoint (an anchor can outlive the
        // group that last held its ways): a kept run that overlaps one
        // placed before it is first-fit placed below instead.
        for (i, &count) in counts.iter().enumerate() {
            match previous[i].and_then(|prev| prev.first_way().map(|f| (prev, f))) {
                Some((prev, first)) if count <= prev.ways() => {
                    let start = first + (prev.ways() - count);
                    let cbm = Cbm::from_way_range(start, count);
                    if cbm.overlaps(used) {
                        clashed.push(i);
                        continue;
                    }
                    result[i] = cbm;
                    used = used.union(cbm);
                }
                _ => pending.push(i),
            }
        }

        // Pass 2: growers take a free run containing their previous mask
        // (upward first, then sliding downward), keeping every warmed way.
        pending.retain(|&i| match self.superset_run(previous[i], counts[i], used) {
            Some(cbm) => {
                result[i] = cbm;
                used = used.union(cbm);
                false
            }
            None => true,
        });

        // Pass 3: a still-blocked grower may displace one-way groups out
        // of a run containing its previous mask. The displaced groups are
        // re-placed first-fit below; each loses at most one warm way,
        // which is cheaper than the grower losing its whole working set.
        let mut displaced: Vec<usize> = Vec::new();
        let mut firm = Cbm(0);
        for (j, &m) in result.iter().enumerate() {
            if !m.is_empty() && counts[j] != 1 {
                firm = firm.union(m);
            }
        }
        pending.retain(|&i| {
            let Some(cbm) = self.superset_run(previous[i], counts[i], firm) else {
                return true;
            };
            for j in 0..result.len() {
                if j != i && counts[j] == 1 && result[j].overlaps(cbm) {
                    used = used.difference(result[j]);
                    result[j] = Cbm(0);
                    displaced.push(j);
                }
            }
            result[i] = cbm;
            used = used.union(cbm);
            firm = firm.union(cbm);
            false
        });
        pending.extend(displaced);
        pending.extend(clashed);

        // Pass 4: first-fit into free gaps (also handles new groups).
        let mut fragmented = false;
        for &i in &pending {
            let count = counts[i];
            let mut placed = false;
            for start in 0..=self.cbm_len.saturating_sub(count) {
                let cbm = Cbm::from_way_range(start, count);
                if !cbm.overlaps(used) {
                    result[i] = cbm;
                    used = used.union(cbm);
                    placed = true;
                    break;
                }
            }
            if !placed {
                fragmented = true;
                break;
            }
        }
        if fragmented {
            // Pass 5: fragmentation fallback — full repack by previous start.
            let mut order: Vec<usize> = (0..counts.len()).collect();
            order.sort_by_key(|&i| match previous[i] {
                Some(cbm) => (0u8, cbm.first_way().unwrap_or(u32::MAX), i),
                None => (1u8, u32::MAX, i),
            });
            let mut cursor = 0;
            for i in order {
                result[i] = Cbm::from_way_range(cursor, counts[i]);
                cursor += counts[i];
            }
        }
        debug_assert_eq!(
            invariants::check_layout(result, self.cbm_len)
                .and_then(|()| invariants::check_counts(result, counts)),
            Ok(()),
            "layout_stable_into produced an illegal layout"
        );
        Ok(())
    }

    /// The first run of `count` ways holding all of `prev` — upward
    /// first, then sliding downward — that avoids `blocked`.
    fn superset_run(&self, prev: Option<Cbm>, count: u32, blocked: Cbm) -> Option<Cbm> {
        let prev = prev?;
        let first = prev.first_way()?;
        let lo = (first + prev.ways()).saturating_sub(count);
        let starts = (lo..=first)
            .rev()
            .filter(|&start| start + count <= self.cbm_len);
        let runs = starts.map(|start| Cbm::from_way_range(start, count));
        runs.into_iter().find(|run| !run.overlaps(blocked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lay_out(
        p: &LayoutPlanner,
        counts: &[u32],
        previous: &[Option<Cbm>],
    ) -> Result<Vec<Cbm>, ResctrlError> {
        let mut result = Vec::new();
        p.layout_stable_into(counts, previous, &mut result)?;
        Ok(result)
    }

    #[test]
    fn sequential_layout_is_non_overlapping_and_packed() {
        let p = LayoutPlanner::new(20);
        let masks = lay_out(&p, &[3, 7, 1, 1], &[None; 4]).unwrap();
        assert_eq!(masks[0], Cbm::from_way_range(0, 3));
        assert_eq!(masks[1], Cbm::from_way_range(3, 7));
        assert_eq!(masks[2], Cbm::from_way_range(10, 1));
        assert_eq!(masks[3], Cbm::from_way_range(11, 1));
        for i in 0..masks.len() {
            for j in i + 1..masks.len() {
                assert!(!masks[i].overlaps(masks[j]));
            }
        }
    }

    #[test]
    fn zero_count_rejected() {
        let p = LayoutPlanner::new(8);
        assert!(lay_out(&p, &[2, 0], &[None; 2]).is_err());
    }

    #[test]
    fn oversubscription_rejected() {
        let p = LayoutPlanner::new(8);
        assert!(lay_out(&p, &[5, 4], &[None; 2]).is_err());
        assert!(lay_out(&p, &[4, 4], &[None; 2]).is_ok());
    }

    #[test]
    fn stable_layout_keeps_unchanged_groups_in_place() {
        let p = LayoutPlanner::new(20);
        let first = lay_out(&p, &[3, 7, 2], &[None; 3]).unwrap();
        // Group 1 shrinks 7 -> 5; groups 0 and 2 unchanged.
        let prev: Vec<Option<Cbm>> = first.iter().copied().map(Some).collect();
        let second = lay_out(&p, &[3, 5, 2], &prev).unwrap();
        assert_eq!(
            second[0], first[0],
            "leftmost unchanged group keeps its mask"
        );
        // The shrinker keeps its *top* ways, releasing the bottom ones
        // toward its left neighbor (the likeliest future grower).
        assert_eq!(
            second[1].first_way(),
            Some(5),
            "group 1 released its bottom ways"
        );
        assert_eq!(second[1].ways(), 5);
        // Group 2 keeps its exact mask — only the shrinker changed.
        assert_eq!(second[2], first[2]);
    }

    #[test]
    fn stable_layout_leaves_existing_groups_untouched_by_newcomers() {
        let p = LayoutPlanner::new(20);
        let prev = vec![Some(Cbm::from_way_range(5, 3)), None];
        let masks = lay_out(&p, &[3, 2], &prev).unwrap();
        // The existing group keeps its exact mask; the newcomer takes the
        // first free gap.
        assert_eq!(masks[0], Cbm::from_way_range(5, 3));
        assert_eq!(masks[1], Cbm::from_way_range(0, 2));
    }

    #[test]
    fn grower_extends_in_place_when_room_is_free() {
        let p = LayoutPlanner::new(20);
        let prev = vec![
            Some(Cbm::from_way_range(0, 3)),
            Some(Cbm::from_way_range(10, 3)),
        ];
        let masks = lay_out(&p, &[4, 3], &prev).unwrap();
        assert_eq!(masks[0], Cbm::from_way_range(0, 4), "extended in place");
        assert_eq!(masks[1], Cbm::from_way_range(10, 3), "bystander untouched");
    }

    #[test]
    fn blocked_grower_moves_itself_not_its_neighbor() {
        let p = LayoutPlanner::new(20);
        // Group 1 sits directly after group 0, blocking in-place growth.
        let prev = vec![
            Some(Cbm::from_way_range(0, 3)),
            Some(Cbm::from_way_range(3, 3)),
        ];
        let masks = lay_out(&p, &[4, 3], &prev).unwrap();
        assert_eq!(masks[1], Cbm::from_way_range(3, 3), "bystander untouched");
        assert_eq!(masks[0].ways(), 4);
        assert!(!masks[0].overlaps(masks[1]));
        assert_eq!(masks[0].first_way(), Some(6), "grower relocated to the gap");
    }

    #[test]
    fn blocked_grower_displaces_one_way_bystander() {
        let p = LayoutPlanner::new(20);
        // A one-way group sits directly above the grower; the free pool is
        // beyond it. The grower keeps all four warmed ways and the one-way
        // group (at most one warm way to lose) is moved aside.
        let prev = vec![
            Some(Cbm::from_way_range(0, 4)),
            Some(Cbm::from_way_range(4, 1)),
        ];
        let masks = lay_out(&p, &[5, 1], &prev).unwrap();
        assert_eq!(masks[0], Cbm::from_way_range(0, 5), "grower kept its run");
        assert_eq!(masks[1].ways(), 1);
        assert!(!masks[0].overlaps(masks[1]));
    }

    #[test]
    fn grower_fills_a_middle_gap_without_moving_others() {
        let p = LayoutPlanner::new(8);
        let prev = vec![
            Some(Cbm::from_way_range(0, 3)),
            Some(Cbm::from_way_range(6, 2)),
            Some(Cbm::from_way_range(3, 1)),
        ];
        let masks = lay_out(&p, &[3, 2, 3], &prev).unwrap();
        assert_eq!(masks[0], Cbm::from_way_range(0, 3));
        assert_eq!(masks[1], Cbm::from_way_range(6, 2));
        assert_eq!(masks[2], Cbm::from_way_range(3, 3), "grew into the gap");
    }

    #[test]
    fn fragmentation_falls_back_to_repack() {
        let p = LayoutPlanner::new(8);
        // Free ways are {2, 5}: not contiguous, so a new 2-way group can
        // only be placed by repacking everyone.
        let prev = vec![
            Some(Cbm::from_way_range(0, 2)),
            Some(Cbm::from_way_range(3, 2)),
            Some(Cbm::from_way_range(6, 2)),
            None,
        ];
        let masks = lay_out(&p, &[2, 2, 2, 2], &prev).unwrap();
        let union = masks.iter().fold(Cbm(0), |acc, m| acc.union(*m));
        assert_eq!(union.ways(), 8, "every way in use after repack");
        for i in 0..masks.len() {
            assert!(masks[i].is_contiguous());
            assert_eq!(masks[i].ways(), 2);
            for j in i + 1..masks.len() {
                assert!(!masks[i].overlaps(masks[j]));
            }
        }
    }

    #[test]
    fn overlapping_previous_masks_still_yield_a_disjoint_layout() {
        let p = LayoutPlanner::new(8);
        let prev = vec![
            Some(Cbm::from_way_range(0, 4)),
            Some(Cbm::from_way_range(2, 4)),
        ];
        let masks = lay_out(&p, &[4, 3], &prev).unwrap();
        assert_eq!(masks[0], Cbm::from_way_range(0, 4), "first keeper holds");
        assert_eq!(masks[1], Cbm::from_way_range(4, 3), "second is re-placed");
    }

    #[test]
    fn full_allocation_uses_every_way() {
        let p = LayoutPlanner::new(20);
        let masks = lay_out(&p, &[10, 10], &[None; 2]).unwrap();
        let union = masks.iter().fold(Cbm(0), |acc, m| acc.union(*m));
        assert_eq!(union, Cbm::full(20));
    }
}
