//! The one apply: per-class way counts become CAT state.
//!
//! Every partitioning policy decides how many ways each of its classes of
//! service gets and stages them ([`Programmed::stage`], the plan's one
//! copy); [`Programmed::apply`] lays the counts out
//! ([`LayoutPlanner::layout_stable_into`]) and writes the masks and core
//! assignments that changed, recording each once the backend took it. Its
//! order keeps the classes that hold cores pairwise disjoint after every
//! write, so one that fails part-way leaves no two tenants sharing a way:
//!
//! 1. shrinkers first — giving up ways overlaps nothing new;
//! 2. then COS 0 under [`DefaultClass::FreeRun`] — its run overlaps no new
//!    mask, and no core the apply manages sits in it;
//! 3. then every other mask once no other class that holds cores holds
//!    any of its ways, and every core once its class is clear of them.
//!
//! Classes trading places on a full cache can each wait on another; then
//! one steps aside (`Programmed::step_aside`): it moves part-way or
//! shrinks, or a class whose cores wait to join it narrows to ways no
//! other class holds and they join it there. Only if none can is the rest
//! written in class order.

use crate::controller::{CacheController, CatCapabilities, CosId, ResctrlError};
use crate::invariants;
use crate::layout::LayoutPlanner;
use cbm::Cbm;

/// What the apply does with COS 0, the class of every unmanaged core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefaultClass {
    /// Never written.
    Untouched,
    /// Confined to the longest run of ways no class holds (the top way on
    /// a full cache), so stray host threads cannot pollute tenant ways.
    FreeRun,
}

/// What the backend holds as far as the apply wrote it, the plan the next
/// apply programs, and the apply.
#[derive(Debug)]
pub struct Programmed {
    planner: LayoutPlanner,
    /// The narrowest mask the backend takes.
    min_bits: u32,
    default: DefaultClass,
    /// Per COS, the mask last accepted.
    masks: Vec<Option<Cbm>>,
    /// Per core, the COS last accepted.
    core_cos: Vec<Option<CosId>>,
    /// Per anchor key, the mask last laid out.
    anchors: Vec<Option<Cbm>>,
    // The staged plan, rewritten in place so a steady tick allocates
    // nothing: COS, anchor and `cores[start..end]` per class, and its way
    // count in `counts`; then the apply's anchored masks and layout.
    classes: Vec<(CosId, Option<usize>, usize, usize)>,
    cores: Vec<u32>,
    counts: Vec<u32>,
    previous: Vec<Option<Cbm>>,
    layout: Vec<Cbm>,
}

impl Programmed {
    /// An empty record for a socket with `caps`: the first apply writes
    /// every class.
    pub fn new(caps: CatCapabilities, default: DefaultClass) -> Self {
        Programmed {
            planner: LayoutPlanner::new(caps.cbm_len),
            min_bits: caps.min_cbm_bits.max(1),
            default,
            masks: vec![None; caps.num_closids as usize],
            core_cos: Vec::new(),
            anchors: Vec::new(),
            classes: Vec::new(),
            cores: Vec::new(),
            counts: Vec::new(),
            previous: Vec::new(),
            layout: Vec::new(),
        }
    }

    /// The mask recorded for `cos`.
    pub(crate) fn mask(&self, cos: CosId) -> Option<Cbm> {
        self.masks.get(usize::from(cos.0)).copied().flatten()
    }

    /// The class `core` is recorded in.
    pub(crate) fn cos_of(&self, core: u32) -> Option<CosId> {
        self.core_cos.get(core as usize).copied().flatten()
    }

    /// The mask of the class `core` is recorded in, as the backend holds it.
    pub fn core_mask(&self, core: u32) -> Option<Cbm> {
        self.mask(self.cos_of(core)?)
    }

    /// Checks that the classes holding cores (at most `num_closids`, the
    /// record's size) have legal, pairwise disjoint masks.
    pub fn audit(&self) -> Result<(), String> {
        let classes = (0..=u8::MAX).map(CosId).zip(&self.masks);
        let in_use = classes.filter(|&(cos, _)| self.in_use(cos));
        let masks = in_use.map(|(_, m)| m.unwrap_or(Cbm(0)));
        invariants::check_masks(masks, self.planner.cbm_len())
    }

    /// Stages the plan the next [`Programmed::apply`] programs, replacing
    /// the last: per class its COS, its ways, the key under which the
    /// apply keeps the mask it lays out, so the next apply moves it as
    /// little as it can (`None` lays it out fresh), and the cores that
    /// belong in it.
    pub fn stage<C: IntoIterator<Item = u32>>(
        &mut self,
        classes: impl IntoIterator<Item = (CosId, u32, Option<usize>, C)>,
    ) {
        self.classes.clear();
        self.cores.clear();
        self.counts.clear();
        for (cos, ways, anchor, cores) in classes {
            let start = self.cores.len();
            self.cores.extend(cores);
            self.classes.push((cos, anchor, start, self.cores.len()));
            self.counts.push(ways);
        }
    }

    /// Lays the staged plan out and programs it in the module's write
    /// order. Returns the ways the classes gave up, for the caller to
    /// flush or not. On an error the record keeps every write accepted
    /// before it.
    #[expect(
        clippy::indexing_slicing,
        reason = "loop-bounded: `j` enumerates the classes, which `stage` sized with core bounds within `cores`, the planner `layout`, and the `resize` `anchors`; `.get()` would cost the tick (DESIGN.md §12)"
    )]
    pub fn apply(&mut self, cat: &mut dyn CacheController) -> Result<Cbm, ResctrlError> {
        let anchors = &self.anchors;
        let anchored = self
            .classes
            .iter()
            .map(|&(_, anchor, ..)| anchor.and_then(|k| anchors.get(k).copied().flatten()));
        self.previous.clear();
        self.previous.extend(anchored);
        self.planner
            .layout_stable_into(&self.counts, &self.previous, &mut self.layout)?;

        // 1. Shrinkers.
        let mut lost = Cbm(0);
        for j in 0..self.layout.len() {
            let (cos, new) = (self.classes[j].0, self.layout[j]);
            let old = self.mask(cos).unwrap_or(new);
            lost = lost.union(old.difference(new));
            if old != new && new.difference(old).is_empty() {
                self.program(cat, cos, new)?;
            }
        }

        // 2. COS 0, which may take ways the shrinkers released.
        if self.default == DefaultClass::FreeRun {
            let ways = self.planner.cbm_len();
            let occupied = self.layout.iter().fold(Cbm(0), |acc, m| acc.union(*m));
            let run = longest_free_run(occupied, ways);
            let mask = run.unwrap_or_else(|| Cbm::from_way_range(ways - 1, 1));
            if self.mask(CosId(0)) != Some(mask) {
                self.program(cat, CosId(0), mask)?;
            }
        }

        // 3. The rest, each once clear of the other classes holding cores;
        // a core may join its class early, while its old mask is clear.
        // A core listed by several classes belongs to the last. A bound on
        // the passes keeps a malformed request (one COS in two classes)
        // from looping; a well-formed one never nears it.
        let passes = (self.layout.len() + self.cores.len() + 1) * self.planner.cbm_len() as usize;
        let (mut pass, mut unordered) = (0, false);
        loop {
            pass += 1;
            unordered |= pass > passes;
            let (mut progress, mut pending) = (false, false);
            for j in 0..self.layout.len() {
                let ((cos, anchor, start, end), new) = (self.classes[j], self.layout[j]);
                let clear =
                    |p: &Self, mask: Cbm, moving| !mask.overlaps(p.held_by_others(cos, moving));
                if self.mask(cos) != Some(new)
                    && (unordered || !self.in_use(cos) || clear(self, new, None))
                {
                    self.program(cat, cos, new)?;
                    progress = true;
                }
                let current = self.mask(cos);
                if current != Some(new) && !self.in_use(cos) {
                    pending = true;
                    continue;
                }
                if let Some(key) = anchor.filter(|_| current == Some(new)) {
                    if self.anchors.len() <= key {
                        self.anchors.resize(key + 1, None);
                    }
                    self.anchors[key] = Some(new);
                }
                pending |= current != Some(new);
                for i in start..end {
                    let core = self.cores[i];
                    if self.cos_of(core) == Some(cos) || self.cores[i + 1..].contains(&core) {
                        continue;
                    }
                    if unordered || current.is_some_and(|m| clear(self, m, Some(core))) {
                        self.assign(cat, core, cos)?;
                        progress = true;
                    } else {
                        pending = true;
                    }
                }
            }
            if !pending || unordered {
                return Ok(lost);
            }
            if !progress && !self.step_aside(cat)? {
                unordered = true;
            }
        }
    }

    /// For when every pending class waits on another: the first one that
    /// holds cores moves part-way, to the longest run of its new mask no
    /// other class holds, releasing its old ways to the classes waiting on
    /// them; failing that, one holding ways outside its new mask shrinks to
    /// the top of its mask; failing that, one whose cores wait to join it
    /// narrows to the longest run of its mask no other class holds, and
    /// they join it there, leaving the classes they held. Returns whether
    /// anything was written.
    #[expect(
        clippy::indexing_slicing,
        reason = "`start..end` are a class's bounds within `cores`, as in `apply`"
    )]
    fn step_aside(&mut self, cat: &mut dyn CacheController) -> Result<bool, ResctrlError> {
        let ways = self.planner.cbm_len();
        for shrink in [false, true] {
            for j in 0..self.layout.len() {
                let (Some(&(cos, ..)), Some(&new)) = (self.classes.get(j), self.layout.get(j))
                else {
                    continue;
                };
                let stuck = self.in_use(cos) && self.mask(cos) != Some(new);
                let Some(old) = self.mask(cos).filter(|_| stuck) else {
                    continue;
                };
                if shrink && old.difference(new).is_empty() {
                    continue;
                }
                let keep = self.min_bits.min(old.ways());
                let mask = if shrink {
                    old.first_way()
                        .map(|f| Cbm::from_way_range(f + old.ways() - keep, keep))
                } else {
                    let taken = Cbm::full(ways)
                        .difference(new)
                        .union(self.held_by_others(cos, None));
                    longest_free_run(taken, ways)
                };
                if let Some(mask) = mask.filter(|&m| m != old && m.ways() >= keep) {
                    self.program(cat, cos, mask)?;
                    return Ok(true);
                }
            }
        }
        // A class holding no cores is written its new mask on the next
        // pass, so its cores join the narrowed one at once.
        for j in 0..self.classes.len() {
            let (cos, _, start, end) = self.classes[j];
            let waiting = |p: &Self, i: usize| {
                let core = p.cores[i];
                p.cos_of(core) != Some(cos) && !p.cores[i + 1..end].contains(&core)
            };
            let Some(old) = self
                .mask(cos)
                .filter(|_| (start..end).any(|i| waiting(self, i)))
            else {
                continue;
            };
            let taken = Cbm::full(ways)
                .difference(old)
                .union(self.held_by_others(cos, None));
            let Some(mask) = longest_free_run(taken, ways).filter(|m| m.ways() >= self.min_bits)
            else {
                continue;
            };
            if mask != old {
                self.program(cat, cos, mask)?;
            }
            for i in start..end {
                if waiting(self, i) {
                    self.assign(cat, self.cores[i], cos)?;
                }
            }
            return Ok(true);
        }
        Ok(false)
    }

    fn in_use(&self, cos: CosId) -> bool {
        self.core_cos.contains(&Some(cos))
    }

    /// The ways held by the classes other than `cos` that hold cores other
    /// than `moving`.
    fn held_by_others(&self, cos: CosId, moving: Option<u32>) -> Cbm {
        let others = (0u32..)
            .zip(&self.core_cos)
            .filter(|&(core, _)| Some(core) != moving);
        let classes = others.filter_map(|(_, &c)| c.filter(|&c| c != cos));
        classes.fold(Cbm(0), |acc, c| acc.union(self.mask(c).unwrap_or(Cbm(0))))
    }

    fn program(
        &mut self,
        cat: &mut dyn CacheController,
        cos: CosId,
        cbm: Cbm,
    ) -> Result<(), ResctrlError> {
        cat.program_cos(cos, cbm)?;
        if let Some(slot) = self.masks.get_mut(usize::from(cos.0)) {
            *slot = Some(cbm);
        }
        Ok(())
    }

    fn assign(
        &mut self,
        cat: &mut dyn CacheController,
        core: u32,
        cos: CosId,
    ) -> Result<(), ResctrlError> {
        cat.assign_core(core, cos)?;
        let core = core as usize;
        if self.core_cos.len() <= core {
            self.core_cos.resize(core + 1, None);
        }
        if let Some(slot) = self.core_cos.get_mut(core) {
            *slot = Some(cos);
        }
        Ok(())
    }
}

/// Longest run of ways below `total_ways` not in `occupied` (the lowest
/// of equals); `None` when every way is occupied.
fn longest_free_run(occupied: Cbm, total_ways: u32) -> Option<Cbm> {
    let mut best: Option<Cbm> = None;
    let mut start = 0;
    for way in 0..=total_ways {
        if way == total_ways || occupied.contains_way(way) {
            if way > start && best.is_none_or(|b| way - start > b.ways()) {
                best = Some(Cbm::from_way_range(start, way - start));
            }
            start = way + 1;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::{InMemoryController, MutationRecord};

    #[test]
    fn longest_free_run_selection() {
        assert_eq!(
            longest_free_run(Cbm(0b0), 8),
            Some(Cbm::from_way_range(0, 8))
        );
        assert_eq!(longest_free_run(Cbm(0b1111_1111), 8), None);
        // Ties go to the earliest run.
        assert_eq!(
            longest_free_run(Cbm(0b0001_1000), 8),
            Some(Cbm::from_way_range(0, 3))
        );
        assert_eq!(
            longest_free_run(Cbm(0b1000_0001), 8),
            Some(Cbm::from_way_range(1, 6))
        );
    }

    type Class = (CosId, u32, Option<usize>, Vec<u32>);

    fn class(cos: u8, ways: u32, cores: &[u32]) -> Class {
        (CosId(cos), ways, Some(usize::from(cos)), cores.to_vec())
    }

    fn apply(
        p: &mut Programmed,
        classes: impl IntoIterator<Item = Class>,
        cat: &mut dyn CacheController,
    ) -> Result<Cbm, ResctrlError> {
        p.stage(classes);
        p.apply(cat)
    }

    #[test]
    fn only_what_changed_is_written() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 4);
        let mut p = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
        let first = apply(&mut p, [class(1, 3, &[0, 1]), class(2, 2, &[2])], &mut cat);
        assert_eq!(first.unwrap(), Cbm(0));
        assert_eq!(cat.log.len(), 5, "two masks, three cores: {:?}", cat.log);
        cat.log.clear();
        apply(&mut p, [class(1, 3, &[0, 1]), class(2, 2, &[2])], &mut cat).unwrap();
        assert!(cat.log.is_empty(), "{:?}", cat.log);
        // Core 1 moves; COS 1 shrinks and gives up one way.
        let lost = apply(&mut p, [class(1, 2, &[0]), class(2, 2, &[2, 1])], &mut cat);
        assert_eq!(lost.unwrap().ways(), 1);
        assert_eq!(
            cat.log,
            [
                MutationRecord::ProgramCos(CosId(1), Cbm::from_way_range(1, 2)),
                MutationRecord::AssignCore(1, CosId(2)),
            ]
        );
        assert_eq!(p.cos_of(1), Some(CosId(2)));
        assert_eq!(p.audit(), Ok(()));
    }

    #[test]
    fn a_grower_waits_for_the_class_moving_off_its_ways() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 2);
        let mut p = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
        apply(&mut p, [class(1, 2, &[0]), class(2, 2, &[1])], &mut cat).unwrap();
        cat.log.clear();
        // COS 1 grows in place into way 2; COS 2, blocked, moves up off it.
        apply(&mut p, [class(1, 3, &[0]), class(2, 3, &[1])], &mut cat).unwrap();
        assert_eq!(
            cat.log,
            [
                MutationRecord::ProgramCos(CosId(2), Cbm::from_way_range(3, 3)),
                MutationRecord::ProgramCos(CosId(1), Cbm::from_way_range(0, 3)),
            ]
        );
    }

    #[test]
    fn the_default_class_takes_the_free_run_between_shrinkers_and_growers() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 2);
        let mut p = Programmed::new(cat.capabilities(), DefaultClass::FreeRun);
        apply(&mut p, [class(1, 4, &[0]), class(2, 4, &[1])], &mut cat).unwrap();
        assert_eq!(p.mask(CosId(0)), Some(Cbm::from_way_range(8, 12)));
        cat.log.clear();
        apply(&mut p, [class(1, 2, &[0]), class(2, 5, &[1])], &mut cat).unwrap();
        assert_eq!(
            cat.log,
            [
                MutationRecord::ProgramCos(CosId(1), Cbm::from_way_range(2, 2)),
                MutationRecord::ProgramCos(CosId(0), Cbm::from_way_range(9, 11)),
                MutationRecord::ProgramCos(CosId(2), Cbm::from_way_range(4, 5)),
            ]
        );
        // A full cache pins COS 0 to the top way.
        apply(&mut p, [class(1, 10, &[0]), class(2, 10, &[1])], &mut cat).unwrap();
        assert_eq!(p.mask(CosId(0)), Some(Cbm::from_way_range(19, 1)));
    }

    #[test]
    fn a_core_listed_twice_belongs_to_the_last_class() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 2);
        let mut p = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
        apply(&mut p, [class(1, 2, &[0, 1]), class(2, 2, &[1])], &mut cat).unwrap();
        assert_eq!(cat.core_cos(1).unwrap(), CosId(2));
        assert_eq!(p.cos_of(1), Some(CosId(2)));
    }

    #[test]
    fn classes_trading_places_on_a_full_cache_stay_disjoint_wherever_a_write_fails() {
        use crate::fault::{Fault, FaultPlan, FaultingController};
        let anchored =
            |cos: u8, anchor: usize, core: u32| (CosId(cos), 10, Some(anchor), vec![core]);
        for k in 0..6 {
            let plan = FaultPlan::scripted([(1, Fault::CosWriteAfter(k))]);
            let mut cat = FaultingController::new(
                InMemoryController::new(CatCapabilities::with_ways(20), 2),
                plan,
            );
            let mut p = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
            apply(&mut p, [anchored(1, 0, 0), anchored(2, 1, 1)], &mut cat).unwrap();
            cat.set_tick(1);
            // Each COS takes the other's mask; no way is free.
            let swapped = apply(&mut p, [anchored(1, 1, 0), anchored(2, 0, 1)], &mut cat);
            assert!(!cat.inner().has_overlapping_active_masks(), "k = {k}");
            assert_eq!(p.audit(), Ok(()));
            // Four writes: one class shrinks, the other moves part-way.
            assert_eq!(swapped.is_ok(), k >= 4, "k = {k}");
            if swapped.is_ok() {
                assert_eq!(p.mask(CosId(1)), Some(Cbm::from_way_range(10, 10)));
                assert_eq!(p.mask(CosId(2)), Some(Cbm::from_way_range(0, 10)));
            }
        }
    }

    #[test]
    fn a_class_whose_cores_wait_narrows_rather_than_writing_in_class_order() {
        use crate::fault::{Fault, FaultPlan, FaultingController};
        let fresh = |cos: u8, ways: u32, cores: &[u32]| (CosId(cos), ways, None, cores.to_vec());
        // Way 0, 1-3, 4-8 and 9-19. Then COS 4 empties: its core joins
        // COS 2 (4-9), which waits on COS 3 leaving way 8, which waits on
        // COS 4's core leaving 10-19. COS 2 first narrows to 4-7.
        let before = [
            fresh(1, 1, &[2]),
            fresh(2, 3, &[4, 6]),
            fresh(3, 5, &[0, 3]),
            fresh(4, 11, &[1, 5]),
        ];
        let after = [
            fresh(1, 4, &[3, 4, 6]),
            fresh(2, 6, &[0, 1]),
            fresh(3, 10, &[2, 5]),
        ];
        for k in 0..7 {
            let plan = FaultPlan::scripted([(1, Fault::CosWriteAfter(k))]);
            let mut cat = FaultingController::new(
                InMemoryController::new(CatCapabilities::with_ways(20), 7),
                plan,
            );
            let mut p = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
            apply(&mut p, before.clone(), &mut cat).unwrap();
            cat.set_tick(1);
            let done = apply(&mut p, after.clone(), &mut cat).is_ok();
            assert!(!cat.inner().has_overlapping_active_masks(), "k = {k}");
            assert_eq!(p.audit(), Ok(()), "k = {k}");
            // Six writes: COS 2, COS 1, COS 3 to way 8, COS 2 to 4-7 (its
            // cores join it), COS 3 to 10-19, COS 2 to 4-9.
            assert_eq!(done, k >= 6, "k = {k}");
            if done {
                let narrowed = MutationRecord::ProgramCos(CosId(2), Cbm::from_way_range(4, 4));
                assert!(cat.inner().log.contains(&narrowed));
                assert_eq!(p.mask(CosId(2)), Some(Cbm::from_way_range(4, 6)));
                assert_eq!(p.mask(CosId(3)), Some(Cbm::from_way_range(10, 10)));
            }
        }
    }

    #[test]
    fn one_cos_asked_for_twice_still_ends() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 2);
        let mut p = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
        let twice = [class(1, 2, &[0]), class(1, 3, &[1])];
        assert!(apply(&mut p, twice, &mut cat).is_ok());
    }

    #[test]
    fn the_audit_reads_the_classes_that_hold_cores() {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 2);
        let mut p = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
        assert_eq!(p.audit(), Ok(()));
        apply(&mut p, [class(1, 4, &[0]), class(2, 4, &[1])], &mut cat).unwrap();
        assert_eq!(p.audit(), Ok(()));
        p.masks[2] = p.mask(CosId(1));
        assert!(p.audit().is_err());
    }
}
