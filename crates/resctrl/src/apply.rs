//! The one apply: per-class way counts become CAT state.
//!
//! Every partitioning policy decides how many ways each of its classes of
//! service gets; [`Programmed::apply`] lays the counts out
//! ([`LayoutPlanner::layout_stable`]) and writes the masks and core
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
//! one steps aside ([`Programmed::step_aside`]), and only if none can is
//! the rest written in class order.

use crate::cbm::Cbm;
use crate::controller::{CacheController, CatCapabilities, CosId, ResctrlError};
use crate::invariants;
use crate::layout::LayoutPlanner;

/// What the apply does with COS 0, the class of every unmanaged core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefaultClass {
    /// Never written.
    Untouched,
    /// Confined to the longest run of ways no class holds (the top way on
    /// a full cache), so stray host threads cannot pollute tenant ways.
    FreeRun,
}

/// One class of service as a policy asks for it.
#[derive(Debug, Clone)]
pub struct Class<C> {
    /// The COS it is programmed into.
    pub cos: CosId,
    /// Ways it is granted.
    pub ways: u32,
    /// Key under which the apply keeps the mask it laid out, so the next
    /// apply moves it as little as it can; `None` lays it out fresh.
    pub anchor: Option<usize>,
    /// The cores that belong in it.
    pub cores: C,
}

/// What the backend holds as far as the apply wrote it, and the apply.
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
    // One apply's classes, kept so a steady apply allocates nothing: COS,
    // anchor and `cores[start..end]` per class, way counts, anchored
    // masks and the layout.
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
    pub fn mask(&self, cos: CosId) -> Option<Cbm> {
        self.masks.get(usize::from(cos.0)).copied().flatten()
    }

    /// The class `core` is recorded in.
    pub fn cos_of(&self, core: u32) -> Option<CosId> {
        self.core_cos.get(core as usize).copied().flatten()
    }

    /// The mask last laid out under anchor key `anchor`.
    pub fn anchored(&self, anchor: usize) -> Option<Cbm> {
        self.anchors.get(anchor).copied().flatten()
    }

    /// Checks that the classes holding cores (at most `num_closids`, the
    /// record's size) have legal, pairwise disjoint masks.
    pub fn audit(&self) -> Result<(), String> {
        let classes = (0..=u8::MAX).map(CosId).zip(&self.masks);
        let in_use = classes.filter(|&(cos, _)| self.in_use(cos));
        let masks = in_use.map(|(_, m)| m.unwrap_or(Cbm(0)));
        invariants::check_masks(masks, self.planner.cbm_len())
    }

    /// Lays `classes` out and programs them in the module's write order.
    /// Returns the ways the classes gave up, for the caller to flush or
    /// not. On an error the record keeps every write accepted before it.
    #[expect(
        clippy::indexing_slicing,
        reason = "loop-bounded: `j` enumerates the classes, for which the push loop sizes `classes` with core bounds within `cores`, the planner `layout`, and the `resize` `anchors`; `.get()` would cost the tick (DESIGN.md §12)"
    )]
    pub fn apply<I, C>(
        &mut self,
        classes: I,
        cat: &mut dyn CacheController,
    ) -> Result<Cbm, ResctrlError>
    where
        I: IntoIterator<Item = Class<C>>,
        C: IntoIterator<Item = u32>,
    {
        self.classes.clear();
        self.cores.clear();
        self.counts.clear();
        self.previous.clear();
        for class in classes {
            let start = self.cores.len();
            self.cores.extend(class.cores);
            self.classes
                .push((class.cos, class.anchor, start, self.cores.len()));
            self.counts.push(class.ways);
            let anchored = class.anchor.and_then(|k| self.anchors.get(k));
            self.previous.push(anchored.copied().flatten());
        }
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
    /// the top of its mask. Returns whether a mask was written.
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

    fn class(cos: u8, ways: u32, cores: &[u32]) -> Class<Vec<u32>> {
        Class {
            cos: CosId(cos),
            ways,
            anchor: Some(usize::from(cos)),
            cores: cores.to_vec(),
        }
    }

    #[test]
    fn only_what_changed_is_written() {
        let mut cat = InMemoryController::xeon_e5(4);
        let mut p = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
        let first = p.apply([class(1, 3, &[0, 1]), class(2, 2, &[2])], &mut cat);
        assert_eq!(first.unwrap(), Cbm(0));
        assert_eq!(cat.log.len(), 5, "two masks, three cores: {:?}", cat.log);
        cat.log.clear();
        p.apply([class(1, 3, &[0, 1]), class(2, 2, &[2])], &mut cat)
            .unwrap();
        assert!(cat.log.is_empty(), "{:?}", cat.log);
        // Core 1 moves; COS 1 shrinks and gives up one way.
        let lost = p.apply([class(1, 2, &[0]), class(2, 2, &[2, 1])], &mut cat);
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
        let mut cat = InMemoryController::xeon_e5(2);
        let mut p = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
        p.apply([class(1, 2, &[0]), class(2, 2, &[1])], &mut cat)
            .unwrap();
        cat.log.clear();
        // COS 1 grows in place into way 2; COS 2, blocked, moves up off it.
        p.apply([class(1, 3, &[0]), class(2, 3, &[1])], &mut cat)
            .unwrap();
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
        let mut cat = InMemoryController::xeon_e5(2);
        let mut p = Programmed::new(cat.capabilities(), DefaultClass::FreeRun);
        p.apply([class(1, 4, &[0]), class(2, 4, &[1])], &mut cat)
            .unwrap();
        assert_eq!(p.mask(CosId(0)), Some(Cbm::from_way_range(8, 12)));
        cat.log.clear();
        p.apply([class(1, 2, &[0]), class(2, 5, &[1])], &mut cat)
            .unwrap();
        assert_eq!(
            cat.log,
            [
                MutationRecord::ProgramCos(CosId(1), Cbm::from_way_range(2, 2)),
                MutationRecord::ProgramCos(CosId(0), Cbm::from_way_range(9, 11)),
                MutationRecord::ProgramCos(CosId(2), Cbm::from_way_range(4, 5)),
            ]
        );
        // A full cache pins COS 0 to the top way.
        p.apply([class(1, 10, &[0]), class(2, 10, &[1])], &mut cat)
            .unwrap();
        assert_eq!(p.mask(CosId(0)), Some(Cbm::from_way_range(19, 1)));
    }

    #[test]
    fn a_core_listed_twice_belongs_to_the_last_class() {
        let mut cat = InMemoryController::xeon_e5(2);
        let mut p = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
        p.apply([class(1, 2, &[0, 1]), class(2, 2, &[1])], &mut cat)
            .unwrap();
        assert_eq!(cat.core_cos(1).unwrap(), CosId(2));
        assert_eq!(p.cos_of(1), Some(CosId(2)));
    }

    #[test]
    fn classes_trading_places_on_a_full_cache_stay_disjoint_wherever_a_write_fails() {
        use crate::fault::{Fault, FaultPlan, FaultingController};
        let anchored = |cos: u8, anchor: usize, core: u32| Class {
            cos: CosId(cos),
            ways: 10,
            anchor: Some(anchor),
            cores: vec![core],
        };
        for k in 0..6 {
            let plan = FaultPlan::scripted([(1, Fault::CosWriteAfter(k))]);
            let mut cat = FaultingController::new(InMemoryController::xeon_e5(2), plan);
            let mut p = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
            p.apply([anchored(1, 0, 0), anchored(2, 1, 1)], &mut cat)
                .unwrap();
            cat.set_tick(1);
            // Each COS takes the other's mask; no way is free.
            let swapped = p.apply([anchored(1, 1, 0), anchored(2, 0, 1)], &mut cat);
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
    fn one_cos_asked_for_twice_still_ends() {
        let mut cat = InMemoryController::xeon_e5(2);
        let mut p = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
        let twice = [class(1, 2, &[0]), class(1, 3, &[1])];
        assert!(p.apply(twice, &mut cat).is_ok());
    }

    #[test]
    fn the_audit_reads_the_classes_that_hold_cores() {
        let mut cat = InMemoryController::xeon_e5(2);
        let mut p = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
        assert_eq!(p.audit(), Ok(()));
        p.apply([class(1, 4, &[0]), class(2, 4, &[1])], &mut cat)
            .unwrap();
        assert_eq!(p.audit(), Ok(()));
        p.masks[2] = p.mask(CosId(1));
        assert!(p.audit().is_err());
    }
}
