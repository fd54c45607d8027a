//! An in-memory [`CacheController`] for unit-testing controller logic.

use crate::controller::{CacheController, CatCapabilities, CosId, ResctrlError};
use cbm::Cbm;

/// A record of one mutation, for asserting on controller behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationRecord {
    /// `program_cos(cos, cbm)` was called.
    ProgramCos(CosId, Cbm),
    /// `assign_core(core, cos)` was called.
    AssignCore(u32, CosId),
}

/// An in-memory CAT state machine with full validation and a mutation log.
#[derive(Debug, Clone)]
pub struct InMemoryController {
    caps: CatCapabilities,
    num_cores: u32,
    cos_masks: Vec<Cbm>,
    core_assignment: Vec<CosId>,
    /// Every successful mutation, in order.
    pub log: Vec<MutationRecord>,
}

impl InMemoryController {
    /// Creates a controller where every COS starts with the full mask and
    /// every core is in COS 0 — the hardware reset state.
    pub fn new(caps: CatCapabilities, num_cores: u32) -> Self {
        InMemoryController {
            caps,
            num_cores,
            cos_masks: vec![caps.full_mask(); caps.num_closids as usize],
            core_assignment: vec![CosId(0); num_cores as usize],
            log: Vec::new(),
        }
    }

    /// Whether any two *in-use* classes (classes with at least one core
    /// assigned) have overlapping masks. dCat's isolation invariant is that
    /// this never holds.
    pub fn has_overlapping_active_masks(&self) -> bool {
        self.has_overlapping_masks_among(|_| true)
    }

    /// [`Self::has_overlapping_active_masks`] over the in-use classes
    /// `keep` selects.
    pub fn has_overlapping_masks_among(&self, keep: impl Fn(CosId) -> bool) -> bool {
        let active = self
            .core_assignment
            .iter()
            .copied()
            .filter(|&cos| keep(cos));
        let mut active: Vec<CosId> = active.collect();
        active.sort_unstable();
        active.dedup();
        let mut seen = Cbm(0);
        active.into_iter().any(|cos| {
            let mask = self
                .cos_masks
                .get(usize::from(cos.0))
                .copied()
                .unwrap_or(Cbm(0));
            let overlaps = mask.overlaps(seen);
            seen = seen.union(mask);
            overlaps
        })
    }
}

impl CacheController for InMemoryController {
    fn capabilities(&self) -> CatCapabilities {
        self.caps
    }

    fn num_cores(&self) -> u32 {
        self.num_cores
    }

    fn program_cos(&mut self, cos: CosId, cbm: Cbm) -> Result<(), ResctrlError> {
        self.validate_cos(cos)?;
        self.validate_cbm(cbm)?;
        let Some(slot) = self.cos_masks.get_mut(cos.0 as usize) else {
            return Err(ResctrlError::InvalidCos(cos));
        };
        *slot = cbm;
        self.log.push(MutationRecord::ProgramCos(cos, cbm));
        Ok(())
    }

    fn assign_core(&mut self, core: u32, cos: CosId) -> Result<(), ResctrlError> {
        self.validate_cos(cos)?;
        let Some(slot) = self.core_assignment.get_mut(core as usize) else {
            return Err(ResctrlError::InvalidCore(core));
        };
        *slot = cos;
        self.log.push(MutationRecord::AssignCore(core, cos));
        Ok(())
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`validate_cos` bounds `cos` by `num_closids`, the length of `cos_masks`"
    )]
    fn cos_mask(&self, cos: CosId) -> Result<Cbm, ResctrlError> {
        self.validate_cos(cos)?;
        Ok(self.cos_masks[cos.0 as usize])
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`core < num_cores`, the length of `core_assignment`, is checked first"
    )]
    fn core_cos(&self, core: u32) -> Result<CosId, ResctrlError> {
        if core >= self.num_cores {
            return Err(ResctrlError::InvalidCore(core));
        }
        Ok(self.core_assignment[core as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_state_matches_hardware() {
        let ctl = InMemoryController::new(CatCapabilities::with_ways(20), 18);
        assert_eq!(ctl.cos_mask(CosId(0)).unwrap(), Cbm(0xf_ffff));
        assert_eq!(ctl.cos_mask(CosId(15)).unwrap(), Cbm(0xf_ffff));
        assert_eq!(ctl.core_cos(17).unwrap(), CosId(0));
    }

    #[test]
    fn program_and_assign_round_trip() {
        let mut ctl = InMemoryController::new(CatCapabilities::with_ways(20), 4);
        ctl.program_cos(CosId(1), Cbm(0b11)).unwrap();
        ctl.assign_core(2, CosId(1)).unwrap();
        assert_eq!(ctl.cos_mask(CosId(1)).unwrap(), Cbm(0b11));
        assert_eq!(ctl.core_cos(2).unwrap(), CosId(1));
        assert_eq!(
            ctl.log,
            vec![
                MutationRecord::ProgramCos(CosId(1), Cbm(0b11)),
                MutationRecord::AssignCore(2, CosId(1)),
            ]
        );
    }

    #[test]
    fn rejects_invalid_operations() {
        let mut ctl = InMemoryController::new(CatCapabilities::with_ways(20), 4);
        assert!(ctl.program_cos(CosId(16), Cbm(1)).is_err());
        assert!(ctl.program_cos(CosId(1), Cbm(0)).is_err());
        assert!(ctl.assign_core(4, CosId(0)).is_err());
        assert!(ctl.core_cos(9).is_err());
        // Failed mutations leave no log entries.
        assert!(ctl.log.is_empty());
    }

    #[test]
    fn overlap_detection_tracks_active_classes_only() {
        let mut ctl = InMemoryController::new(CatCapabilities::with_ways(20), 4);
        ctl.program_cos(CosId(1), Cbm(0b0011)).unwrap();
        ctl.program_cos(CosId(2), Cbm(0b0110)).unwrap();
        // Nobody assigned to COS 1/2 yet; only COS 0 is active.
        assert!(!ctl.has_overlapping_active_masks());
        ctl.assign_core(0, CosId(1)).unwrap();
        ctl.assign_core(1, CosId(2)).unwrap();
        ctl.assign_core(2, CosId(1)).unwrap();
        ctl.assign_core(3, CosId(2)).unwrap();
        assert!(ctl.has_overlapping_active_masks());
        ctl.program_cos(CosId(2), Cbm(0b1100)).unwrap();
        assert!(!ctl.has_overlapping_active_masks());
    }
}
