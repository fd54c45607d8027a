//! Mask-level invariants shared by the planner and every policy's audit.
//!
//! These are the hardware-legality predicates every layout must satisfy
//! before it can be programmed into CAT. They are asserted (in debug
//! builds) at the end of [`crate::LayoutPlanner::layout_stable_into`] and
//! checked by [`crate::Programmed::audit`] over the masks of the classes
//! holding cores, which `dcat`'s control loop runs after every decision
//! of every policy (and the `dcat-verify` model checker steps that loop):
//! the one check of the programmed masks.

use cbm::Cbm;

/// Checks that `masks` form a legal CAT layout for a cache of `cbm_len`
/// ways: every mask non-empty, contiguous, within range, and pairwise
/// disjoint. Returns a description of the first violation.
pub fn check_layout(masks: &[Cbm], cbm_len: u32) -> Result<(), String> {
    check_masks(masks.iter().copied(), cbm_len)
}

/// [`check_layout`] over masks as they come, so a per-tick audit need not
/// collect them first.
pub(crate) fn check_masks(
    masks: impl IntoIterator<Item = Cbm>,
    cbm_len: u32,
) -> Result<(), String> {
    let mut seen = Cbm(0);
    for (i, mask) in masks.into_iter().enumerate() {
        if mask.is_empty() {
            return Err(format!("group {i}: empty mask"));
        }
        if !mask.is_contiguous() {
            return Err(format!("group {i}: non-contiguous mask {mask}"));
        }
        if !mask.is_valid_for(cbm_len, 1) {
            return Err(format!("group {i}: mask {mask} exceeds cbm_len {cbm_len}"));
        }
        if mask.overlaps(seen) {
            return Err(format!("group {i}: mask {mask} overlaps another group"));
        }
        seen = seen.union(mask);
    }
    Ok(())
}

/// Checks that `masks[i]` grants exactly `counts[i]` ways — the planner
/// must conserve the requested way counts bit-for-bit.
pub(crate) fn check_counts(masks: &[Cbm], counts: &[u32]) -> Result<(), String> {
    if masks.len() != counts.len() {
        return Err(format!(
            "layout has {} masks for {} counts",
            masks.len(),
            counts.len()
        ));
    }
    for (i, (&mask, &count)) in masks.iter().zip(counts.iter()).enumerate() {
        if mask.ways() != count {
            return Err(format!(
                "group {i}: mask {mask} grants {} ways, {count} requested",
                mask.ways()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_layout_accepted() {
        let masks = [Cbm::from_way_range(0, 3), Cbm::from_way_range(5, 2)];
        assert!(check_layout(&masks, 20).is_ok());
        assert!(check_counts(&masks, &[3, 2]).is_ok());
    }

    #[test]
    fn violations_detected() {
        assert!(check_layout(&[Cbm(0)], 20).is_err(), "empty");
        assert!(check_layout(&[Cbm(0b101)], 20).is_err(), "non-contiguous");
        assert!(
            check_layout(&[Cbm::from_way_range(19, 2)], 20).is_err(),
            "out of range"
        );
        assert!(
            check_layout(&[Cbm(0b11), Cbm(0b110)], 20).is_err(),
            "overlap"
        );
        assert!(check_counts(&[Cbm(0b11)], &[3]).is_err(), "count mismatch");
        assert!(check_counts(&[Cbm(0b11)], &[1, 1]).is_err(), "length");
    }
}
