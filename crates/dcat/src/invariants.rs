//! Controller-level invariants.
//!
//! These are the safety properties every interval of [`crate::DcatController`]
//! must uphold, independent of workload behavior or configuration:
//!
//! * **Way conservation** — the granted way counts never oversubscribe the
//!   cache.
//! * **Allocation floor** — no tenant drops below the configured minimum
//!   (clamped to its contracted reservation; a tenant that reserved less
//!   than `min_ways` is floored at its reservation instead).
//! * **Mask/grant agreement** — the programmed CBM of each domain grants
//!   exactly the way count the controller believes it granted.
//! * **Hardware legality** — the programmed masks are non-empty,
//!   contiguous, in range, and pairwise disjoint (delegated to
//!   [`resctrl::invariants::check_masks`]).
//!
//! One mechanism checks them: [`crate::CachePolicy::audit`], which
//! [`crate::ControlLoop::step`] runs after every decision, completed or
//! degraded, and turns a failure into an `InvariantViolation` event — the
//! daemon logs it, and the `dcat-verify` model checker, which steps the
//! same loop, fails on it. A `debug_assert!` at the end of every interval
//! of [`crate::DcatController`] is safety code for debug builds.

use std::fmt;

use resctrl::Cbm;

use crate::state::WorkloadClass;

/// Read-only snapshot of one domain, as much as invariant checking needs.
#[derive(Debug, Clone, Copy)]
pub struct DomainView {
    /// Current class in the Figure-6 state machine.
    pub class: WorkloadClass,
    /// Ways the controller granted for the next interval.
    pub ways: u32,
    /// The tenant's contracted reservation.
    pub reserved_ways: u32,
    /// The mask currently programmed, if any has been applied yet.
    pub cbm: Option<Cbm>,
}

/// One violated controller invariant, carried structurally so the
/// per-tick audit allocates nothing on the checked (hot) path; the
/// [`fmt::Display`] impl renders the description only when a violation
/// is actually reported.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// The granted way counts oversubscribe the cache.
    Oversubscribed {
        /// Total ways granted across domains.
        granted: u32,
        /// Cache capacity in ways.
        total_ways: u32,
    },
    /// A domain dropped below its allocation floor.
    BelowFloor {
        /// Domain index.
        domain: usize,
        /// The domain's class when it was starved.
        class: WorkloadClass,
        /// Ways granted.
        ways: u32,
        /// The floor it must not drop below.
        floor: u32,
    },
    /// A programmed mask grants a different way count than recorded.
    MaskMismatch {
        /// Domain index.
        domain: usize,
        /// The domain's class.
        class: WorkloadClass,
        /// The programmed mask.
        cbm: Cbm,
        /// Ways the controller believes it granted.
        granted: u32,
    },
    /// The programmed layout is illegal (delegated to
    /// [`resctrl::invariants::check_masks`], whose description is
    /// built only on the violation path).
    Layout(String),
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::Oversubscribed {
                granted,
                total_ways,
            } => write!(
                f,
                "way conservation violated: {granted} ways granted on a {total_ways}-way cache"
            ),
            InvariantViolation::BelowFloor {
                domain,
                class,
                ways,
                floor,
            } => write!(
                f,
                "domain {domain} ({class:?}) granted {ways} ways, below its floor of {floor}"
            ),
            InvariantViolation::MaskMismatch {
                domain,
                class,
                cbm,
                granted,
            } => write!(
                f,
                "domain {domain} ({class:?}) mask {cbm} grants {} ways but the controller \
                 granted {granted}",
                cbm.ways()
            ),
            InvariantViolation::Layout(msg) => f.write_str(msg),
        }
    }
}

/// Checks every controller-level invariant over the domains of one
/// controller. Returns the first violation, structurally.
pub fn check(
    views: &[DomainView],
    total_ways: u32,
    min_ways: u32,
) -> Result<(), InvariantViolation> {
    let granted: u32 = views.iter().map(|v| v.ways).sum();
    if granted > total_ways {
        return Err(InvariantViolation::Oversubscribed {
            granted,
            total_ways,
        });
    }
    for (i, v) in views.iter().enumerate() {
        let floor = min_ways.min(v.reserved_ways).max(1);
        if v.ways < floor {
            return Err(InvariantViolation::BelowFloor {
                domain: i,
                class: v.class,
                ways: v.ways,
                floor,
            });
        }
        if let Some(m) = v.cbm {
            if m.ways() != v.ways {
                return Err(InvariantViolation::MaskMismatch {
                    domain: i,
                    class: v.class,
                    cbm: m,
                    granted: v.ways,
                });
            }
        }
    }
    let masks = views.iter().filter_map(|v| v.cbm);
    resctrl::invariants::check_masks(masks, total_ways).map_err(InvariantViolation::Layout)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(class: WorkloadClass, ways: u32, reserved: u32, cbm: Option<Cbm>) -> DomainView {
        DomainView {
            class,
            ways,
            reserved_ways: reserved,
            cbm,
        }
    }

    #[test]
    fn legal_state_accepted() {
        let views = [
            view(WorkloadClass::Keeper, 4, 4, Some(Cbm::from_way_range(0, 4))),
            view(WorkloadClass::Donor, 1, 4, Some(Cbm::from_way_range(7, 1))),
        ];
        assert_eq!(check(&views, 20, 1), Ok(()));
    }

    #[test]
    fn violations_detected() {
        // Oversubscription.
        let over = [
            view(WorkloadClass::Keeper, 12, 4, None),
            view(WorkloadClass::Keeper, 12, 4, None),
        ];
        assert!(check(&over, 20, 1).is_err());
        // Below the floor.
        let starved = [view(WorkloadClass::Donor, 1, 4, None)];
        assert!(check(&starved, 20, 2).is_err());
        // A reservation smaller than min_ways lowers the floor.
        let small_reserved = [view(WorkloadClass::Donor, 1, 1, None)];
        assert!(check(&small_reserved, 20, 2).is_ok());
        // Mask width disagrees with the granted count.
        let lying = [view(
            WorkloadClass::Keeper,
            3,
            3,
            Some(Cbm::from_way_range(0, 2)),
        )];
        assert!(check(&lying, 20, 1).is_err());
        // Overlapping masks.
        let overlap = [
            view(WorkloadClass::Keeper, 2, 2, Some(Cbm::from_way_range(0, 2))),
            view(WorkloadClass::Keeper, 2, 2, Some(Cbm::from_way_range(1, 2))),
        ];
        assert!(check(&overlap, 20, 1).is_err());
    }
}
