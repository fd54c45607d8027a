//! Controller-level invariants.
//!
//! These are the safety properties every interval of [`crate::DcatController`]
//! must uphold, independent of workload behavior or configuration:
//!
//! * **Hardware legality** — the programmed masks are non-empty,
//!   contiguous, in range, and pairwise disjoint. One check holds it for
//!   every policy: [`resctrl::Programmed::audit`] over the record of what
//!   the backend took.
//! * **Way conservation** — the granted way counts never oversubscribe the
//!   cache. A domain's grant is the width of its recorded mask, and the
//!   domains own disjoint cores (refused where a policy is built
//!   otherwise), so each grant is its own class's mask and the record's
//!   audit implies the sum.
//! * **Allocation floor** — no tenant drops below the configured minimum
//!   (clamped to its contracted reservation; a tenant that reserved less
//!   than `min_ways` is floored at its reservation instead):
//!   [`check_floor`], over the recorded masks.
//!
//! One mechanism checks them: [`crate::policy::audit`], which
//! [`crate::ControlLoop::step`] runs after every decision, completed or
//! degraded, and turns a failure into an `InvariantViolation` event — the
//! daemon logs it, and the `dcat-verify` model checker, which steps the
//! same loop, fails on it. [`crate::CachePolicy::tick`] debug-asserts it.

use std::fmt;

use crate::state::WorkloadClass;

/// One violated controller invariant, carried structurally so the
/// per-tick audit allocates nothing on the checked (hot) path; the
/// [`fmt::Display`] impl renders the description only when a violation
/// is actually reported.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
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
    /// The programmed layout is illegal (from
    /// [`resctrl::Programmed::audit`], whose description is built only on
    /// the violation path).
    Layout(String),
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::BelowFloor {
                domain,
                class,
                ways,
                floor,
            } => write!(
                f,
                "domain {domain} ({class:?}) granted {ways} ways, below its floor of {floor}"
            ),
            InvariantViolation::Layout(msg) => f.write_str(msg),
        }
    }
}

/// Checks domain `domain`'s grant of `ways` against its floor: `min_ways`,
/// clamped to its reservation, and never below one way.
pub(crate) fn check_floor(
    domain: usize,
    class: WorkloadClass,
    ways: u32,
    reserved_ways: u32,
    min_ways: u32,
) -> Result<(), InvariantViolation> {
    let floor = min_ways.min(reserved_ways).max(1);
    if ways < floor {
        return Err(InvariantViolation::BelowFloor {
            domain,
            class,
            ways,
            floor,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_state_accepted() {
        assert_eq!(check_floor(0, WorkloadClass::Keeper, 4, 4, 1), Ok(()));
        assert_eq!(check_floor(1, WorkloadClass::Donor, 1, 4, 1), Ok(()));
    }

    #[test]
    fn violations_detected() {
        // Below the floor.
        assert!(check_floor(0, WorkloadClass::Donor, 1, 4, 2).is_err());
        // A reservation smaller than min_ways lowers the floor.
        assert!(check_floor(0, WorkloadClass::Donor, 1, 1, 2).is_ok());
        // No grant is below one way.
        assert!(check_floor(0, WorkloadClass::Donor, 0, 0, 0).is_err());
    }
}
