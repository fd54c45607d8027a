//! The capacity bitmask (CBM): the one type for Intel CAT's way mask.
//!
//! `resctrl` programs a class's [`Cbm`] under Intel's rules, and
//! `llc-sim` restricts every core's LLC fills to its [`Cbm`]. Both crates
//! depend on this leaf and not on each other, so the mask a policy
//! programs is the mask the simulator fills by, with no conversion.
//!
//! ```
//! use cbm::Cbm;
//!
//! let tenant = Cbm::from_way_range(4, 6);
//! assert_eq!(tenant.to_string(), "3f0");
//! assert!(tenant.is_valid_for(20, 1) && !tenant.overlaps(Cbm::full(4)));
//! ```

// Masks are built on every tick: the tick crates' no-panic lints (DESIGN.md §12).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::string_slice, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::integer_division)]

mod cbm;

pub use cbm::Cbm;
