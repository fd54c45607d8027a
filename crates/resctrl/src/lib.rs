//! Cache Allocation Technology control plane.
//!
//! This crate models what Intel's `pqos` library and Linux's resctrl
//! filesystem expose: **classes of service** (COS), each carrying a
//! **capacity bitmask** (CBM) over LLC ways, and an assignment from CPU
//! cores to classes. The mask is [`Cbm`], re-exported from the `cbm` leaf
//! crate, so the simulator's fill masks are the same type. dCat manipulates partitions only through the
//! [`CacheController`] trait, so the controller logic is byte-for-byte the
//! same whether it drives:
//!
//! * the in-memory [`mock::InMemoryController`] (unit tests),
//! * the simulator adapter in the `host` crate (all experiments), or
//! * the [`fs::FsBackend`] that reads and writes a real
//!   `/sys/fs/resctrl`-layout directory tree (usable on CAT hardware, and
//!   exercised in tests against a temporary directory fixture).
//!
//! Intel constraints are enforced at this layer: masks must be contiguous
//! and non-empty (no zero-way class — the paper's footnote 4), at most
//! `num_closids` classes exist (16 on the paper's machines), and a mask may
//! not exceed the cache's way count.

//! # Examples
//!
//! Program two non-overlapping tenant partitions through the in-memory
//! backend with the one apply every policy uses (the same calls work on
//! [`FsBackend`] pointed at a real `/sys/fs/resctrl` mount):
//!
//! ```
//! use resctrl::{CacheController, CatCapabilities, CosId, DefaultClass, InMemoryController, Programmed};
//!
//! let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 2);
//! let mut programmed = Programmed::new(cat.capabilities(), DefaultClass::Untouched);
//! // Per class: its COS, ways, anchor key (none: laid out fresh) and cores.
//! programmed.stage([(CosId(1), 4, None, [0]), (CosId(2), 6, None, [1])]);
//! programmed.apply(&mut cat).unwrap();
//! assert_eq!(cat.core_cos(1).unwrap(), CosId(2));
//! assert!(!cat.has_overlapping_active_masks());
//! assert_eq!(cat.cos_mask(CosId(2)).unwrap().ways(), 6);
//! ```

// Library code does not print; bins, tests and benches are other targets and
// own their stdio (DESIGN.md §12).
#![deny(clippy::print_stdout, clippy::print_stderr)]
// No I/O `Result` is discarded and no error severity falls into a `_` arm
// (DESIGN.md §12); `unused_must_use` covers the bare-statement form.
#![cfg_attr(
    not(test),
    deny(clippy::let_underscore_must_use, clippy::wildcard_enum_match_arm)
)]
// A tick degrades, it never dies: no panicking call, index, slice or division
// anywhere in the crate the tick runs in, save a fn-level `#[expect]` with its
// reason (DESIGN.md §12).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::integer_division
)]

mod apply;
mod controller;
pub mod fault;
pub mod fs;
pub mod invariants;
mod layout;
pub mod mock;
pub mod retry;

pub use apply::{DefaultClass, Programmed};
pub use cbm::Cbm;
pub use controller::{CacheController, CatCapabilities, CosId, ErrorSeverity, ResctrlError};
pub use fault::{Fault, FaultPlan, FaultingController};
pub use fs::FsBackend;
pub use layout::LayoutPlanner;
pub use mock::InMemoryController;
pub use retry::{with_retries, RetryEvent, RetryPolicy, RetryingController};
