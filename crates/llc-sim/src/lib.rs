//! Set-associative, inclusive cache-hierarchy simulator with CAT-style
//! way-partitioning.
//!
//! This crate is the hardware substrate for the dCat reproduction. It models
//! the parts of an Intel Xeon memory hierarchy that the paper's evaluation
//! depends on:
//!
//! * a **shared, inclusive, set-associative last-level cache** (LLC) indexed
//!   by physical address,
//! * **Cache Allocation Technology (CAT)** semantics: each core carries a
//!   *fill mask* — a [`Cbm`], the type `resctrl` programs, from the `cbm`
//!   leaf crate — restricting which ways it may allocate (evict) into,
//!   while hits are served from any way,
//! * private per-core **L1/L2** caches kept inclusive with the LLC
//!   (an LLC eviction back-invalidates the line from every private cache),
//! * **virtual-to-physical translation** with 4 KiB and 2 MiB pages and a
//!   frame allocator that can hand out either randomized or contiguous
//!   physical frames (this is what makes the paper's conflict-miss
//!   experiments, Figures 2 and 3, emerge rather than being scripted),
//! * per-core **event counters** matching the MSR events of the paper's
//!   Table 2, and
//! * a **latency/IPC model** that converts per-level hit counts into cycles
//!   and average data-access latency.
//!
//! The crate deliberately knows nothing about workloads, VMs, or the dCat
//! controller; those live in the `workloads`, `host`, and `dcat` crates.
//!
//! # Examples
//!
//! ```
//! use llc_sim::{CacheGeometry, Cbm, Hierarchy, HierarchyConfig};
//!
//! // A small two-core hierarchy with an 8-way LLC.
//! let cfg = HierarchyConfig {
//!     cores: 2,
//!     llc: CacheGeometry::new(1024, 8, 64),
//!     ..HierarchyConfig::default()
//! };
//! let mut h = Hierarchy::new(cfg);
//!
//! // Restrict core 0 to the two low ways (CAT).
//! h.set_fill_mask(0, Cbm::from_way_range(0, 2));
//! h.access(0, 0x1000, llc_sim::AccessKind::Load);
//! assert_eq!(h.counters(0).l1_ref, 1);
//! ```

// Library code does not print; bins, tests and benches are other targets and
// own their stdio (DESIGN.md §12).
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod address;
mod cache;
mod coloring;
mod counters;
mod geometry;
mod hierarchy;
mod hint;
mod latency;
mod paging;
mod private;
pub mod replacement;
pub mod set;
mod stats;

pub use address::{LineAddr, PhysAddr, VirtAddr, LINE_SHIFT, LINE_SIZE};
pub use cache::{AccessOutcome, SetAssocCache};
pub use cbm::Cbm;
/// [`Cbm`] under its old simulator name, kept only for the system
/// benchmark's link list; it goes with ROADMAP item 17's second half.
pub use cbm::Cbm as WayMask;
pub use coloring::ColorSet;
pub use counters::CoreCounters;
pub use geometry::CacheGeometry;
pub use hierarchy::{AccessKind, CoreSlice, Hierarchy, HierarchyConfig, HitLevel, SimFidelity};
pub use latency::{CyclesModel, LatencyModel};
pub use paging::{FrameAllocator, FramePolicy, PageMapper, PageSize};
pub use private::PrivateCache;
pub use replacement::ReplacementPolicy;
pub use stats::SetOccupancyHistogram;

// Socket-level parallelism moves a whole socket's simulator state to a
// worker thread, so the core state types must stay `Send`. Assert it at
// compile time: introducing an `Rc` or raw pointer anywhere inside these
// structures becomes a build error here rather than a distant type error
// in the `host` crate.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Hierarchy>();
    assert_send::<PageMapper>();
    assert_send::<FrameAllocator>();
};
