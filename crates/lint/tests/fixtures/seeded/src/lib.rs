//! Seeded violations: one per clippy lint that replaced a retired
//! `DLxxx` pass (DESIGN.md §12).
//!
//! `ci.sh` runs `cargo clippy -- -D warnings` here twice: as checked in,
//! which must fail naming every lint seeded in [`seeds`]; and on a copy
//! without the `pub mod seeds;` line, which must pass — it is the seeds
//! that fail, not the crate. The `disallowed-*` lists come from the
//! repository's root `clippy.toml` (clippy walks up from this manifest);
//! the restriction lints are declared here the way the product crates
//! declare them.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::integer_division,
    clippy::allow_attributes_without_reason,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::as_conversions,
    clippy::print_stdout,
    clippy::let_underscore_must_use,
    clippy::wildcard_enum_match_arm
)]

pub mod seeds;
