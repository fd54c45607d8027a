//! A prefetch hint to the machine the simulator runs on — the workspace's
//! only `unsafe` block (`unsafe_code = "deny"` in the root `Cargo.toml`'s
//! `[workspace.lints.rust]`, which every member inherits, proves it;
//! DESIGN.md §12).
//!
//! A hint reads nothing and writes nothing the program can observe: it asks
//! the host's memory system to start fetching a line the simulator is about
//! to walk. `std::hint::prefetch_read` (rust-lang/rust#146941) replaces this
//! module when it stabilises.

/// Asks the host to bring the 64-byte line holding `word` towards its L1.
/// A no-op on targets other than `x86_64`.
#[inline(always)]
#[allow(
    unsafe_code,
    reason = "the one prefetch instruction; std::hint::prefetch_read is unstable"
)]
pub fn prefetch_read(word: &u32) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: the pointer comes from a live `&u32`, and `prefetcht0`
        // neither faults nor writes whatever address it is given: it has
        // no architectural effect. That is the whole argument wherever
        // `_mm_prefetch` is an `unsafe fn`. On this toolchain (checked on
        // rustc 1.95: the call compiles without `unsafe` inside a
        // `#[target_feature(enable = "sse")]` fn, and from a plain fn the
        // error is E0133 "call to function with `#[target_feature]`") it
        // is a safe function, and the block is asked for only because
        // this caller does not carry the attribute — SSE is in every
        // `x86_64` baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(word).cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = word;
}
