//! MLR: a stream of random read accesses to an array.
//!
//! This is the paper's primary micro-benchmark (Section 2.1): every
//! reference is a load at a uniformly random line of a buffer of
//! configurable working-set size. Consecutive loads are data-dependent (a
//! pointer chase), so the effective memory-level parallelism is ~1 and the
//! measured data-access latency tracks the hierarchy level serving the
//! misses — which is what makes MLR so sensitive to its LLC allocation.

use llc_sim::{PageSize, LINE_SIZE};
use smallrng::SmallRng;

use crate::stream::{AccessStream, ExecutionProfile, MemRef};

/// Random-read micro-benchmark with a fixed working set.
#[derive(Debug)]
pub struct Mlr {
    wss_bytes: u64,
    lines: u64,
    page_size: PageSize,
    rng: SmallRng,
}

impl Mlr {
    /// Memory references per instruction for the pointer-chase loop.
    pub(crate) const MEM_REFS_PER_INSTR: f64 = 0.34;

    /// Creates an MLR with the given working-set size, 4 KiB pages.
    ///
    /// # Panics
    ///
    /// Panics if the working set is smaller than one cache line.
    pub fn new(wss_bytes: u64, seed: u64) -> Self {
        Self::with_page_size(wss_bytes, PageSize::Small, seed)
    }

    /// Creates an MLR backed by the given page size (the paper's Figure 2
    /// compares 4 KiB pages with 2 MiB huge pages).
    pub fn with_page_size(wss_bytes: u64, page_size: PageSize, seed: u64) -> Self {
        assert!(wss_bytes >= LINE_SIZE, "working set smaller than one line");
        Mlr {
            wss_bytes,
            lines: wss_bytes / LINE_SIZE,
            page_size,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl AccessStream for Mlr {
    fn next_access(&mut self) -> MemRef {
        let line = self.rng.gen_range(0..self.lines);
        MemRef::load(line * LINE_SIZE)
    }

    fn profile(&self) -> ExecutionProfile {
        // A dependent random chase: each load's address comes from the
        // previous load, so misses serialize (MLP ~= 1).
        ExecutionProfile::new(Self::MEM_REFS_PER_INSTR, 0.75, 1.0)
    }

    fn page_size(&self) -> PageSize {
        self.page_size
    }

    fn name(&self) -> String {
        format!("MLR-{}MB", self.wss_bytes / (1024 * 1024))
    }

    fn working_set_bytes(&self) -> Option<u64> {
        Some(self.wss_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn accesses_stay_within_working_set() {
        let mut mlr = Mlr::new(1024 * 1024, 7);
        for _ in 0..10_000 {
            let r = mlr.next_access();
            assert!(r.vaddr.0 < 1024 * 1024);
            assert_eq!(r.vaddr.0 % LINE_SIZE, 0);
            assert!(!r.ends_request);
        }
    }

    #[test]
    fn accesses_cover_the_working_set() {
        // With 64 lines and 10k draws, every line should be touched.
        let mut mlr = Mlr::new(64 * LINE_SIZE, 11);
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            seen.insert(mlr.next_access().vaddr.0);
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut m = Mlr::new(1 << 20, 5);
            (0..32).map(|_| m.next_access().vaddr.0).collect()
        };
        let b: Vec<u64> = {
            let mut m = Mlr::new(1 << 20, 5);
            (0..32).map(|_| m.next_access().vaddr.0).collect()
        };
        let c: Vec<u64> = {
            let mut m = Mlr::new(1 << 20, 6);
            (0..32).map(|_| m.next_access().vaddr.0).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn profile_is_serial_and_memory_heavy() {
        let m = Mlr::new(6 * 1024 * 1024, 1);
        let p = m.profile();
        assert_eq!(p.mlp, 1.0);
        assert!(p.mem_refs_per_instr > 0.2);
        assert_eq!(m.working_set_bytes(), Some(6 * 1024 * 1024));
        assert_eq!(m.name(), "MLR-6MB");
    }

    #[test]
    #[should_panic(expected = "smaller than one line")]
    fn rejects_tiny_working_set() {
        let _ = Mlr::new(32, 0);
    }
}
