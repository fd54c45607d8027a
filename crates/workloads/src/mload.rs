//! MLOAD: a stream of sequential read accesses to an array.
//!
//! The paper's noisy neighbor. With a 60 MB working set the scan is cyclic:
//! by the time the stream wraps around, the head of the buffer has been
//! evicted, so there is *no reuse* — the paper's "streaming" class
//! (citing the cyclic access pattern of Qureshi's adaptive-insertion work).
//! Hardware prefetchers hide much of the miss latency, modeled as a high
//! effective MLP, so MLOAD's own IPC barely depends on its LLC share — but
//! its eviction pressure destroys its neighbors' cache contents.

use llc_sim::{PageSize, LINE_SIZE};

use crate::stream::{AccessStream, ExecutionProfile, MemRef};

/// Sequential-scan micro-benchmark with a fixed working set.
#[derive(Debug)]
pub struct Mload {
    wss_bytes: u64,
    lines: u64,
    cursor: u64,
    page_size: PageSize,
}

impl Mload {
    /// Memory references per instruction for the scan loop. Distinct from
    /// MLR's value so phase detection can tell the two apart.
    pub(crate) const MEM_REFS_PER_INSTR: f64 = 0.5;

    /// Creates an MLOAD with the given working-set size, 4 KiB pages.
    ///
    /// # Panics
    ///
    /// Panics if the working set is smaller than one cache line.
    pub fn new(wss_bytes: u64) -> Self {
        Self::with_page_size(wss_bytes, PageSize::Small)
    }

    /// Creates an MLOAD backed by the given page size.
    pub(crate) fn with_page_size(wss_bytes: u64, page_size: PageSize) -> Self {
        assert!(wss_bytes >= LINE_SIZE, "working set smaller than one line");
        Mload {
            wss_bytes,
            lines: wss_bytes / LINE_SIZE,
            cursor: 0,
            page_size,
        }
    }
}

impl AccessStream for Mload {
    fn next_access(&mut self) -> MemRef {
        let line = self.cursor;
        // Compare-and-wrap: a `%` here is a 64-bit division per reference.
        self.cursor += 1;
        if self.cursor == self.lines {
            self.cursor = 0;
        }
        MemRef::load(line * LINE_SIZE)
    }

    fn profile(&self) -> ExecutionProfile {
        // Sequential loads prefetch well: many overlapped misses.
        ExecutionProfile::new(Self::MEM_REFS_PER_INSTR, 0.6, 8.0)
    }

    fn page_size(&self) -> PageSize {
        self.page_size
    }

    fn name(&self) -> String {
        format!("MLOAD-{}MB", self.wss_bytes / (1024 * 1024))
    }

    fn working_set_bytes(&self) -> Option<u64> {
        Some(self.wss_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_is_sequential_and_cyclic() {
        let mut m = Mload::new(4 * LINE_SIZE);
        let addrs: Vec<u64> = (0..6).map(|_| m.next_access().vaddr.0).collect();
        assert_eq!(addrs, vec![0, 64, 128, 192, 0, 64]);
    }

    #[test]
    fn profile_is_streaming() {
        let m = Mload::new(60 * 1024 * 1024);
        assert!(m.profile().mlp > 4.0);
        assert_eq!(m.name(), "MLOAD-60MB");
        assert_eq!(m.working_set_bytes(), Some(60 * 1024 * 1024));
    }

    #[test]
    fn phase_signature_differs_from_mlr() {
        // dCat's phase detector must be able to distinguish the two.
        assert!((Mload::MEM_REFS_PER_INSTR - crate::Mlr::MEM_REFS_PER_INSTR).abs() > 0.1);
    }
}
