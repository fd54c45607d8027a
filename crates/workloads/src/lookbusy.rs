//! lookbusy: a CPU burner with negligible cache footprint.
//!
//! The paper uses `lookbusy` as the "polite neighbor": it consumes CPU but
//! performs essentially no LLC accesses, so dCat classifies its VM as a
//! Donor and shrinks it to the minimum one way. We model it as a tight
//! loop over a buffer that fits comfortably in the L1.

use llc_sim::LINE_SIZE;

use crate::stream::{AccessStream, ExecutionProfile, MemRef};

/// CPU-bound workload touching only an L1-resident buffer.
#[derive(Debug)]
pub struct Lookbusy {
    lines: u64,
    cursor: u64,
}

impl Lookbusy {
    /// Buffer size: 8 KiB, a quarter of the L1.
    pub(crate) const WSS_BYTES: u64 = 8 * 1024;

    /// Creates a lookbusy stream.
    pub fn new() -> Self {
        Lookbusy {
            lines: Self::WSS_BYTES / LINE_SIZE,
            cursor: 0,
        }
    }
}

impl Default for Lookbusy {
    fn default() -> Self {
        Lookbusy::new()
    }
}

impl AccessStream for Lookbusy {
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
        // Almost pure compute: few memory references, all L1 hits.
        ExecutionProfile::new(0.02, 0.5, 1.0)
    }

    fn name(&self) -> String {
        "lookbusy".to_string()
    }

    fn working_set_bytes(&self) -> Option<u64> {
        Some(Self::WSS_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_fits_in_l1() {
        let mut lb = Lookbusy::new();
        for _ in 0..1000 {
            assert!(lb.next_access().vaddr.0 < Lookbusy::WSS_BYTES);
        }
    }

    #[test]
    fn profile_is_compute_bound() {
        let lb = Lookbusy::new();
        assert!(lb.profile().mem_refs_per_instr < 0.05);
    }
}
