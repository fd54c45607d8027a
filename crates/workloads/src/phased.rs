//! Composite streams that switch behavior between phases.
//!
//! Real programs move through phases with different memory behavior; dCat
//! detects a phase change from a >10% shift in memory accesses per
//! instruction and re-baselines (paper Sections 3.3, 3.4). [`PhasedStream`]
//! builds such programs from any sequence of sub-streams, each active for a
//! fixed number of references, cycling forever.

use llc_sim::PageSize;

use crate::stream::{AccessStream, ExecutionProfile, MemRef};

/// One phase: a sub-stream and how many references it runs for.
pub struct Phase {
    /// The workload of this phase.
    pub stream: Box<dyn AccessStream>,
    /// Number of memory references before advancing to the next phase.
    pub accesses: u64,
}

/// A stream that plays its phases in order, then starts over.
pub struct PhasedStream {
    phases: Vec<Phase>,
    current: usize,
    remaining_in_phase: u64,
}

impl PhasedStream {
    /// Creates a phased stream that cycles back to the first phase.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase has zero accesses.
    pub fn cycling(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "phased stream needs at least one phase");
        assert!(
            phases.iter().all(|p| p.accesses > 0),
            "every phase must run for at least one access"
        );
        let first = phases[0].accesses;
        PhasedStream {
            phases,
            current: 0,
            remaining_in_phase: first,
        }
    }

    fn advance_if_needed(&mut self) {
        if self.remaining_in_phase > 0 {
            return;
        }
        self.current = (self.current + 1) % self.phases.len();
        self.remaining_in_phase = self.phases[self.current].accesses;
    }
}

impl AccessStream for PhasedStream {
    fn next_access(&mut self) -> MemRef {
        self.advance_if_needed();
        self.remaining_in_phase = self.remaining_in_phase.saturating_sub(1);
        self.phases[self.current].stream.next_access()
    }

    fn profile(&self) -> ExecutionProfile {
        self.phases[self.current].stream.profile()
    }

    fn page_size(&self) -> PageSize {
        // The engine allocates one address space per workload; all phases
        // share the first phase's page size.
        self.phases[0].stream.page_size()
    }

    fn name(&self) -> String {
        let names: Vec<String> = self.phases.iter().map(|p| p.stream.name()).collect();
        format!("phased[{}]", names.join("->"))
    }

    fn working_set_bytes(&self) -> Option<u64> {
        self.phases[self.current].stream.working_set_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mload, Mlr};

    fn two_phase() -> PhasedStream {
        PhasedStream::cycling(vec![
            Phase {
                stream: Box::new(Mlr::new(1 << 20, 1)),
                accesses: 10,
            },
            Phase {
                stream: Box::new(Mload::new(1 << 20)),
                accesses: 10,
            },
        ])
    }

    #[test]
    fn switches_after_configured_accesses() {
        let mut s = two_phase();
        for _ in 0..10 {
            s.next_access();
        }
        assert_eq!(s.current, 0);
        s.next_access();
        assert_eq!(s.current, 1);
    }

    #[test]
    fn profile_follows_current_phase() {
        let mut s = two_phase();
        let p0 = s.profile();
        for _ in 0..11 {
            s.next_access();
        }
        let p1 = s.profile();
        assert!((p0.mem_refs_per_instr - p1.mem_refs_per_instr).abs() > 0.1);
    }

    #[test]
    fn cycling_returns_to_first_phase() {
        let mut s = PhasedStream::cycling(vec![
            Phase {
                stream: Box::new(Mlr::new(1 << 20, 1)),
                accesses: 5,
            },
            Phase {
                stream: Box::new(Mload::new(1 << 20)),
                accesses: 5,
            },
        ]);
        for _ in 0..11 {
            s.next_access();
        }
        assert_eq!(s.current, 0);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let _ = PhasedStream::cycling(vec![]);
    }

    #[test]
    fn name_lists_phases() {
        let s = two_phase();
        assert_eq!(s.name(), "phased[MLR-1MB->MLOAD-1MB]");
    }
}
