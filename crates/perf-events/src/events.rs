//! MSR performance-event encodings from the paper's Table 2.
//!
//! On real hardware these select programmable counters via
//! `IA32_PERFEVTSELx` (event number + unit mask) or name fixed counters
//! (retired instructions and unhalted cycles live at MSR offsets 0x309 and
//! 0x30A). In the simulator the encodings are informational, but keeping
//! them lets a real MSR backend fill `dcat::Telemetry` samples from the
//! same table.

/// One of the hardware events dCat programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerfEvent {
    /// LLC misses (event 0x2E, umask 0x41).
    LlcMisses,
    /// LLC references (event 0x2E, umask 0x4F).
    LlcReferences,
    /// L1 data-cache misses (event 0xD1, umask 0x08).
    L1Misses,
    /// L1 data-cache hits (event 0xD1, umask 0x01).
    L1Hits,
    /// Retired instructions (fixed counter, MSR 0x309).
    RetiredInstructions,
    /// Unhalted core cycles (fixed counter, MSR 0x30A).
    UnhaltedCycles,
}

/// How an event is selected on the hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSelect {
    /// A programmable counter: event number and unit mask for
    /// `IA32_PERFEVTSELx`.
    Programmable {
        /// Architectural event number.
        event: u8,
        /// Unit mask qualifying the event.
        umask: u8,
    },
    /// A fixed counter living at the given MSR address.
    Fixed {
        /// MSR address of the fixed counter.
        msr: u16,
    },
}

impl PerfEvent {
    /// All events dCat uses, in Table-2 order.
    pub const ALL: [PerfEvent; 6] = [
        PerfEvent::LlcMisses,
        PerfEvent::LlcReferences,
        PerfEvent::L1Misses,
        PerfEvent::L1Hits,
        PerfEvent::RetiredInstructions,
        PerfEvent::UnhaltedCycles,
    ];

    /// The hardware selection for this event (the paper's Table 2).
    pub fn select(self) -> EventSelect {
        match self {
            PerfEvent::LlcMisses => EventSelect::Programmable {
                event: 0x2E,
                umask: 0x41,
            },
            PerfEvent::LlcReferences => EventSelect::Programmable {
                event: 0x2E,
                umask: 0x4F,
            },
            PerfEvent::L1Misses => EventSelect::Programmable {
                event: 0xD1,
                umask: 0x08,
            },
            PerfEvent::L1Hits => EventSelect::Programmable {
                event: 0xD1,
                umask: 0x01,
            },
            PerfEvent::RetiredInstructions => EventSelect::Fixed { msr: 0x309 },
            PerfEvent::UnhaltedCycles => EventSelect::Fixed { msr: 0x30A },
        }
    }

    /// Human-readable event name.
    pub fn name(self) -> &'static str {
        match self {
            PerfEvent::LlcMisses => "LLC Misses",
            PerfEvent::LlcReferences => "LLC References",
            PerfEvent::L1Misses => "L1 Cache Misses",
            PerfEvent::L1Hits => "L1 Cache Hits",
            PerfEvent::RetiredInstructions => "Retired Instructions",
            PerfEvent::UnhaltedCycles => "Unhalted Cycles",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_2_encodings() {
        assert_eq!(
            PerfEvent::LlcMisses.select(),
            EventSelect::Programmable {
                event: 0x2E,
                umask: 0x41
            }
        );
        assert_eq!(
            PerfEvent::LlcReferences.select(),
            EventSelect::Programmable {
                event: 0x2E,
                umask: 0x4F
            }
        );
        assert_eq!(
            PerfEvent::L1Misses.select(),
            EventSelect::Programmable {
                event: 0xD1,
                umask: 0x08
            }
        );
        assert_eq!(
            PerfEvent::RetiredInstructions.select(),
            EventSelect::Fixed { msr: 0x309 }
        );
        assert_eq!(
            PerfEvent::UnhaltedCycles.select(),
            EventSelect::Fixed { msr: 0x30A }
        );
    }

    #[test]
    fn all_lists_six_distinct_events() {
        let mut names: Vec<_> = PerfEvent::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }
}
