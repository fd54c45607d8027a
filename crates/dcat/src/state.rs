//! Workload classification states (the paper's Figure 6).

use std::fmt;

/// The class dCat assigns a workload each interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WorkloadClass {
    /// Would suffer with less cache but does not benefit from more; keeps
    /// its current allocation. The start state of every workload.
    #[default]
    Keeper,
    /// Does not benefit from its cache (idle, low LLC use, or negligible
    /// misses); shrinks toward the minimum allocation.
    Donor,
    /// Benefits from more cache and suffers from less; grows while the
    /// free pool lasts.
    Receiver,
    /// Misses heavily but never reuses cached data (cyclic access
    /// patterns); a special donor pinned at the minimum allocation.
    Streaming,
    /// Misses heavily but it is not yet known whether more cache helps;
    /// grows (with priority over Receivers) until a determination is made.
    Unknown,
    /// A phase change was detected; the workload returns to its reserved
    /// allocation to re-establish the baseline. Highest priority.
    Reclaim,
}

impl WorkloadClass {
    /// Whether this class is currently a candidate for receiving ways.
    pub(crate) fn wants_growth(self) -> bool {
        matches!(self, WorkloadClass::Receiver | WorkloadClass::Unknown)
    }

    /// The class as the frame stream and every report render it (an
    /// entry of `dcat_obs::frames::KNOWN_CLASSES`).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            WorkloadClass::Keeper => "Keeper",
            WorkloadClass::Donor => "Donor",
            WorkloadClass::Receiver => "Receiver",
            WorkloadClass::Streaming => "Streaming",
            WorkloadClass::Unknown => "Unknown",
            WorkloadClass::Reclaim => "Reclaim",
        }
    }
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_and_donor_predicates() {
        assert!(WorkloadClass::Receiver.wants_growth());
        assert!(WorkloadClass::Unknown.wants_growth());
        assert!(!WorkloadClass::Keeper.wants_growth());
        assert!(!WorkloadClass::Streaming.wants_growth());
    }

    #[test]
    fn display_names() {
        assert_eq!(WorkloadClass::Reclaim.to_string(), "Reclaim");
        assert_eq!(WorkloadClass::Unknown.to_string(), "Unknown");
    }

    #[test]
    fn every_class_renders_as_an_entry_of_the_frame_schema_table() {
        let all = [
            WorkloadClass::Keeper,
            WorkloadClass::Donor,
            WorkloadClass::Receiver,
            WorkloadClass::Streaming,
            WorkloadClass::Unknown,
            WorkloadClass::Reclaim,
        ];
        let rendered: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        assert_eq!(rendered, dcat_obs::frames::KNOWN_CLASSES);
    }
}
