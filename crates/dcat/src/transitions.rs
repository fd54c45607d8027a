//! The paper's Figure 6 transition table, as data.
//!
//! Each interval the categorizer maps a workload's current
//! [`WorkloadClass`] and an [`Observation`] (the telemetry bucket the
//! interval fell into) to the next class. The edges live in [`FIGURE6`],
//! an ordered rule list — first match wins — so the state machine can be
//! audited row by row against the paper, enumerated exhaustively by the
//! table-driven classifier test, and explored by the `dcat-verify` model
//! checker, all without duplicating the logic.
//!
//! [`DcatController::tick`](crate::DcatController::tick) consumes the same
//! table through [`decide`]: the table *is* the classifier, not a copy of
//! it.

use std::fmt;

use crate::state::WorkloadClass;

/// Where the interval's IPC landed relative to the improvement threshold,
/// for a workload whose allocation change is being judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ImprovementSignal {
    /// Judged: IPC improved by more than `ipc_imp_thr`.
    Improved,
    /// Judged: IPC did not improve meaningfully.
    Stalled,
    /// No judgement this interval (no allocation change to evaluate).
    Unjudged,
}

/// One interval's telemetry, bucketed against the config thresholds —
/// the abstraction level at which Figure 6 is drawn.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Observation {
    /// LLC references per instruction at or below `llc_ref_per_instr_thr`:
    /// the workload does not use the LLC.
    pub(crate) low_llc_use: bool,
    /// Miss rate below `donor_miss_rate_thr`: whatever is cached suffices.
    pub(crate) negligible_misses: bool,
    /// Miss rate above `llc_miss_rate_thr`: the workload is starved (or
    /// streaming).
    pub(crate) high_misses: bool,
    /// Judgement of the last allocation change, if one was due.
    pub(crate) improvement: ImprovementSignal,
    /// The active phase's table recorded a meaningful gain at some size.
    pub(crate) ever_improved: bool,
    /// A growth step was observed to yield no improvement this phase.
    pub(crate) saw_no_improvement: bool,
    /// Growth has nowhere to go: the streaming cap was reached, or the
    /// allocator denied the last grow request.
    pub(crate) at_growth_limit: bool,
    /// The allocator denied the last grow request specifically.
    pub(crate) grow_denied: bool,
    /// Pinned at the reserved allocation after a Streaming misverdict.
    pub(crate) capped: bool,
    /// A previous growth probe stalled at exactly the current size.
    pub(crate) stalled_here: bool,
}

/// One edge of Figure 6: `from` (or any class when `None`) moves to `to`
/// when `when` holds. Rules are tried in order; the first match wins.
pub(crate) struct Rule {
    /// Source class; `None` matches every class.
    pub(crate) from: Option<WorkloadClass>,
    /// Guard over the interval's observation.
    pub(crate) when: fn(&Observation) -> bool,
    /// The source text of `when`'s body (`true` for a catch-all row).
    guard: &'static str,
    /// Destination class.
    pub(crate) to: WorkloadClass,
    /// Whether taking this edge records a stall at the current size
    /// (Keeper will not re-probe there this phase).
    pub(crate) records_stall: bool,
}

/// A row as DESIGN.md §12's `figure6` block writes it: `FROM -> TO
/// [stall] when GUARD`, with `any` for a row from every class and `always`
/// for a catch-all guard.
impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.from {
            Some(class) => write!(f, "{class:?}")?,
            None => f.write_str("any")?,
        }
        let stall = if self.records_stall { " [stall]" } else { "" };
        let guard = if self.guard == "true" {
            "always"
        } else {
            self.guard
        };
        write!(f, " -> {:?}{stall} when {guard}", self.to)
    }
}

/// A [`Rule`] whose `guard` text is `stringify!` of its `when` body, so the
/// two cannot disagree.
macro_rules! rule {
    (
        from: $from:expr,
        when: |$o:tt| $guard:expr,
        to: $to:expr,
        records_stall: $stall:expr $(,)?
    ) => {
        Rule {
            from: $from,
            when: |$o| $guard,
            guard: stringify!($guard),
            to: $to,
            records_stall: $stall,
        }
    };
}

/// The Figure 6 state machine. Reclaim and Streaming resolve uncondition-
/// ally before the telemetry guards; every class ends with a catch-all
/// self-edge, so the table is total.
pub(crate) const FIGURE6: &[Rule] = &[
    // Reclaim -> Keeper: baseline re-measured at the reserved size
    rule! {
        from: Some(WorkloadClass::Reclaim),
        when: |_| true,
        to: WorkloadClass::Keeper,
        records_stall: false,
    },
    // Streaming -> Streaming: the verdict is sticky within a phase
    rule! {
        from: Some(WorkloadClass::Streaming),
        when: |_| true,
        to: WorkloadClass::Streaming,
        records_stall: false,
    },
    // any -> Donor (fast): the workload is not using the LLC
    rule! {
        from: None,
        when: |o| o.low_llc_use,
        to: WorkloadClass::Donor,
        records_stall: false,
    },
    // Keeper -> Donor (gradual): whatever is cached suffices
    rule! {
        from: Some(WorkloadClass::Keeper),
        when: |o| o.negligible_misses,
        to: WorkloadClass::Donor,
        records_stall: false,
    },
    // Donor -> Donor: misses still negligible, keep donating
    rule! {
        from: Some(WorkloadClass::Donor),
        when: |o| o.negligible_misses && !o.high_misses,
        to: WorkloadClass::Donor,
        records_stall: false,
    },
    // Donor -> Keeper: donated too far (misses no longer negligible)
    rule! {
        from: Some(WorkloadClass::Donor),
        when: |_| true,
        to: WorkloadClass::Keeper,
        records_stall: false,
    },
    // Keeper -> Unknown: missing hard, probe whether cache helps
    rule! {
        from: Some(WorkloadClass::Keeper),
        when: |o| o.high_misses && !o.capped && !o.stalled_here,
        to: WorkloadClass::Unknown,
        records_stall: false,
    },
    // Keeper -> Keeper: neither donating nor starved
    rule! {
        from: Some(WorkloadClass::Keeper),
        when: |_| true,
        to: WorkloadClass::Keeper,
        records_stall: false,
    },
    // Unknown -> Receiver: the added way paid off
    rule! {
        from: Some(WorkloadClass::Unknown),
        when: |o| o.improvement == ImprovementSignal::Improved,
        to: WorkloadClass::Receiver,
        records_stall: false,
    },
    // Unknown -> Streaming: grew to the limit, never any payoff
    rule! {
        from: Some(WorkloadClass::Unknown),
        when: |o| !o.ever_improved && o.saw_no_improvement && o.at_growth_limit,
        to: WorkloadClass::Streaming,
        records_stall: false,
    },
    // Unknown -> Keeper: benefited earlier but stalled at this size
    rule! {
        from: Some(WorkloadClass::Unknown),
        when: |o| o.improvement == ImprovementSignal::Stalled && o.ever_improved,
        to: WorkloadClass::Keeper,
        records_stall: true,
    },
    // Unknown -> Keeper: pool exhausted, probe cannot proceed
    rule! {
        from: Some(WorkloadClass::Unknown),
        when: |o| o.improvement == ImprovementSignal::Unjudged && o.grow_denied,
        to: WorkloadClass::Keeper,
        records_stall: true,
    },
    // Unknown -> Unknown: verdict still open, keep probing
    rule! {
        from: Some(WorkloadClass::Unknown),
        when: |_| true,
        to: WorkloadClass::Unknown,
        records_stall: false,
    },
    // Receiver -> Keeper: the latest way yielded no improvement
    rule! {
        from: Some(WorkloadClass::Receiver),
        when: |o| o.improvement == ImprovementSignal::Stalled,
        to: WorkloadClass::Keeper,
        records_stall: true,
    },
    // Receiver -> Keeper: misses subsided, growth is done
    rule! {
        from: Some(WorkloadClass::Receiver),
        when: |o| !o.high_misses,
        to: WorkloadClass::Keeper,
        records_stall: false,
    },
    // Receiver -> Receiver: still starved, still improving
    rule! {
        from: Some(WorkloadClass::Receiver),
        when: |_| true,
        to: WorkloadClass::Receiver,
        records_stall: false,
    },
];

/// Resolves the Figure 6 edge for `current` under `obs`.
///
/// # Panics
///
/// Panics if no rule matches — impossible while every class retains its
/// catch-all row (the exhaustive classifier test enumerates totality).
#[expect(
    clippy::panic,
    reason = "the exhaustive classifier test enumerates totality over every class; a non-total table is a build defect worth dying on, not a runtime condition to degrade"
)]
pub(crate) fn decide(current: WorkloadClass, obs: &Observation) -> &'static Rule {
    FIGURE6
        .iter()
        .find(|r| (r.from.is_none() || r.from == Some(current)) && (r.when)(obs))
        .unwrap_or_else(|| panic!("Figure 6 table not total for {current:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_CLASSES: [WorkloadClass; 6] = [
        WorkloadClass::Keeper,
        WorkloadClass::Donor,
        WorkloadClass::Receiver,
        WorkloadClass::Streaming,
        WorkloadClass::Unknown,
        WorkloadClass::Reclaim,
    ];

    fn all_observations() -> Vec<Observation> {
        let mut out = Vec::new();
        for low in [false, true] {
            for negligible in [false, true] {
                for high in [false, true] {
                    for imp in [
                        ImprovementSignal::Improved,
                        ImprovementSignal::Stalled,
                        ImprovementSignal::Unjudged,
                    ] {
                        for ever in [false, true] {
                            for saw in [false, true] {
                                for denied in [false, true] {
                                    for limit in [denied, true] {
                                        for capped in [false, true] {
                                            for stalled in [false, true] {
                                                out.push(Observation {
                                                    low_llc_use: low,
                                                    negligible_misses: negligible,
                                                    high_misses: high,
                                                    improvement: imp,
                                                    ever_improved: ever,
                                                    saw_no_improvement: saw,
                                                    at_growth_limit: limit,
                                                    grow_denied: denied,
                                                    capped,
                                                    stalled_here: stalled,
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn table_is_total_over_the_whole_lattice() {
        for class in ALL_CLASSES {
            for obs in all_observations() {
                // decide() panics on a gap; reaching here is the assertion.
                let rule = decide(class, &obs);
                assert!(rule.from.is_none() || rule.from == Some(class));
            }
        }
    }

    /// An independent transcription of Figure 6, written as a plain match
    /// (the shape the paper draws) rather than a rule list. The exhaustive
    /// test below holds the two formulations to each other over every
    /// (state x telemetry-bucket) cell.
    fn figure6_spec(current: WorkloadClass, o: &Observation) -> WorkloadClass {
        use ImprovementSignal::*;
        use WorkloadClass::*;
        match current {
            Reclaim => Keeper,
            Streaming => Streaming,
            _ if o.low_llc_use => Donor,
            Keeper if o.negligible_misses => Donor,
            Donor => {
                if o.high_misses {
                    Keeper
                } else if o.negligible_misses {
                    Donor
                } else {
                    Keeper
                }
            }
            Keeper => {
                if o.high_misses && !o.capped && !o.stalled_here {
                    Unknown
                } else {
                    Keeper
                }
            }
            Unknown => match o.improvement {
                Improved => Receiver,
                _ if !o.ever_improved && o.saw_no_improvement && o.at_growth_limit => Streaming,
                Stalled if o.ever_improved => Keeper,
                // A denied probe with nothing judged resolves to Keeper:
                // the verdict cannot be reached until capacity frees up,
                // and the stall record retries it when that happens.
                Unjudged if o.grow_denied => Keeper,
                _ => Unknown,
            },
            Receiver => {
                if !o.high_misses || o.improvement == Stalled {
                    Keeper
                } else {
                    Receiver
                }
            }
        }
    }

    #[test]
    fn classifier_matches_figure6_for_every_cell() {
        let mut cells = 0usize;
        for class in ALL_CLASSES {
            for obs in all_observations() {
                let rule = decide(class, &obs);
                assert_eq!(
                    rule.to,
                    figure6_spec(class, &obs),
                    "divergence at {class:?} with {obs:?} (rule: {rule})"
                );
                cells += 1;
            }
        }
        assert!(cells >= 6 * 384, "lattice under-enumerated: {cells} cells");
    }

    /// DESIGN.md §12 lists Figure 6 between `figure6` markers, one
    /// `rule N: FROM -> TO [stall] when GUARD` line per row; editing either
    /// table without the other fails here.
    #[test]
    fn figure6_table_matches_design_md() {
        let design = include_str!("../../../DESIGN.md");
        let (_, block) = design.split_once("<!-- figure6:begin -->\n").unwrap();
        let (block, _) = block.split_once("<!-- figure6:end -->").unwrap();
        let rendered: String = FIGURE6
            .iter()
            .enumerate()
            .map(|(i, r)| format!("rule {}: {r}\n", i + 1))
            .collect();
        assert_eq!(rendered, block);
    }

    #[test]
    fn terminal_and_priority_edges_match_the_paper() {
        let idle = Observation {
            low_llc_use: true,
            negligible_misses: true,
            high_misses: false,
            improvement: ImprovementSignal::Unjudged,
            ever_improved: false,
            saw_no_improvement: false,
            at_growth_limit: false,
            grow_denied: false,
            capped: false,
            stalled_here: false,
        };
        // Reclaim and Streaming resolve before any telemetry guard.
        assert_eq!(
            decide(WorkloadClass::Reclaim, &idle).to,
            WorkloadClass::Keeper
        );
        assert_eq!(
            decide(WorkloadClass::Streaming, &idle).to,
            WorkloadClass::Streaming
        );
        // Everyone else with no LLC use donates fast.
        for class in [
            WorkloadClass::Keeper,
            WorkloadClass::Donor,
            WorkloadClass::Receiver,
            WorkloadClass::Unknown,
        ] {
            assert_eq!(decide(class, &idle).to, WorkloadClass::Donor);
        }
    }
}
