//! Structured per-tick events from the daemon's recovery paths.
//!
//! The daemon used to have exactly two observable behaviors: produce
//! reports, or die. Everything in between — a retried read, a held
//! allocation, a quarantined domain — was invisible. [`Event`] makes
//! that middle ground explicit: every tick of
//! [`crate::daemon::run_daemon_observed`] carries the events it generated
//! through the observer hook, each rendering as one stable
//! `key=value`-style log line for operators and as a typed value for
//! tests, which assert the log records every injected fault.

use std::fmt;

/// Why a tick was degraded (allocations held, no controller decision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// Telemetry could not be read after all retries.
    Telemetry,
    /// A resctrl write failed after all retries, mid-tick.
    Resctrl,
}

impl DegradeReason {
    /// The reason as frames, events and metric labels render it (an
    /// entry of `dcat_obs::frames::KNOWN_REASONS`).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            DegradeReason::Telemetry => "telemetry",
            DegradeReason::Resctrl => "resctrl",
        }
    }
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured observation from the daemon loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A telemetry read failed transiently and was retried.
    TelemetryRetried {
        /// 1-based attempt that failed.
        attempt: u32,
        /// Rendered error.
        error: String,
    },
    /// Telemetry reads exhausted their retries this tick.
    TelemetryExhausted {
        /// Total attempts made.
        attempts: u32,
        /// Rendered final error.
        error: String,
    },
    /// A telemetry row could not be parsed and was dropped.
    RowMalformed {
        /// Domain name, when the row got far enough to reveal one.
        domain: Option<String>,
        /// 1-based line number in the telemetry file.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A resctrl write failed transiently and was retried.
    ResctrlRetried {
        /// Which operation (e.g. `program_cos`).
        op: &'static str,
        /// 1-based attempt that failed.
        attempt: u32,
        /// Rendered error.
        error: String,
    },
    /// A resctrl write exhausted its retries.
    ResctrlExhausted {
        /// Which operation.
        op: &'static str,
        /// Total attempts made.
        attempts: u32,
        /// Rendered final error.
        error: String,
    },
    /// The tick was degraded: the previous allocation is held and no
    /// controller decision was taken.
    DegradedTick {
        /// Which failure surface caused it.
        reason: DegradeReason,
    },
    /// A counter wrapped and the interval was reconstructed.
    CounterWrapped {
        /// The affected domain.
        domain: String,
    },
    /// A counter jumped backwards implausibly (reset); the domain's
    /// interval was skipped and its totals resynced.
    CounterReset {
        /// The affected domain.
        domain: String,
    },
    /// A sample repeated the previous totals while the domain was
    /// active; the interval was skipped as stale.
    StaleSample {
        /// The affected domain.
        domain: String,
    },
    /// A configured domain has not appeared in any telemetry sample.
    DomainSilent {
        /// The affected domain.
        domain: String,
    },
    /// A domain's telemetry stayed missing or malformed for the
    /// configured number of consecutive ticks; its allocation is frozen
    /// and further complaints are suppressed until it recovers.
    DomainQuarantined {
        /// The affected domain.
        domain: String,
        /// Consecutive bad ticks that triggered the quarantine.
        after_ticks: u32,
    },
    /// A quarantined domain produced a good sample again.
    DomainRecovered {
        /// The affected domain.
        domain: String,
    },
    /// The post-tick invariant audit failed (held state is still
    /// serving; this event is the alarm).
    InvariantViolation {
        /// The violation, rendered.
        message: String,
    },
}

/// One rendered event field. [`FieldValue::Ident`] is for bare identifiers
/// (domain names, op names, reasons) that the log line prints unquoted;
/// [`FieldValue::Text`] is free-form text (error/message strings) that the
/// log line prints with `{:?}` quoting. Both render as JSON strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FieldValue {
    U64(u64),
    Ident(String),
    Text(String),
}

impl Event {
    /// Stable event name (the `event=` field of the log line).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Event::TelemetryRetried { .. } => "telemetry_retried",
            Event::TelemetryExhausted { .. } => "telemetry_exhausted",
            Event::RowMalformed { .. } => "row_malformed",
            Event::ResctrlRetried { .. } => "resctrl_retried",
            Event::ResctrlExhausted { .. } => "resctrl_exhausted",
            Event::DegradedTick { .. } => "degraded_tick",
            Event::CounterWrapped { .. } => "counter_wrapped",
            Event::CounterReset { .. } => "counter_reset",
            Event::StaleSample { .. } => "stale_sample",
            Event::DomainSilent { .. } => "domain_silent",
            Event::DomainQuarantined { .. } => "domain_quarantined",
            Event::DomainRecovered { .. } => "domain_recovered",
            Event::InvariantViolation { .. } => "invariant_violation",
        }
    }

    /// The event's fields in rendering order — the single source of truth
    /// behind both the `key=value` log line ([`fmt::Display`]) and the JSON
    /// object ([`Event::to_json`]).
    pub(crate) fn fields(&self) -> Vec<(&'static str, FieldValue)> {
        use FieldValue::{Ident, Text, U64};
        match self {
            Event::TelemetryRetried { attempt, error } => vec![
                ("attempt", U64(u64::from(*attempt))),
                ("error", Text(error.clone())),
            ],
            Event::TelemetryExhausted { attempts, error } => vec![
                ("attempts", U64(u64::from(*attempts))),
                ("error", Text(error.clone())),
            ],
            Event::RowMalformed {
                domain,
                line,
                message,
            } => {
                let mut out = Vec::new();
                if let Some(d) = domain {
                    out.push(("domain", Ident(d.clone())));
                }
                out.push(("line", U64(*line as u64)));
                out.push(("message", Text(message.clone())));
                out
            }
            Event::ResctrlRetried { op, attempt, error } => vec![
                ("op", Ident((*op).to_string())),
                ("attempt", U64(u64::from(*attempt))),
                ("error", Text(error.clone())),
            ],
            Event::ResctrlExhausted {
                op,
                attempts,
                error,
            } => vec![
                ("op", Ident((*op).to_string())),
                ("attempts", U64(u64::from(*attempts))),
                ("error", Text(error.clone())),
            ],
            Event::DegradedTick { reason } => vec![("reason", Ident(reason.to_string()))],
            Event::CounterWrapped { domain }
            | Event::CounterReset { domain }
            | Event::StaleSample { domain }
            | Event::DomainSilent { domain }
            | Event::DomainRecovered { domain } => vec![("domain", Ident(domain.clone()))],
            Event::DomainQuarantined {
                domain,
                after_ticks,
            } => vec![
                ("domain", Ident(domain.clone())),
                ("after_ticks", U64(u64::from(*after_ticks))),
            ],
            Event::InvariantViolation { message } => vec![("message", Text(message.clone()))],
        }
    }

    /// Render as a single-line JSON object with a stable shape:
    /// `{"event":"<name>", <fields in log-line order>}`. Shared by the
    /// flight recorder and anything else that wants events machine-readable.
    pub(crate) fn to_json(&self) -> String {
        let mut obj = dcat_obs::json::Obj::new().str_field("event", self.name());
        for (key, value) in self.fields() {
            obj = match value {
                FieldValue::U64(v) => obj.u64_field(key, v),
                FieldValue::Ident(s) | FieldValue::Text(s) => obj.str_field(key, &s),
            };
        }
        obj.finish()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event={}", self.name())?;
        for (key, value) in self.fields() {
            match value {
                FieldValue::U64(v) => write!(f, " {key}={v}")?,
                FieldValue::Ident(s) => write!(f, " {key}={s}")?,
                FieldValue::Text(s) => write!(f, " {key}={s:?}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reason_renders_as_an_entry_of_the_frame_schema_table() {
        let rendered =
            [DegradeReason::Telemetry, DegradeReason::Resctrl].map(DegradeReason::as_str);
        assert_eq!(rendered, dcat_obs::frames::KNOWN_REASONS);
    }

    #[test]
    fn events_render_as_stable_log_lines() {
        let e = Event::DegradedTick {
            reason: DegradeReason::Telemetry,
        };
        assert_eq!(e.to_string(), "event=degraded_tick reason=telemetry");
        let e = Event::DomainQuarantined {
            domain: "vm3".into(),
            after_ticks: 5,
        };
        assert_eq!(
            e.to_string(),
            "event=domain_quarantined domain=vm3 after_ticks=5"
        );
        let e = Event::ResctrlRetried {
            op: "program_cos",
            attempt: 1,
            error: "EIO".into(),
        };
        assert_eq!(
            e.to_string(),
            "event=resctrl_retried op=program_cos attempt=1 error=\"EIO\""
        );
    }

    #[test]
    fn json_rendering_round_trips_shape_for_every_variant() {
        use dcat_obs::json::{self, Value};
        let variants = vec![
            Event::TelemetryRetried {
                attempt: 2,
                error: "EAGAIN".into(),
            },
            Event::TelemetryExhausted {
                attempts: 3,
                error: "ENOENT".into(),
            },
            Event::RowMalformed {
                domain: Some("vm1".into()),
                line: 7,
                message: "bad ipc".into(),
            },
            Event::RowMalformed {
                domain: None,
                line: 9,
                message: "short row".into(),
            },
            Event::ResctrlRetried {
                op: "program_cos",
                attempt: 1,
                error: "EIO".into(),
            },
            Event::ResctrlExhausted {
                op: "assign_cos",
                attempts: 4,
                error: "EBUSY".into(),
            },
            Event::DegradedTick {
                reason: DegradeReason::Resctrl,
            },
            Event::CounterWrapped {
                domain: "vm0".into(),
            },
            Event::CounterReset {
                domain: "vm0".into(),
            },
            Event::StaleSample {
                domain: "vm2".into(),
            },
            Event::DomainSilent {
                domain: "vm3".into(),
            },
            Event::DomainQuarantined {
                domain: "vm3".into(),
                after_ticks: 5,
            },
            Event::DomainRecovered {
                domain: "vm3".into(),
            },
            Event::InvariantViolation {
                message: "cbm overlap".into(),
            },
        ];
        for e in variants {
            let parsed = json::parse(&e.to_json()).expect("event JSON parses");
            assert_eq!(
                parsed.get("event").and_then(Value::as_str),
                Some(e.name()),
                "event field carries the stable name"
            );
            // Every log-line field appears in the JSON object with a
            // matching value, in the same order after the leading name.
            match &parsed {
                Value::Obj(members) => {
                    let fields = e.fields();
                    assert_eq!(members.len(), fields.len() + 1);
                    for ((key, value), (jk, jv)) in fields.iter().zip(&members[1..]) {
                        assert_eq!(key, jk);
                        match value {
                            FieldValue::U64(v) => assert_eq!(jv.as_num(), Some(*v as f64)),
                            FieldValue::Ident(s) | FieldValue::Text(s) => {
                                assert_eq!(jv.as_str(), Some(s.as_str()));
                            }
                        }
                    }
                }
                other => panic!("expected object, got {other:?}"),
            }
        }
    }

    #[test]
    fn json_rendering_escapes_hostile_strings() {
        use dcat_obs::json::{self, Value};
        let e = Event::InvariantViolation {
            message: "quote \" backslash \\ newline \n tab \t done".into(),
        };
        let rendered = e.to_json();
        let parsed = json::parse(&rendered).expect("escaped JSON parses");
        assert_eq!(
            parsed.get("message").and_then(Value::as_str),
            Some("quote \" backslash \\ newline \n tab \t done")
        );
        // The rendered line itself must stay single-line.
        assert!(!rendered.contains('\n'));
    }

    #[test]
    fn display_and_json_agree_on_field_order() {
        let e = Event::DomainQuarantined {
            domain: "vm3".into(),
            after_ticks: 5,
        };
        assert_eq!(
            e.to_string(),
            "event=domain_quarantined domain=vm3 after_ticks=5"
        );
        assert_eq!(
            e.to_json(),
            "{\"event\":\"domain_quarantined\",\"domain\":\"vm3\",\"after_ticks\":5}"
        );
    }

    #[test]
    fn row_malformed_renders_with_and_without_a_domain() {
        let anon = Event::RowMalformed {
            domain: None,
            line: 4,
            message: "expected 6 fields".into(),
        };
        assert!(!anon.to_string().contains("domain="));
        let named = Event::RowMalformed {
            domain: Some("vm1".into()),
            line: 4,
            message: "bad l1_ref".into(),
        };
        assert!(named.to_string().contains("domain=vm1 line=4"));
    }
}
