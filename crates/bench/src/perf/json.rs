//! `BENCH_<suite>.json` serialization, schema validation, and the
//! regression gate.
//!
//! The document is schema-versioned (`dcat-perfbench/v1`) and rendered
//! with `obs::json`'s insertion-ordered builder; validation re-parses
//! with the same crate's parser, so producer and checker cannot drift.
//!
//! The gate compares **normalized** scores (`norm` = case ns divided by
//! the suite's spin-calibration case), not raw nanoseconds: raw timings
//! move with the host CPU, while the ratio of "work under test" to "a
//! fixed arithmetic spin" is far more portable across machines. Raw
//! ns/iter values are still recorded for trajectory reading. Derived
//! entries (speedup ratios with optional hard minimums) are fully
//! machine-independent and enforced on every run, baseline or not.

use dcat_obs::json::{self, Value};

use super::harness::CaseResult;

/// Schema identifier embedded in (and required of) every document.
pub(crate) const SCHEMA: &str = "dcat-perfbench/v1";

/// A derived, machine-independent metric (typically a speedup ratio).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Derived {
    /// Metric name, unique within the suite.
    pub(crate) name: String,
    /// Measured value.
    pub(crate) value: f64,
    /// Hard lower bound, if the suite asserts one (e.g. the packed-set
    /// speedup floor). Checked by [`validate`].
    pub(crate) min: Option<f64>,
}

/// One suite's results, ready to serialize.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Suite name (`micro`, `macro`).
    pub suite: String,
    /// `wall` or `fake` — which clock produced the numbers.
    pub(crate) clock: String,
    /// Name of the calibration case every `norm` is anchored on.
    pub(crate) calibration: String,
    /// Gate tolerance stored in the header so the *baseline* dictates
    /// how strictly future runs are compared against it.
    pub(crate) tolerance: f64,
    /// Measured cases.
    pub(crate) cases: Vec<CaseResult>,
    /// Derived ratios.
    pub(crate) derived: Vec<Derived>,
}

/// Renders an f64 with enough digits to be stable and readable.
fn num(v: f64) -> String {
    format!("{v:.4}")
}

impl SuiteResult {
    /// Serializes to the schema-versioned JSON document (pretty enough
    /// to diff: one case per line).
    pub fn to_json(&self) -> String {
        let cases: Vec<String> = self
            .cases
            .iter()
            .map(|c| {
                json::Obj::new()
                    .str_field("name", &c.name)
                    .u64_field("ns_per_iter", c.ns_per_iter)
                    .u64_field("iters", u64::from(c.iters))
                    .u64_field("reps", u64::from(c.reps))
                    .raw_field("norm", &num(c.norm))
                    .finish()
            })
            .collect();
        let derived: Vec<String> = self
            .derived
            .iter()
            .map(|d| {
                let obj = json::Obj::new()
                    .str_field("name", &d.name)
                    .raw_field("value", &num(d.value));
                match d.min {
                    Some(m) => obj.raw_field("min", &num(m)),
                    None => obj,
                }
                .finish()
            })
            .collect();
        // Assemble with line breaks by hand: the Obj builder emits
        // compact JSON, and a 10-line diffable file beats a 1-line blob
        // for a tracked trajectory artifact.
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json::quote(SCHEMA)));
        out.push_str(&format!("  \"suite\": {},\n", json::quote(&self.suite)));
        out.push_str(&format!("  \"clock\": {},\n", json::quote(&self.clock)));
        out.push_str(&format!(
            "  \"calibration\": {},\n",
            json::quote(&self.calibration)
        ));
        out.push_str(&format!("  \"tolerance\": {},\n", num(self.tolerance)));
        out.push_str("  \"cases\": [\n");
        for (i, c) in cases.iter().enumerate() {
            out.push_str("    ");
            out.push_str(c);
            out.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"derived\": [\n");
        for (i, d) in derived.iter().enumerate() {
            out.push_str("    ");
            out.push_str(d);
            out.push_str(if i + 1 < derived.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A parsed, schema-checked document.
#[derive(Debug, Clone)]
pub struct ParsedSuite {
    /// Suite name.
    pub suite: String,
    /// Gate tolerance from the header.
    pub(crate) tolerance: f64,
    /// Calibration case name.
    pub(crate) calibration: String,
    /// `(name, ns_per_iter, norm)` per case.
    pub cases: Vec<(String, u64, f64)>,
    /// `(name, value, min)` per derived entry.
    pub derived: Vec<(String, f64, Option<f64>)>,
}

fn field<'v>(v: &'v Value, key: &str, ctx: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing '{key}'"))
}

fn str_of(v: &Value, key: &str, ctx: &str) -> Result<String, String> {
    field(v, key, ctx)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: '{key}' is not a string"))
}

fn num_of(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    field(v, key, ctx)?
        .as_num()
        .ok_or_else(|| format!("{ctx}: '{key}' is not a number"))
}

/// Parses and schema-validates a `BENCH_*.json` document: schema tag,
/// required fields and types, non-empty case list, calibration case
/// present with `norm` 1.0, unique names, and every derived `min`
/// honored. Returns the parsed form for the gate.
pub fn validate(text: &str) -> Result<ParsedSuite, String> {
    let doc = json::parse(text)?;
    let schema = str_of(&doc, "schema", "header")?;
    if schema != SCHEMA {
        return Err(format!("schema '{schema}' != expected '{SCHEMA}'"));
    }
    let suite = str_of(&doc, "suite", "header")?;
    let clock = str_of(&doc, "clock", "header")?;
    if clock != "wall" && clock != "fake" {
        return Err(format!("clock '{clock}' is neither 'wall' nor 'fake'"));
    }
    let calibration = str_of(&doc, "calibration", "header")?;
    let tolerance = num_of(&doc, "tolerance", "header")?;
    if !(0.0..=10.0).contains(&tolerance) {
        return Err(format!("tolerance {tolerance} out of range"));
    }

    let Some(Value::Arr(case_vals)) = doc.get("cases") else {
        return Err("'cases' missing or not an array".to_string());
    };
    if case_vals.is_empty() {
        return Err("'cases' is empty".to_string());
    }
    let mut cases = Vec::new();
    for (i, cv) in case_vals.iter().enumerate() {
        let ctx = format!("cases[{i}]");
        let name = str_of(cv, "name", &ctx)?;
        let ns = num_of(cv, "ns_per_iter", &ctx)?;
        let norm = num_of(cv, "norm", &ctx)?;
        num_of(cv, "iters", &ctx)?;
        num_of(cv, "reps", &ctx)?;
        if ns < 0.0 || norm < 0.0 {
            return Err(format!("{ctx}: negative measurement"));
        }
        if cases.iter().any(|(n, _, _)| *n == name) {
            return Err(format!("{ctx}: duplicate case '{name}'"));
        }
        cases.push((name, ns as u64, norm));
    }
    match cases.iter().find(|(n, _, _)| *n == calibration) {
        None => return Err(format!("calibration case '{calibration}' not in cases")),
        Some((_, _, norm)) => {
            if (norm - 1.0).abs() > 1e-9 {
                return Err(format!("calibration norm {norm} != 1.0"));
            }
        }
    }

    let Some(Value::Arr(derived_vals)) = doc.get("derived") else {
        return Err("'derived' missing or not an array".to_string());
    };
    let mut derived = Vec::new();
    for (i, dv) in derived_vals.iter().enumerate() {
        let ctx = format!("derived[{i}]");
        let name = str_of(dv, "name", &ctx)?;
        let value = num_of(dv, "value", &ctx)?;
        let min = match dv.get("min") {
            Some(m) => Some(
                m.as_num()
                    .ok_or_else(|| format!("{ctx}: 'min' is not a number"))?,
            ),
            None => None,
        };
        if let Some(m) = min {
            if value < m {
                return Err(format!(
                    "{ctx}: '{name}' = {value:.4} below required minimum {m:.4}"
                ));
            }
        }
        derived.push((name, value, min));
    }

    Ok(ParsedSuite {
        suite,
        tolerance,
        calibration,
        cases,
        derived,
    })
}

/// Compares a fresh run against a blessed baseline. Fails when any case
/// present in both regressed beyond the *baseline's* tolerance on its
/// normalized score (the calibration case is exempt — it is 1.0 by
/// construction). Cases that appear or disappear are reported but do
/// not fail the gate (suites are allowed to grow). Returns
/// human-readable findings; `Err` means the gate failed.
pub fn gate(fresh: &ParsedSuite, baseline: &ParsedSuite) -> Result<Vec<String>, Vec<String>> {
    let mut notes = Vec::new();
    let mut failures = Vec::new();
    if fresh.suite != baseline.suite {
        failures.push(format!(
            "suite mismatch: fresh '{}' vs baseline '{}'",
            fresh.suite, baseline.suite
        ));
    }
    for (name, _ns, norm) in &fresh.cases {
        if *name == fresh.calibration {
            continue;
        }
        match baseline.cases.iter().find(|(n, _, _)| n == name) {
            None => notes.push(format!("new case '{name}' (no baseline)")),
            Some((_, _, base_norm)) => {
                let limit = base_norm * (1.0 + baseline.tolerance);
                if *norm > limit {
                    failures.push(format!(
                        "'{name}' regressed: norm {norm:.4} > {limit:.4} \
                         (baseline {base_norm:.4} + {:.0}% tolerance)",
                        baseline.tolerance * 100.0
                    ));
                } else {
                    notes.push(format!(
                        "'{name}' ok: norm {norm:.4} (baseline {base_norm:.4})"
                    ));
                }
            }
        }
    }
    for (name, _, _) in &baseline.cases {
        if !fresh.cases.iter().any(|(n, _, _)| n == name) {
            notes.push(format!("case '{name}' dropped since baseline"));
        }
    }
    if failures.is_empty() {
        Ok(notes)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SuiteResult {
        SuiteResult {
            suite: "micro".into(),
            clock: "fake".into(),
            calibration: "spin".into(),
            tolerance: 0.25,
            cases: vec![
                CaseResult {
                    name: "spin".into(),
                    ns_per_iter: 100,
                    iters: 10,
                    reps: 3,
                    norm: 1.0,
                },
                CaseResult {
                    name: "work".into(),
                    ns_per_iter: 400,
                    iters: 10,
                    reps: 3,
                    norm: 4.0,
                },
            ],
            derived: vec![Derived {
                name: "speedup".into(),
                value: 4.5,
                min: Some(3.0),
            }],
        }
    }

    #[test]
    fn round_trip_validates() {
        let text = sample().to_json();
        let parsed = validate(&text).expect("valid");
        assert_eq!(parsed.suite, "micro");
        assert_eq!(parsed.cases.len(), 2);
        assert_eq!(parsed.derived.len(), 1);
        assert_eq!(parsed.tolerance, 0.25);
    }

    #[test]
    fn wrong_schema_rejected() {
        let text = sample().to_json().replace("dcat-perfbench/v1", "v0");
        assert!(validate(&text).is_err());
    }

    #[test]
    fn derived_minimum_enforced() {
        let mut s = sample();
        s.derived[0].value = 2.0; // below the min of 3.0
        let err = validate(&s.to_json()).unwrap_err();
        assert!(err.contains("below required minimum"), "{err}");
    }

    #[test]
    fn missing_calibration_rejected() {
        let mut s = sample();
        s.calibration = "absent".into();
        assert!(validate(&s.to_json()).is_err());
    }

    #[test]
    fn duplicate_case_rejected() {
        let mut s = sample();
        let dup = s.cases[1].clone();
        s.cases.push(dup);
        assert!(validate(&s.to_json()).is_err());
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let base = validate(&sample().to_json()).unwrap();
        let mut faster = sample();
        faster.cases[1].norm = 3.5;
        let ok = validate(&faster.to_json()).unwrap();
        assert!(gate(&ok, &base).is_ok());

        let mut slower = sample();
        slower.cases[1].norm = 5.5; // > 4.0 * 1.25
        let bad = validate(&slower.to_json()).unwrap();
        let failures = gate(&bad, &base).unwrap_err();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regressed"), "{}", failures[0]);
    }

    #[test]
    fn gate_tolerates_new_and_dropped_cases() {
        let base = validate(&sample().to_json()).unwrap();
        let mut grown = sample();
        grown.cases.push(CaseResult {
            name: "extra".into(),
            ns_per_iter: 1,
            iters: 1,
            reps: 1,
            norm: 0.01,
        });
        let fresh = validate(&grown.to_json()).unwrap();
        let notes = gate(&fresh, &base).expect("new cases do not fail the gate");
        assert!(notes.iter().any(|n| n.contains("new case 'extra'")));
    }
}
