//! The Prometheus text validator behind `dcat-top --replay` of a metrics
//! export, the golden metrics test and CI.
//!
//! `check_prometheus` enforces the subset of the text exposition format this
//! crate emits: `# TYPE` headers before samples, well-formed sample lines,
//! parseable values, and — for histograms — cumulative buckets ending in
//! `+Inf` with consistent `_sum`/`_count` lines.

use std::collections::BTreeMap;

/// What a successful Prometheus check saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromSummary {
    pub families: usize,
    pub samples: usize,
}

/// Validate Prometheus exposition text. Returns family/sample counts or the
/// first violation found.
#[expect(
    clippy::unreachable,
    reason = "`split_family` returns only the three roles matched before it"
)]
pub fn check_prometheus(text: &str) -> Result<PromSummary, String> {
    // family name -> declared kind
    let mut families: BTreeMap<String, String> = BTreeMap::new();
    // (histogram family, label set minus `le`) -> bucket state
    let mut hist: BTreeMap<(String, String), HistSeries> = BTreeMap::new();
    let mut samples = 0usize;

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {n}: TYPE without a name"))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {n}: TYPE without a kind"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {n}: unknown metric kind `{kind}`"));
            }
            if families
                .insert(name.to_string(), kind.to_string())
                .is_some()
            {
                return Err(format!("line {n}: duplicate TYPE for `{name}`"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }

        let sample = parse_sample(line).map_err(|e| format!("line {n}: {e}"))?;
        samples += 1;

        // Resolve the family: histogram samples use _bucket/_sum/_count.
        let (family, role) = split_family(&sample.name, &families);
        let kind = families
            .get(family)
            .ok_or_else(|| format!("line {n}: sample `{}` has no preceding TYPE", sample.name))?;
        match (kind.as_str(), role) {
            ("histogram", Some(role)) => {
                let mut labels = sample.labels.clone();
                let le = labels.remove("le");
                let series_key = (family.to_string(), render_labels(&labels));
                let entry = hist.entry(series_key).or_default();
                match role {
                    "bucket" => {
                        let le = le.ok_or_else(|| format!("line {n}: bucket without le"))?;
                        let count = sample.value;
                        if count < 0.0 || count.fract() != 0.0 {
                            return Err(format!("line {n}: bucket count must be a whole number"));
                        }
                        if let Some(prev) = entry.last_bucket {
                            if count < prev {
                                return Err(format!(
                                    "line {n}: bucket counts must be cumulative (saw {count} after {prev})"
                                ));
                            }
                        }
                        entry.last_bucket = Some(count);
                        if le == "+Inf" {
                            entry.inf = Some(count);
                        } else {
                            le.parse::<f64>()
                                .map_err(|_| format!("line {n}: bad le `{le}`"))?;
                            if entry.inf.is_some() {
                                return Err(format!("line {n}: bucket after +Inf"));
                            }
                        }
                    }
                    "sum" => entry.sum = Some(sample.value),
                    "count" => {
                        entry.count = Some(sample.value);
                        if le.is_some() {
                            return Err(format!("line {n}: _count must not carry le"));
                        }
                    }
                    _ => unreachable!(),
                }
            }
            ("histogram", None) => {
                return Err(format!(
                    "line {n}: bare sample `{}` for histogram family `{family}`",
                    sample.name
                ));
            }
            (_, Some(_)) | (_, None) if sample.labels.contains_key("le") => {
                return Err(format!("line {n}: le label outside a histogram"));
            }
            _ => {}
        }
    }

    for ((family, labels), series) in &hist {
        let at = format!("histogram `{family}{{{labels}}}`");
        let inf = series
            .inf
            .ok_or_else(|| format!("{at}: missing +Inf bucket"))?;
        let count = series
            .count
            .ok_or_else(|| format!("{at}: missing _count"))?;
        if series.sum.is_none() {
            return Err(format!("{at}: missing _sum"));
        }
        if inf != count {
            return Err(format!("{at}: _count {count} != +Inf bucket {inf}"));
        }
    }

    Ok(PromSummary {
        families: families.len(),
        samples,
    })
}

#[derive(Debug, Default)]
struct HistSeries {
    last_bucket: Option<f64>,
    inf: Option<f64>,
    sum: Option<f64>,
    count: Option<f64>,
}

struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

fn render_labels(labels: &BTreeMap<String, String>) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Map a sample name to its TYPE family. Histogram samples are declared
/// under the base name but rendered as `<base>_bucket` / `_sum` / `_count`.
fn split_family<'a>(
    name: &'a str,
    families: &BTreeMap<String, String>,
) -> (&'a str, Option<&'static str>) {
    for (suffix, role) in [("_bucket", "bucket"), ("_sum", "sum"), ("_count", "count")] {
        if let Some(base) = name.strip_suffix(suffix) {
            if families.get(base).is_some_and(|k| k == "histogram") {
                return (base, Some(role));
            }
        }
    }
    (name, None)
}

#[expect(
    clippy::indexing_slicing,
    clippy::string_slice,
    reason = "every index is checked against `bytes.len()` first, and every slice boundary follows an ASCII byte"
)]
fn parse_sample(line: &str) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b':')
    {
        i += 1;
    }
    if i == 0 {
        return Err("sample line does not start with a metric name".to_string());
    }
    let name = &line[..i];
    let mut labels = BTreeMap::new();
    if i < bytes.len() && bytes[i] == b'{' {
        i += 1;
        loop {
            if i >= bytes.len() {
                return Err("unterminated label set".to_string());
            }
            if bytes[i] == b'}' {
                i += 1;
                break;
            }
            let key_start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let key = &line[key_start..i];
            if key.is_empty() {
                return Err("empty label name".to_string());
            }
            if i + 1 >= bytes.len() || bytes[i] != b'=' || bytes[i + 1] != b'"' {
                return Err(format!("label `{key}` is not followed by =\""));
            }
            i += 2;
            let mut value = String::new();
            loop {
                if i >= bytes.len() {
                    return Err("unterminated label value".to_string());
                }
                match bytes[i] {
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\\' => {
                        if i + 1 >= bytes.len() {
                            return Err("dangling escape in label value".to_string());
                        }
                        match bytes[i + 1] {
                            b'\\' => value.push('\\'),
                            b'"' => value.push('"'),
                            b'n' => value.push('\n'),
                            other => {
                                return Err(format!(
                                    "bad escape \\{} in label value",
                                    other as char
                                ))
                            }
                        }
                        i += 2;
                    }
                    _ => {
                        value.push(bytes[i] as char);
                        i += 1;
                    }
                }
            }
            labels.insert(key.to_string(), value);
            if i < bytes.len() && bytes[i] == b',' {
                i += 1;
            }
        }
    }
    let rest = line[i..].trim();
    if rest.is_empty() {
        return Err("sample has no value".to_string());
    }
    let value = match rest {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other
            .parse::<f64>()
            .map_err(|_| format!("bad sample value `{other}`"))?,
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Registry, DEFAULT_STEP_BUCKETS};

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.counter_add("ticks_total", &[], 4);
        r.counter_add("events_total", &[("event", "degraded_tick")], 1);
        r.gauge_set("domain_ways", &[("domain", "vm \"0\"")], 6.0);
        r.histogram_observe("span_steps", &[("span", "apply")], DEFAULT_STEP_BUCKETS, 5);
        r
    }

    #[test]
    fn validator_accepts_our_own_renderer() {
        let snap = sample_registry().snapshot();
        let summary = check_prometheus(&snap.to_prometheus()).unwrap();
        assert_eq!(summary.families, 4);
        assert!(summary.samples >= 4);
    }

    #[test]
    fn rejects_sample_without_type_header() {
        let err = check_prometheus("loose_metric 1\n").unwrap_err();
        assert!(err.contains("no preceding TYPE"), "{err}");
    }

    #[test]
    fn rejects_non_cumulative_histogram_buckets() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 9
h_count 5
";
        let err = check_prometheus(text).unwrap_err();
        assert!(err.contains("cumulative"), "{err}");
    }

    #[test]
    fn rejects_histogram_count_mismatch() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"1\"} 2
h_bucket{le=\"+Inf\"} 2
h_sum 2
h_count 3
";
        let err = check_prometheus(text).unwrap_err();
        assert!(err.contains("!="), "{err}");
    }

    #[test]
    fn rejects_garbage_values_and_labels() {
        assert!(check_prometheus("# TYPE x counter\nx{a=b} 1\n").is_err());
        assert!(check_prometheus("# TYPE x counter\nx notanumber\n").is_err());
        assert!(check_prometheus("# TYPE x widget\n").is_err());
    }
}
