//! The modes that span workloads: the full run (each workload in its own
//! child process), `--check`, and `--compare`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use dcat_obs::json::{self, quote, Obj, Value};

use crate::metrics::{self, Decl, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workload::WORKLOADS;
use crate::Args;

/// Seed used when none is given (the paper's conference opened on
/// 2018-04-23).
pub const DEFAULT_SEED: u64 = 20_180_423;
/// Untraced repetitions per workload in a full run.
const DEFAULT_REPS: usize = 3;
const SCHEMA: &str = "dcat-sysbench/v1";

/// A declared metric with its regression bound (end-to-end only).
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, as far as the benchmark reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bounded>,
    pub per_layer: Vec<Bounded>,
}

fn items<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    match v.get(key) {
        Some(Value::Arr(a)) => Ok(a),
        _ => Err(format!("'{key}' is missing or not a list")),
    }
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("'{key}' is missing or not a string"))
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("'{key}' is missing or not a number"))
}

impl Spec {
    pub fn parse(source: &str) -> Result<Spec, String> {
        let v = json::parse(source)?;
        let bounded = |key: &str| -> Result<Vec<Bounded>, String> {
            items(&v, key)?
                .iter()
                .map(|m| {
                    Ok(Bounded {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        better: text(m, "better")?,
                        bound: m.get("bound").and_then(Value::as_num),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: num(&v, "run_seconds")?,
            workloads: items(&v, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: bounded("end_to_end")?,
            per_layer: bounded("per_layer")?,
        })
    }

    pub fn load(path: &Path) -> Result<Spec, String> {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&source).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// What `BENCHMARK.json` and the table in `metrics.rs` disagree on.
    pub fn disagreements(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.workloads != WORKLOADS {
            out.push(format!(
                "workloads {:?}, the code runs {WORKLOADS:?}",
                self.workloads
            ));
        }
        let mut side = |what: &str, declared: &[Bounded], table: &[Decl], bounded: bool| {
            let key = |b: &Bounded| (b.name.clone(), b.unit.clone(), b.better.clone());
            let declared_keys: Vec<_> = declared.iter().map(key).collect();
            let table_keys: Vec<_> = table
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect();
            if declared_keys != table_keys {
                out.push(format!("{what} metrics differ from metrics.rs"));
            }
            for b in declared {
                let ok = match (bounded, b.bound) {
                    (true, Some(bound)) => bound > 0.0 && bound <= 0.25,
                    (false, None) => true,
                    _ => false,
                };
                if !ok {
                    out.push(format!("{what} metric {}: bad bound {:?}", b.name, b.bound));
                }
            }
        };
        side("end_to_end", &self.end_to_end, END_TO_END, true);
        side("per_layer", &self.per_layer, PER_LAYER, false);
        out
    }
}

/// The parsed stdout of one child run.
#[derive(Debug, Clone)]
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    sim_digest: String,
    problems: Vec<String>,
    /// `(value, unit)` by metric name.
    metrics: BTreeMap<String, (f64, String)>,
}

fn parse_child(stdout: &str) -> Result<ChildRun, String> {
    let mut lines = stdout.lines().rev();
    let result = json::parse(lines.next().ok_or("no output")?)?;
    let detail_line = lines
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or("no detail line")?;
    let detail = json::parse(detail_line)?;
    let Some(Value::Obj(members)) = result.get("metrics") else {
        return Err("result has no metrics object".to_string());
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in members {
        metrics.insert(name.clone(), (num(m, "value")?, text(m, "unit")?));
    }
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Value::Bool(true)),
        attempted: num(&result, "attempted")? as u64,
        failed: num(&result, "failed")? as u64,
        sim_digest: text(&detail, "sim_digest")?,
        problems: items(&detail, "problems")?
            .iter()
            .filter_map(|p| p.as_str().map(str::to_string))
            .collect(),
        metrics,
    })
}

/// What a child run is asked to do.
struct ChildSpec<'a> {
    workload: &'a str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    out_dir: &'a Path,
}

/// Runs one workload in a child process of this binary and waits for it.
fn spawn(c: &ChildSpec<'_>) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", c.workload])
        .args(["--seed", &c.seed.to_string()])
        .args(["--seconds", &c.seconds.to_string()])
        .args(["--trace", if c.trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(c.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if c.tiny {
        cmd.arg("--tiny");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{} exited with {}", c.workload, output.status));
    }
    parse_child(&stdout).map_err(|e| format!("{}: {e}", c.workload))
}

/// All runs of one workload in a full run.
#[derive(Debug, Default)]
struct WorkloadRuns {
    untraced: Vec<ChildRun>,
    traced: Option<ChildRun>,
}

impl WorkloadRuns {
    fn problems(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .untraced
            .iter()
            .chain(&self.traced)
            .flat_map(|r| r.problems.iter().cloned())
            .collect();
        let digests: Vec<&str> = self
            .untraced
            .iter()
            .chain(&self.traced)
            .map(|r| r.sim_digest.as_str())
            .collect();
        if digests.windows(2).any(|w| w[0] != w[1]) {
            out.push(format!("sim_digest differs between runs: {digests:?}"));
        }
        out
    }

    fn correct(&self) -> bool {
        self.problems().is_empty()
            && self
                .untraced
                .iter()
                .chain(&self.traced)
                .all(|r| r.correct && r.failed == 0)
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.untraced
            .iter()
            .filter_map(|r| r.metrics.get(metric).map(|m| m.0))
            .collect()
    }

    fn to_json(&self, name: &str) -> String {
        let numbers =
            |v: &[f64]| json::array(&v.iter().map(|x| format!("{x}")).collect::<Vec<_>>());
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .filter(|d| !self.values(d.name).is_empty())
            .map(|d| {
                let values = self.values(d.name);
                Obj::new()
                    .str_field("name", d.name)
                    .str_field("unit", d.unit)
                    .raw_field("median", &format!("{}", median(&values)))
                    .raw_field("values", &numbers(&values))
                    .finish()
            })
            .collect();
        let per_layer: Vec<String> = self
            .traced
            .iter()
            .flat_map(|t| &t.metrics)
            .map(|(name, (value, unit))| {
                Obj::new()
                    .str_field("name", name)
                    .str_field("unit", unit)
                    .raw_field("value", &format!("{value}"))
                    .finish()
            })
            .collect();
        let all = || self.untraced.iter().chain(&self.traced);
        Obj::new()
            .str_field("name", name)
            .str_field(
                "sim_digest",
                self.untraced.first().map_or("", |r| r.sim_digest.as_str()),
            )
            .bool_field("correct", self.correct())
            .u64_field("attempted", all().map(|r| r.attempted).sum())
            .u64_field("failed", all().map(|r| r.failed).sum())
            .raw_field(
                "problems",
                &json::array(&self.problems().iter().map(|p| quote(p)).collect::<Vec<_>>()),
            )
            .raw_field("end_to_end", &json::array(&end_to_end))
            .raw_field("per_layer", &json::array(&per_layer))
            .finish()
    }
}

/// The settings of a full run.
struct Plan {
    seed: u64,
    seconds: f64,
    reps: usize,
    trace: bool,
    tiny: bool,
    workloads: Vec<String>,
}

/// Runs `plan`: `reps` untraced repetitions round-robin across the
/// workloads, a calibration spin after each, then the traced pass.
fn run_plan(plan: &Plan, out_dir: &Path) -> Result<BTreeMap<String, WorkloadRuns>, String> {
    let mut runs: BTreeMap<String, WorkloadRuns> = BTreeMap::new();
    let child = |workload: &str, trace: bool| {
        spawn(&ChildSpec {
            workload,
            seed: plan.seed,
            seconds: plan.seconds,
            trace,
            tiny: plan.tiny,
            out_dir,
        })
    };
    for rep in 0..plan.reps {
        for w in &plan.workloads {
            eprintln!("# {w}: repetition {} of {}", rep + 1, plan.reps);
            runs.entry(w.clone())
                .or_default()
                .untraced
                .push(child(w, false)?);
        }
        // A drift canary between repetitions; nothing is divided by it.
        eprintln!(
            "# spin_calibration_ns {:.2}",
            crate::probes::spin_calibration_ns()
        );
    }
    if plan.trace {
        for w in &plan.workloads {
            eprintln!("# {w}: traced pass");
            runs.entry(w.clone()).or_default().traced = Some(child(w, true)?);
        }
    }
    Ok(runs)
}

fn result_json(plan: &Plan, runs: &BTreeMap<String, WorkloadRuns>) -> String {
    let workloads: Vec<String> = plan
        .workloads
        .iter()
        .filter_map(|w| runs.get(w).map(|r| r.to_json(w)))
        .collect();
    Obj::new()
        .str_field("schema", SCHEMA)
        .u64_field("seed", plan.seed)
        .raw_field("seconds", &format!("{}", plan.seconds))
        .u64_field("reps", plan.reps as u64)
        .bool_field("tiny", plan.tiny)
        .raw_field("workloads", &json::array(&workloads))
        .finish()
}

fn print_table(plan: &Plan, runs: &BTreeMap<String, WorkloadRuns>) {
    for w in &plan.workloads {
        let Some(r) = runs.get(w) else { continue };
        for d in END_TO_END {
            let values = r.values(d.name);
            if !values.is_empty() {
                println!("{w} {} {} {}", d.name, d.unit, median(&values));
            }
        }
        for (name, (value, unit)) in r.traced.iter().flat_map(|t| &t.metrics) {
            println!("{w} {name} {unit} {value}");
        }
        println!(
            "{w} sim_digest - {}",
            r.untraced.first().map_or("-", |r| r.sim_digest.as_str())
        );
        for p in r.problems() {
            println!("{w} PROBLEM - {p}");
        }
    }
}

/// The full run.
pub fn run_all(args: &Args, spec_path: &Path, out_dir: &Path) -> Result<ExitCode, String> {
    let spec = Spec::load(spec_path)?;
    let plan = Plan {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(spec.run_seconds),
        reps: args.reps.unwrap_or(DEFAULT_REPS),
        trace: !args.no_trace,
        tiny: args.tiny,
        workloads: match &args.workload {
            Some(w) if WORKLOADS.contains(&w.as_str()) => vec![w.clone()],
            Some(w) => return Err(format!("unknown workload '{w}' (one of {WORKLOADS:?})")),
            None => WORKLOADS.iter().map(|w| w.to_string()).collect(),
        },
    };
    let runs = run_plan(&plan, out_dir)?;
    print_table(&plan, &runs);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("result.json"));
    std::fs::write(&out, result_json(&plan, &runs) + "\n")
        .map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("# result written to {}", out.display());
    let ok = runs.values().all(WorkloadRuns::correct);
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--check`: tiny sizes, one repetition, everything validated against
/// `BENCHMARK.json`.
pub fn check(spec_path: &Path, out_dir: &Path) -> Result<ExitCode, String> {
    let spec = Spec::load(spec_path)?;
    let mut complaints = spec.disagreements();
    if spec.run_seconds != crate::DEFAULT_SECONDS {
        complaints.push(format!(
            "run_seconds {} differs from the binary's default {}",
            spec.run_seconds,
            crate::DEFAULT_SECONDS
        ));
    }
    let plan = Plan {
        seed: DEFAULT_SEED,
        seconds: 1.0,
        reps: 1,
        trace: true,
        tiny: true,
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
    };
    let runs = run_plan(&plan, out_dir)?;
    for (w, r) in &runs {
        complaints.extend(r.problems().into_iter().map(|p| format!("{w}: {p}")));
        if !r.correct() {
            complaints.push(format!(
                "{w}: a run reported failed intervals or incorrect output"
            ));
        }
        let mut emitted = |run: &ChildRun, declared: &[Decl], pass: &str| {
            let want: Vec<&str> = declared.iter().map(|d| d.name).collect();
            let mut got: Vec<&str> = run.metrics.keys().map(String::as_str).collect();
            got.sort_by_key(|n| want.iter().position(|w| w == n));
            if got != want {
                let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
                let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
                complaints.push(format!(
                    "{w} {pass}: missing {missing:?}, undeclared {extra:?}"
                ));
            }
            for (name, (_, unit)) in &run.metrics {
                if !metrics::valid_name(name) {
                    complaints.push(format!("{w} {pass}: bad metric name '{name}'"));
                }
                if metrics::unit_of(name) != Some(unit.as_str()) {
                    complaints.push(format!("{w} {pass}: {name} has unit '{unit}'"));
                }
            }
        };
        for run in &r.untraced {
            emitted(run, END_TO_END, "end_to_end");
        }
        match &r.traced {
            Some(run) => emitted(run, PER_LAYER, "per_layer"),
            None => complaints.push(format!("{w}: no traced pass")),
        }
    }
    for c in &complaints {
        println!("check: {c}");
    }
    println!(
        "check: {} workloads, {} end-to-end and {} per-layer metrics, {} complaints",
        runs.len(),
        END_TO_END.len(),
        PER_LAYER.len(),
        complaints.len()
    );
    Ok(if complaints.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One side of a comparison: per workload, the digest and every
/// end-to-end metric's repetitions.
type ResultSide = BTreeMap<String, (String, BTreeMap<String, Vec<f64>>)>;

fn load_result(path: &Path) -> Result<ResultSide, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let parsed = || -> Result<ResultSide, String> {
        let v = json::parse(&source)?;
        if text(&v, "schema")? != SCHEMA {
            return Err(format!("not a {SCHEMA} result"));
        }
        let mut side = ResultSide::new();
        for w in items(&v, "workloads")? {
            let mut metrics = BTreeMap::new();
            for m in items(w, "end_to_end")? {
                let values = items(m, "values")?
                    .iter()
                    .filter_map(Value::as_num)
                    .collect();
                metrics.insert(text(m, "name")?, values);
            }
            side.insert(text(w, "name")?, (text(w, "sim_digest")?, metrics));
        }
        Ok(side)
    };
    parsed().map_err(|e| format!("{}: {e}", path.display()))
}

/// How B's repetitions of one metric stand against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// Worse by more than the bound, and the spread is inside the bound.
    Regressed,
    /// The repetitions spread wider than the bound: no claim either way.
    Unresolved,
    /// Every B repetition reads better than every A repetition.
    Better,
}

/// `worse` is the share by which B's median is worse than A's.
fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let wide = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let clear_win = if higher_is_better {
        b.iter().all(|x| a.iter().all(|y| x > y))
    } else {
        b.iter().all(|x| a.iter().all(|y| x < y))
    };
    let v = if clear_win {
        Verdict::Better
    } else if wide > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    (worse, wide, v)
}

/// `--compare A B`: per workload and end-to-end metric, B against A.
/// Exits 1 if any metric regressed.
pub fn compare(spec_path: &Path, a: &Path, b: &Path) -> Result<ExitCode, String> {
    let spec = Spec::load(spec_path)?;
    let (side_a, side_b) = (load_result(a)?, load_result(b)?);
    let mut regressed = 0;
    println!("workload metric unit median_a median_b worse_by bound spread verdict");
    for (w, (digest_a, metrics_a)) in &side_a {
        let Some((digest_b, metrics_b)) = side_b.get(w) else {
            println!("{w} - - - - - - - missing-in-b");
            continue;
        };
        let same = if digest_a == digest_b {
            "same"
        } else {
            "DIFFERS"
        };
        println!("{w} sim_digest - {digest_a} {digest_b} - - - {same}");
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (metrics_a.get(&m.name), metrics_b.get(&m.name)) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let (worse, wide, v) = verdict(va, vb, m.better == "higher", bound);
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{w} {} {} {} {} {:+.4} {bound} {wide:.4} {}",
                m.name,
                m.unit,
                median(va),
                median(vb),
                worse,
                match v {
                    Verdict::Within => "within",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Better => "better",
                }
            );
        }
    }
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0];
        // Lower is better, bound 10%.
        assert_eq!(
            verdict(&a, &[104.0, 105.0, 103.0], false, 0.10).2,
            Verdict::Within
        );
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0], false, 0.10).2,
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &[90.0, 91.0, 89.0], false, 0.10).2,
            Verdict::Better
        );
        // A spread wider than the bound cannot call a regression...
        assert_eq!(
            verdict(&a, &[100.0, 150.0, 125.0], false, 0.10).2,
            Verdict::Unresolved
        );
        // ...but a clean sweep still counts.
        assert_eq!(
            verdict(&a, &[50.0, 90.0, 70.0], false, 0.10).2,
            Verdict::Better
        );
        // Higher is better.
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0], true, 0.10).2,
            Verdict::Regressed
        );
        let (worse, _, _) = verdict(&a, &[80.0, 81.0, 79.0], true, 0.10);
        assert!((worse - 0.2).abs() < 1e-12);
    }

    #[test]
    fn child_output_parses_from_its_last_two_records() {
        let stdout = "w setup_s s 0.5\n\
                      detail {\"workload\":\"w\",\"seed\":1,\"trace\":false,\"sim_digest\":\"00ff\",\"problems\":[\"p\"]}\n\
                      {\"correct\":false,\"attempted\":10,\"failed\":2,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}\n";
        let run = parse_child(stdout).unwrap();
        assert!(!run.correct);
        assert_eq!((run.attempted, run.failed), (10, 2));
        assert_eq!(run.sim_digest, "00ff");
        assert_eq!(run.problems, ["p"]);
        assert_eq!(run.metrics["setup_s"], (0.5, "s".to_string()));
        assert!(parse_child("").is_err());
    }

    #[test]
    fn spec_parser_reads_the_contract_keys() {
        let spec = Spec::parse(
            r#"{"command":["bash","benchmark/run.sh"],"paths":["benchmark"],"run_seconds":20,
                "workloads":[{"name":"a","why":"x"}],
                "end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}],
                "per_layer":[{"name":"host.x","unit":"us","better":"lower"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.run_seconds, 20.0);
        assert_eq!(spec.workloads, ["a"]);
        assert_eq!(spec.end_to_end[0].bound, Some(0.25));
        assert_eq!(spec.per_layer[0].bound, None);
        assert!(!spec.disagreements().is_empty());
    }
}
