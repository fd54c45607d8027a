//! The experiment registry is what `dcat-bench <name>` and
//! `all_experiments` run: its names are unique, every experiment the docs
//! cite by name is in it, and the entries outside the suite — which
//! `all_experiments` never runs — still run and report.

use std::collections::BTreeSet;
use std::path::Path;

use dcat_bench::experiments::{find, registry};
use dcat_bench::{report, Cli};

#[test]
fn names_are_unique() {
    let mut seen = BTreeSet::new();
    for e in registry() {
        assert!(seen.insert(e.name), "{} is registered twice", e.name);
    }
}

/// Names of an experiment's shape that the docs cite for something else:
/// a system-benchmark workload, and two `dcat-perfbench` cases and their
/// ratio.
const NOT_EXPERIMENTS: &[&str] = &[
    "fleet_diurnal",
    "fig10_fast_full",
    "fig10_fast_sampled8",
    "fig10_sampled_speedup",
];

fn looks_like_an_experiment(word: &str) -> bool {
    let Some((prefix, rest)) = word.split_once('_') else {
        return false;
    };
    let numbered = |p: &str| {
        p.len() == 5
            && (p.starts_with("fig") || p.starts_with("tab"))
            && p[3..].bytes().all(|b| b.is_ascii_digit())
    };
    (numbered(prefix) || ["ablate", "exp", "trace", "fault", "fleet"].contains(&prefix))
        && !rest.is_empty()
        && rest
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        && !NOT_EXPERIMENTS.contains(&word)
}

/// The experiment names in `text`'s inline code spans (fenced blocks
/// skipped): a span's first word, or the word after a leading
/// `dcat-bench`.
fn cited_experiments(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .filter_map(|span| {
            let mut words = span.split_whitespace();
            match words.next()? {
                "dcat-bench" => words.next(),
                first => Some(first),
            }
        })
        .filter(|w| looks_like_an_experiment(w))
        .map(str::to_string)
        .collect()
}

/// DESIGN.md from §4 up to §6, and all of EXPERIMENTS.md and README.md.
fn cited_in_docs() -> Vec<(&'static str, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |doc: &str| {
        std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("read {doc}: {e}"))
    };
    let design = read("DESIGN.md");
    let start = design.find("\n## 4. ").expect("DESIGN.md has a §4");
    let end = design.find("\n## 6. ").expect("DESIGN.md has a §6");
    let mut cited = Vec::new();
    for (doc, text) in [
        ("DESIGN.md §4–§5", design[start..end].to_string()),
        ("EXPERIMENTS.md", read("EXPERIMENTS.md")),
        ("README.md", read("README.md")),
    ] {
        cited.extend(cited_experiments(&text).into_iter().map(|name| (doc, name)));
    }
    cited
}

#[test]
fn every_experiment_the_docs_cite_is_registered() {
    let cited = cited_in_docs();
    assert!(
        cited.len() >= 30,
        "only {} citations found: the span scan is broken",
        cited.len()
    );
    let missing: Vec<String> = cited
        .iter()
        .filter(|(_, name)| find(name).is_none())
        .map(|(doc, name)| format!("{doc}: `{name}`"))
        .collect();
    assert!(missing.is_empty(), "cited but not registered: {missing:?}");
}

#[test]
fn the_span_scan_sees_what_it_should() {
    let text = "Run `dcat-bench fig16_mixed_latency --fast` or `fig07_lifecycle`;\n\
                ```console\n$ dcat-bench fig99_fenced\n```\n\
                not `fleet_diurnal`, `fleet_*` or `report::say`, but `exp_coloring`.";
    assert_eq!(
        cited_experiments(text),
        ["fig16_mixed_latency", "fig07_lifecycle", "exp_coloring"]
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "ten experiment runs, ≈35 s unoptimized; ci.sh runs it in release"
)]
fn every_entry_outside_the_suite_runs_fast_and_reports() {
    let cli = Cli::parse(&["--fast".to_string()]);
    let alone: Vec<_> = registry().iter().filter(|e| !e.suite).collect();
    assert_eq!(alone.len(), 10);
    for e in alone {
        let ((), out) = report::capture(|| (e.run)(&cli));
        assert!(
            out.lines().any(|l| !l.trim().is_empty()),
            "{} printed nothing",
            e.name
        );
    }
}
