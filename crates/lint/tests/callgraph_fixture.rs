//! Call-graph integration tests over the mini-workspace fixture in
//! `tests/fixtures/miniws/`: two crates, a cross-module call, a
//! use-aliased cross-crate call, method resolution through `self` and
//! typed parameters, and one deliberately ambiguous method call that
//! must land in the unresolved bucket rather than being dropped or
//! guessed.

use dcat_lint::diagnostics::Sink;
use dcat_lint::model::Workspace;
use dcat_lint::passes::interproc::{run_all, EntryMode};
use std::collections::BTreeMap;
use std::path::Path;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/miniws")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Builds the fixture workspace under its virtual `crates/` paths.
fn mini_workspace() -> Workspace {
    let sources = vec![
        ("crates/app/src/main.rs".to_string(), fixture("app_main.rs")),
        (
            "crates/app/src/metrics.rs".to_string(),
            fixture("app_metrics.rs"),
        ),
        (
            "crates/corelib/src/lib.rs".to_string(),
            fixture("corelib.rs"),
        ),
    ];
    let idents = BTreeMap::from([
        ("app".to_string(), "app".to_string()),
        ("corelib".to_string(), "corelib".to_string()),
    ]);
    Workspace::from_sources(&sources, &idents)
}

fn fn_index(ws: &Workspace, qualified: &str) -> usize {
    ws.fns
        .iter()
        .position(|n| n.qualified == qualified)
        .unwrap_or_else(|| {
            let all: Vec<&str> = ws.fns.iter().map(|n| n.qualified.as_str()).collect();
            panic!("no fn `{qualified}` in graph; have: {all:?}")
        })
}

fn has_edge(ws: &Workspace, from: &str, to: &str) -> bool {
    let f = fn_index(ws, from);
    let t = fn_index(ws, to);
    ws.edges[f].iter().any(|&(c, _)| c == t)
}

#[test]
fn graph_edges_cover_module_crate_and_method_resolution() {
    let ws = mini_workspace();
    // Cross-module call within the app crate.
    assert!(has_edge(&ws, "app::main::main", "app::metrics::collect"));
    assert!(has_edge(&ws, "app::main::main", "app::metrics::gauge"));
    // Cross-crate call through a `use … as` alias.
    assert!(has_edge(
        &ws,
        "app::metrics::collect",
        "corelib::routing_table"
    ));
    // Method on a typed-parameter receiver.
    assert!(has_edge(
        &ws,
        "app::metrics::gauge",
        "corelib::Sensor::read"
    ));
    // Method through `self`.
    assert!(has_edge(
        &ws,
        "app::metrics::Gauge::touch",
        "app::metrics::Gauge::sample"
    ));
}

#[test]
fn ambiguous_method_call_is_reported_not_guessed() {
    let ws = mini_workspace();
    let flush = fn_index(&ws, "app::metrics::flush");
    let unresolved: Vec<_> = ws.unresolved.iter().filter(|u| u.caller == flush).collect();
    assert_eq!(
        unresolved.len(),
        1,
        "expected exactly the g.sample ambiguity, got: {:?}",
        ws.unresolved
            .iter()
            .map(|u| (&u.call, &u.reason))
            .collect::<Vec<_>>()
    );
    assert_eq!(unresolved[0].call, "g.sample");
    assert!(
        unresolved[0].reason.contains("2 candidates"),
        "reason names both candidates' count: {}",
        unresolved[0].reason
    );
    // No edge was invented to either candidate.
    assert!(!has_edge(
        &ws,
        "app::metrics::flush",
        "app::metrics::Gauge::sample"
    ));
    assert!(!has_edge(
        &ws,
        "app::metrics::flush",
        "corelib::Probe::sample"
    ));
    // The summary counts it.
    assert_eq!(ws.summary().unresolved, ws.unresolved.len());
}

#[test]
fn dl013_trace_through_aliased_cross_crate_call_is_byte_exact() {
    let ws = mini_workspace();
    let mut sink = Sink::default();
    run_all(&ws, EntryMode::Roots, &mut sink);
    let panics: Vec<_> = sink.findings.iter().filter(|f| f.code == "DL013").collect();
    assert_eq!(
        panics.len(),
        1,
        "expected exactly the unwrap behind the aliased call: {:?}",
        sink.findings
    );
    let f = panics[0];
    assert_eq!(f.path, "crates/corelib/src/lib.rs");
    assert_eq!(
        f.trace,
        vec![
            "app::main::main".to_string(),
            "app::metrics::collect".to_string(),
            "corelib::routing_table".to_string()
        ],
        "entry -> sink chain must be reproduced exactly"
    );
    assert!(f.snippet.contains("\"1\".parse().unwrap()"));
    assert!(
        f.render_human()
            .contains("via app::main::main -> app::metrics::collect -> corelib::routing_table"),
        "human rendering carries the trace: {}",
        f.render_human()
    );
    // The fixture has no unit mixing: DL014 stays quiet on it.
    assert!(
        sink.findings.iter().all(|f| f.code == "DL013"),
        "unexpected findings: {:?}",
        sink.findings
    );
}
