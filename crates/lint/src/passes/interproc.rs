//! DL013 / DL014 — interprocedural passes over the workspace call
//! graph ([`crate::model`]). Both check a property no type or clippy
//! lint states for this workspace (DESIGN.md §12).
//!
//! **DL013 panic-reachability.** `unwrap`/`expect`/`panic!`-family
//! macros, slice indexing, and integer `/`/`%` by a variable divisor are
//! *facts* extracted per function; the pass walks the call graph from
//! the paths that must never die mid-tick — `run_daemon_observed` and
//! the controller's `tick*`/two-pass `apply` — and reports any reachable
//! fact with the entry→sink call chain as a trace. Indexing by a loop
//! variable bound as `for i in 0..…` in the same body is exempt (the
//! dominant safe shape in the controller), as are the `assert!` family
//! (deliberate contract checks, not accidental panics). Allow: DL013.
//!
//! **DL014 unit-safety.** Not reachability-based: every non-test fn in
//! the unit-bearing crates is checked for (a) arithmetic or comparison
//! mixing identifiers of different unit suffixes (`*_ways` vs `*_bytes`
//! vs `*_cycles` vs `*_epochs` — `*`/`/` are excluded as legitimate
//! conversions) and (b) returns from unit-promising fn names that
//! contradict the canonical widths in DESIGN.md §12: `ways` are `u32`,
//! `bytes`/`cycles`/`epochs` are `u64`. Named (newtype) returns pass;
//! a float or a wrong-width integer does not. Units propagate through
//! suffix-free bindings ([`crate::dataflow`]): a `let` whose initializer
//! reads only one unit's values (with no calls, which may convert, and
//! no later reassignment) inherits that unit, so `let w = total_ways;
//! w + slab_bytes` is still a mix. Allow: DL014.

use crate::dataflow::FnFlow;
use crate::diagnostics::{Finding, Sink};
use crate::model::Workspace;
use crate::tokens::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub const PANIC_REACH_CODE: &str = "DL013";
pub const UNIT_CODE: &str = "DL014";

/// How entry points are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryMode {
    /// The repo gate: the dCat-specific entry sets documented above.
    Repo,
    /// Fixture scans: every graph root (fn with no incoming edges).
    Roots,
}

pub fn run_all(ws: &Workspace, mode: EntryMode, sink: &mut Sink) {
    run_panic_reach(ws, mode, sink);
    run_unit_safety(ws, mode, sink);
}

// ---------------------------------------------------------------------
// Shared reachability machinery
// ---------------------------------------------------------------------

/// Multi-source BFS; returns `parent[f] = Some(pred)` for every reached
/// fn (entries point at themselves). Deterministic: entries are visited
/// in index order and adjacency lists are sorted.
fn reach(ws: &Workspace, entries: &[usize]) -> Vec<Option<usize>> {
    let mut parent: Vec<Option<usize>> = vec![None; ws.fns.len()];
    let mut q = VecDeque::new();
    for &e in entries {
        if parent[e].is_none() {
            parent[e] = Some(e);
            q.push_back(e);
        }
    }
    while let Some(f) = q.pop_front() {
        for &(c, _) in &ws.edges[f] {
            if parent[c].is_none() && !ws.fns[c].is_test {
                parent[c] = Some(f);
                q.push_back(c);
            }
        }
    }
    parent
}

/// Entry→`f` chain of qualified names, following BFS parents.
fn trace_to(ws: &Workspace, parent: &[Option<usize>], mut f: usize) -> Vec<String> {
    let mut chain = vec![ws.fns[f].qualified.clone()];
    while let Some(p) = parent[f] {
        if p == f {
            break;
        }
        chain.push(ws.fns[p].qualified.clone());
        f = p;
    }
    chain.reverse();
    chain
}

fn roots(ws: &Workspace) -> Vec<usize> {
    let mut has_caller = vec![false; ws.fns.len()];
    for (f, es) in ws.edges.iter().enumerate() {
        if ws.fns[f].is_test {
            continue;
        }
        for &(c, _) in es {
            has_caller[c] = true;
        }
    }
    (0..ws.fns.len())
        .filter(|&f| !has_caller[f] && !ws.fns[f].is_test)
        .collect()
}

/// The one crate whose bodies never contribute facts: the analyzer
/// itself (its sources and fixtures spell every banned token).
fn fact_exempt_crate(cr: &str) -> bool {
    cr == "dcat_lint"
}

/// One extracted fact, pre-resolved to an emission site.
struct Fact {
    f: usize,
    line: usize,
    message: String,
}

/// Emits `fact`, routed aside when a `lint: allow(code, …)` covers its
/// line.
fn emit_fact(ws: &Workspace, sink: &mut Sink, code: &'static str, fact: &Fact, trace: Vec<String>) {
    let unit = ws.unit_of(fact.f);
    let snippet = unit
        .file
        .lines
        .get(fact.line - 1)
        .map(|l| l.raw.trim().to_string())
        .unwrap_or_default();
    let finding = Finding {
        code,
        path: unit.file.path.clone(),
        line: fact.line,
        message: fact.message.clone(),
        snippet,
        trace,
    };
    if unit.file.is_allowed(fact.line, code) {
        sink.suppressed.push(finding);
    } else {
        sink.findings.push(finding);
    }
}

/// Non-test code lines of a fn body, as `(line_no, scrubbed_text)`.
fn body_code_lines(ws: &Workspace, f: usize) -> Vec<(usize, String)> {
    let unit = ws.unit_of(f);
    let Some((lo, hi)) = ws.fn_item(f).body_lines else {
        return Vec::new();
    };
    unit.file
        .lines
        .iter()
        .enumerate()
        .skip(lo.saturating_sub(1))
        .take(hi.saturating_sub(lo) + 1)
        .filter(|(_, l)| !l.in_test)
        .map(|(i, l)| (i + 1, l.scrubbed.clone()))
        .collect()
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Is this token a Rust keyword (so `kw […]` is an array literal or a
/// pattern, never an indexing expression)?
fn is_rust_kw(t: &crate::tokens::Tok) -> bool {
    [
        "in", "return", "match", "if", "else", "for", "while", "loop", "break", "continue", "move",
        "ref", "mut", "as", "let", "box", "await", "yield", "static", "const",
    ]
    .iter()
    .any(|k| t.is_kw(k))
}

// ---------------------------------------------------------------------
// DL013 — panic reachability
// ---------------------------------------------------------------------

fn panic_entries(ws: &Workspace, mode: EntryMode) -> Vec<usize> {
    if mode == EntryMode::Roots {
        return roots(ws);
    }
    let mut out = Vec::new();
    for (f, n) in ws.fns.iter().enumerate() {
        if n.is_test || n.crate_ident != "dcat" {
            continue;
        }
        let daemon = n.module.first().map(String::as_str) == Some("daemon")
            && n.name.starts_with("run_daemon");
        let step = n.impl_ty.as_deref() == Some("ControlLoop") && n.name == "step";
        // The loop reaches a policy through a generic `P: CachePolicy`, which
        // the call graph does not resolve: every policy's decision method is
        // an entry of its own.
        let policy = n.impl_ty.is_some() && n.name == "decide";
        let ctl = n.impl_ty.as_deref() == Some("DcatController")
            && (n.name == "apply" || n.name.starts_with("tick"));
        if daemon || step || policy || ctl {
            out.push(f);
        }
    }
    out
}

const PANIC_MACROS: [&str; 4] = ["panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// Identifiers bound by iteration or pattern destructuring anywhere in
/// the body: `for i in …` / `for (k, v) in …`, closure parameters
/// (`|&i|`, `|(i, x)|`), and `Some(i)` / `Ok(i)` patterns. Indexing by
/// such a binding is range-derived (the value flows from an iterator or
/// a search over valid indices), so it is exempt from the DL013 index
/// fact; raw parameters, struct fields, literals, and computed indices
/// stay flagged.
fn loop_bound_idents(toks: &[Tok], start: usize, end: usize) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        // for-loop patterns: everything between `for` and `in`.
        if t.is_kw("for") {
            let mut j = i + 1;
            while j < end && !toks[j].is_kw("in") && !toks[j].is("{") {
                if toks[j].kind == TokKind::Ident && !toks[j].is_kw("mut") {
                    out.insert(toks[j].text.clone());
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        // Option/Result destructure: `Some(i)`, `Ok(i)`.
        if (t.is_kw("Some") || t.is_kw("Ok"))
            && i + 3 < end
            && toks[i + 1].is("(")
            && toks[i + 2].kind == TokKind::Ident
            && toks[i + 3].is(")")
        {
            out.insert(toks[i + 2].text.clone());
            i += 4;
            continue;
        }
        // Closure header: `|` pattern-ish tokens `|` within a short
        // window. Idents after a `:` are types, not bindings.
        if t.is("|") {
            let mut j = i + 1;
            let mut in_type = false;
            let mut names = Vec::new();
            let mut ok = false;
            while j < end && j - i < 24 {
                let u = &toks[j];
                if u.is("|") {
                    ok = true;
                    break;
                }
                match u.text.as_str() {
                    "," => in_type = false,
                    ":" => in_type = true,
                    "&" | "(" | ")" | "_" | "mut" | "<" | ">" | "::" => {}
                    _ if u.kind == TokKind::Ident || u.kind == TokKind::Lifetime => {
                        if !in_type && u.kind == TokKind::Ident {
                            names.push(u.text.clone());
                        }
                    }
                    _ => break, // not a closure header
                }
                j += 1;
            }
            if ok {
                out.extend(names);
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Integer-typed locals/params of fn `f` (for the divisor fact).
fn int_locals(ws: &Workspace, f: usize) -> BTreeSet<String> {
    const INTS: [&str; 12] = [
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    ws.locals[f]
        .iter()
        .filter(|(_, ty)| INTS.contains(&ty.trim_start_matches('&').trim()))
        .map(|(n, _)| n.clone())
        .collect()
}

fn run_panic_reach(ws: &Workspace, mode: EntryMode, sink: &mut Sink) {
    let entries = panic_entries(ws, mode);
    let parent = reach(ws, &entries);
    let mut facts: Vec<Fact> = Vec::new();
    for (f, node) in ws.fns.iter().enumerate() {
        if parent[f].is_none() || fact_exempt_crate(&node.crate_ident) {
            continue;
        }
        for (n, line) in body_code_lines(ws, f) {
            if line.contains(".unwrap()") || line.contains(".expect(") {
                facts.push(Fact {
                    f,
                    line: n,
                    message: "unwrap()/expect() reachable from the daemon tick path \
                              (PR 3: ticks degrade, they never die)"
                        .into(),
                });
            }
            if PANIC_MACROS.iter().any(|m| line.contains(m)) {
                facts.push(Fact {
                    f,
                    line: n,
                    message: "explicit panic reachable from the daemon tick path".into(),
                });
            }
        }
        // Token-level facts: indexing and variable divisors.
        let item = ws.fn_item(f);
        let Some((bs, be)) = item.body else { continue };
        let toks = &ws.unit_of(f).parsed.tokens;
        let bound = loop_bound_idents(toks, bs, be);
        let ints = int_locals(ws, f);
        let mut i = bs;
        while i < be {
            let t = &toks[i];
            let prev_is_value = i > bs
                && (toks[i - 1].kind == TokKind::Ident && !is_rust_kw(&toks[i - 1])
                    || toks[i - 1].is(")")
                    || toks[i - 1].is("]"));
            if t.is("[") && prev_is_value {
                // Contract checks (`assert!`/`debug_assert!`) are
                // deliberate panics, not accidental ones.
                let line_text = ws
                    .unit_of(f)
                    .file
                    .lines
                    .get(t.line - 1)
                    .map(|l| l.scrubbed.clone())
                    .unwrap_or_default();
                if line_text.contains("assert") {
                    i += 1;
                    continue;
                }
                // Slice/array indexing: find the matching `]`.
                let mut depth = 0isize;
                let mut j = i;
                while j < be {
                    match toks[j].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let inner = &toks[i + 1..j.min(be)];
                let loop_safe = inner.len() == 1
                    && inner[0].kind == TokKind::Ident
                    && bound.contains(&inner[0].text);
                if !loop_safe {
                    facts.push(Fact {
                        f,
                        line: t.line,
                        message: "panicking index reachable from the daemon tick path \
                                  (use .get()/.get_mut() or a loop-bounded index)"
                            .into(),
                    });
                }
                i = j + 1;
                continue;
            }
            if (t.is("/") || t.is("%") || t.is("/=") || t.is("%="))
                && i + 1 < be
                && toks[i + 1].kind == TokKind::Ident
                && ints.contains(&toks[i + 1].text)
            {
                facts.push(Fact {
                    f,
                    line: t.line,
                    message: format!(
                        "integer division/remainder by variable `{}` reachable from the \
                         daemon tick path (zero divisor panics; guard or use checked_div)",
                        toks[i + 1].text
                    ),
                });
            }
            i += 1;
        }
    }
    facts.sort_by_key(|a| (a.f, a.line));
    facts.dedup_by(|a, b| a.f == b.f && a.line == b.line && a.message == b.message);
    for fact in &facts {
        let trace = trace_to(ws, &parent, fact.f);
        emit_fact(ws, sink, PANIC_REACH_CODE, fact, trace);
    }
}

// ---------------------------------------------------------------------
// DL014 — unit safety
// ---------------------------------------------------------------------

/// Crates that traffic in ways/bytes/cycles quantities.
fn unit_scoped(cr: &str, mode: EntryMode) -> bool {
    if mode == EntryMode::Roots {
        return !fact_exempt_crate(cr);
    }
    matches!(
        cr,
        "dcat" | "host" | "llc_sim" | "resctrl" | "dcat_bench" | "perf_events"
    )
}

fn unit_of(ident: &str) -> Option<&'static str> {
    for u in ["ways", "bytes", "cycles", "epochs"] {
        if ident == u || ident.ends_with(&format!("_{u}")) {
            return Some(u);
        }
    }
    None
}

/// Canonical integer width for a unit (DESIGN.md §12).
fn canonical_width(unit: &str) -> &'static str {
    match unit {
        "ways" => "u32",
        _ => "u64",
    }
}

/// Operators whose operands must agree on units. `*`/`/` are excluded:
/// `ways * way_bytes` is the sanctioned conversion shape.
fn unit_strict_op(op: &str) -> bool {
    matches!(
        op,
        "+" | "-" | "+=" | "-=" | "<" | "<=" | ">" | "==" | "!=" | "="
    )
}

fn run_unit_safety(ws: &Workspace, mode: EntryMode, sink: &mut Sink) {
    let mut facts: Vec<Fact> = Vec::new();
    for f in 0..ws.fns.len() {
        let node = &ws.fns[f];
        if node.is_test || !unit_scoped(&node.crate_ident, mode) {
            continue;
        }
        let item = ws.fn_item(f);
        // (b) unit-promising name must return the canonical width.
        if let (Some(unit), Some(ret)) = (unit_of(&node.name), item.ret.as_ref()) {
            if let Some(bad) = width_violation(unit, ret) {
                facts.push(Fact {
                    f,
                    line: item.line,
                    message: format!(
                        "fn `{}` promises {unit} but returns `{ret}` ({bad}; canonical \
                         {unit} width is {})",
                        node.name,
                        canonical_width(unit)
                    ),
                });
            }
        }
        // (a) mixed-unit arithmetic/comparison/assignment.
        let Some((bs, be)) = item.body else { continue };
        let toks = &ws.unit_of(f).parsed.tokens;
        // A suffix-free binding whose initializer reads only values of
        // one unit (and is never reassigned) inherits that unit, so
        // `let w = total_ways; w + size_bytes` is caught.
        let mut inherited: BTreeMap<String, &'static str> = BTreeMap::new();
        let flow = FnFlow::analyze(toks, (bs, be), &item.params);
        loop {
            let mut changed = false;
            for def in &flow.defs {
                if unit_of(&def.name).is_some()
                    || inherited.contains_key(&def.name)
                    || def.init_calls
                    || def.init_reads.is_empty()
                    || def.written
                {
                    continue;
                }
                let units: BTreeSet<&'static str> = def
                    .init_reads
                    .iter()
                    .filter_map(|&r| {
                        let src = &flow.defs[r].name;
                        unit_of(src).or_else(|| inherited.get(src).copied())
                    })
                    .collect();
                if units.len() == 1
                    && def.init_reads.iter().all(|&r| {
                        let src = &flow.defs[r].name;
                        unit_of(src).is_some() || inherited.contains_key(src)
                    })
                {
                    inherited.insert(def.name.clone(), units.iter().next().copied().unwrap());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let unit_of_ident = |ident: &str| unit_of(ident).or_else(|| inherited.get(ident).copied());
        for i in bs..be {
            let t = &toks[i];
            if t.kind != TokKind::Punct || !unit_strict_op(&t.text) {
                continue;
            }
            if i == bs || i + 1 >= be {
                continue;
            }
            // `->` never reaches here (own token); `>` only fires between
            // two unit-suffixed idents, which generics never produce.
            let (l, r) = (&toks[i - 1], &toks[i + 1]);
            if l.kind != TokKind::Ident || r.kind != TokKind::Ident {
                continue;
            }
            if let (Some(ul), Some(ur)) = (unit_of_ident(&l.text), unit_of_ident(&r.text)) {
                if ul != ur {
                    facts.push(Fact {
                        f,
                        line: t.line,
                        message: format!(
                            "`{}` ({ul}) {} `{}` ({ur}) mixes units; convert explicitly \
                             before combining",
                            l.text, t.text, r.text
                        ),
                    });
                }
            }
        }
    }
    for fact in &facts {
        let trace = vec![ws.fns[fact.f].qualified.clone()];
        emit_fact(ws, sink, UNIT_CODE, fact, trace);
    }
}

/// Does return type `ret` contradict the canonical width of `unit`?
/// Returns a short description of the violation, or `None` if fine.
fn width_violation(unit: &str, ret: &str) -> Option<&'static str> {
    let canonical = canonical_width(unit);
    let words: Vec<String> = split_idents(ret);
    let ints: Vec<&str> = words
        .iter()
        .map(String::as_str)
        .filter(|w| {
            matches!(
                *w,
                "u8" | "u16"
                    | "u32"
                    | "u64"
                    | "u128"
                    | "usize"
                    | "i8"
                    | "i16"
                    | "i32"
                    | "i64"
                    | "i128"
                    | "isize"
            )
        })
        .collect();
    if ints.contains(&canonical) {
        return None;
    }
    if !ints.is_empty() {
        return Some("wrong integer width");
    }
    if words.iter().any(|w| w == "f32" || w == "f64") {
        return Some("floats cannot carry a discrete unit");
    }
    // A named (newtype) return carries its own unit discipline.
    None
}

fn split_idents(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in s.chars() {
        if is_ident_char(c) {
            cur.push(c);
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

// ---------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------

fn fixture_ws(files: &[(&str, &str)]) -> Workspace {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect();
    Workspace::from_sources(&sources, &BTreeMap::new())
}

fn run_on(files: &[(&str, &str)], mode: EntryMode) -> Sink {
    let ws = fixture_ws(files);
    let mut sink = Sink::default();
    run_all(&ws, mode, &mut sink);
    sink
}

fn expect_codes(
    name: &str,
    files: &[(&str, &str)],
    mode: EntryMode,
    code: &str,
    want: usize,
) -> Result<(), String> {
    let sink = run_on(files, mode);
    let got = sink.findings.iter().filter(|f| f.code == code).count();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{name}: expected {want} {code} finding(s), got {got}: {:?}",
            sink.findings
                .iter()
                .map(|f| format!("{} {}:{} {}", f.code, f.path, f.line, f.message))
                .collect::<Vec<_>>()
        ))
    }
}

pub fn self_test() -> Result<(), String> {
    // DL013: unwrap hidden behind a helper in another module.
    expect_codes(
        "DL013 laundering",
        &[
            (
                "tick.rs",
                "pub fn entry() -> u64 { crate::help::first() }\n",
            ),
            (
                "help.rs",
                "pub fn first() -> u64 { parse_row().unwrap() }\n\
                 fn parse_row() -> Option<u64> { None }\n",
            ),
        ],
        EntryMode::Roots,
        PANIC_REACH_CODE,
        1,
    )?;
    // Loop-bounded indexing is the sanctioned shape.
    expect_codes(
        "DL013 loop-bounded index",
        &[(
            "a.rs",
            "pub fn entry(xs: &[u64]) -> u64 {\n\
                 let mut acc = 0;\n\
                 for i in 0..xs.len() {\n\
                     acc += xs[i];\n\
                 }\n\
                 acc\n\
             }\n",
        )],
        EntryMode::Roots,
        PANIC_REACH_CODE,
        0,
    )?;
    // Unbounded indexing is not.
    expect_codes(
        "DL013 raw index",
        &[(
            "a.rs",
            "pub fn entry(xs: &[u64], k: usize) -> u64 { xs[k] }\n",
        )],
        EntryMode::Roots,
        PANIC_REACH_CODE,
        1,
    )?;
    // Variable divisor with a known integer type.
    expect_codes(
        "DL013 divisor",
        &[(
            "a.rs",
            "pub fn entry(total: u64, n: u64) -> u64 { total / n }\n",
        )],
        EntryMode::Roots,
        PANIC_REACH_CODE,
        1,
    )?;
    // Unreachable helpers stay unreported.
    expect_codes(
        "DL013 unreachable",
        &[(
            "a.rs",
            "pub fn entry() -> u64 { 7 }\n\
             pub fn lonely() -> u64 { None::<u64>.unwrap() }\n",
        )],
        EntryMode::Roots,
        PANIC_REACH_CODE,
        1, // `lonely` is itself a root; reachable-from-itself still counts
    )?;

    // DL014: mixing ways with bytes across + is flagged…
    expect_codes(
        "DL014 mixing",
        &[(
            "a.rs",
            "pub fn entry(alloc_ways: u64, slab_bytes: u64) -> u64 { alloc_ways + slab_bytes }\n",
        )],
        EntryMode::Roots,
        UNIT_CODE,
        1,
    )?;
    // …while * stays a conversion.
    expect_codes(
        "DL014 conversion",
        &[(
            "a.rs",
            "pub fn entry(n_ways: u64, way_bytes: u64) -> u64 { n_ways * way_bytes }\n",
        )],
        EntryMode::Roots,
        UNIT_CODE,
        0,
    )?;
    // v3 unit propagation: a suffix-free alias inherits the unit its
    // initializer read, so the mix is still caught one hop later.
    expect_codes(
        "DL014 propagated unit",
        &[(
            "a.rs",
            "pub fn entry(total_ways: u64, slab_bytes: u64) -> u64 {\n\
                 let w = total_ways;\n\
                 w + slab_bytes\n\
             }\n",
        )],
        EntryMode::Roots,
        UNIT_CODE,
        1,
    )?;
    // …but a value that went through a call keeps no unit (the call
    // may convert), and neither does a reassigned binding.
    expect_codes(
        "DL014 propagation stops at calls",
        &[(
            "a.rs",
            "fn scale(v: u64) -> u64 { v * 64 }\n\
             pub fn entry(total_ways: u64, slab_bytes: u64) -> u64 {\n\
                 let w = scale(total_ways);\n\
                 w + slab_bytes\n\
             }\n",
        )],
        EntryMode::Roots,
        UNIT_CODE,
        0,
    )?;
    // Width promise: ways are u32.
    expect_codes(
        "DL014 width",
        &[("a.rs", "pub fn peak_ways() -> u64 { 4 }\n")],
        EntryMode::Roots,
        UNIT_CODE,
        1,
    )?;
    expect_codes(
        "DL014 width ok",
        &[(
            "a.rs",
            "pub fn peak_ways() -> u32 { 4 }\n\
             pub fn capacity_bytes() -> Option<u64> { None }\n",
        )],
        EntryMode::Roots,
        UNIT_CODE,
        0,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        self_test().unwrap();
    }

    #[test]
    fn repo_mode_entry_selection() {
        let ws = fixture_ws(&[
            (
                "crates/dcat/src/controller.rs",
                "pub struct DcatController;\n\
                 impl CachePolicy for DcatController {\n\
                     fn decide(&mut self) { self.collect(); }\n\
                 }\n\
                 impl DcatController {\n\
                     fn collect(&mut self) { let x: Option<u64> = None; let _ = x.unwrap(); }\n\
                 }\n\
                 pub fn lonely() { let x: Option<u64> = None; let _ = x.unwrap(); }\n",
            ),
            (
                "crates/dcat/src/control.rs",
                "pub struct ControlLoop;\n\
                 impl ControlLoop {\n\
                     pub fn step(&mut self) { self.ingest(); }\n\
                     fn ingest(&mut self) { let x: Option<u64> = None; let _ = x.unwrap(); }\n\
                 }\n",
            ),
            (
                "crates/dcat/src/lfoc.rs",
                "pub struct LfocPolicy;\n\
                 impl CachePolicy for LfocPolicy {\n\
                     fn decide(&mut self) { let x: Option<u64> = None; let _ = x.unwrap(); }\n\
                 }\n\
                 pub fn decide() { let x: Option<u64> = None; let _ = x.unwrap(); }\n",
            ),
            (
                "crates/dcat/src/daemon.rs",
                "pub fn run_daemon_observed() { helper(); }\n\
                 fn helper() { let x: Option<u64> = None; let _ = x.unwrap(); }\n",
            ),
        ]);
        let mut sink = Sink::default();
        run_all(&ws, EntryMode::Repo, &mut sink);
        // `lonely` and the free `lfoc::decide` are no entry points and
        // nothing on a tick path calls them.
        let traces: Vec<_> = sink.findings.iter().map(|f| f.trace.clone()).collect();
        assert!(
            sink.findings.iter().all(|f| f.code == PANIC_REACH_CODE),
            "{:?}",
            sink.findings
        );
        assert_eq!(
            traces,
            vec![
                vec![
                    "dcat::control::ControlLoop::step".to_string(),
                    "dcat::control::ControlLoop::ingest".to_string(),
                ],
                vec![
                    "dcat::controller::DcatController::decide".to_string(),
                    "dcat::controller::DcatController::collect".to_string(),
                ],
                vec![
                    "dcat::daemon::run_daemon_observed".to_string(),
                    "dcat::daemon::helper".to_string(),
                ],
                vec!["dcat::lfoc::LfocPolicy::decide".to_string()],
            ]
        );
    }
}
