//! DL015 / DL016 / DL017 — pass families over the intraprocedural
//! dataflow layer ([`crate::dataflow`]) joined with the workspace call
//! graph ([`crate::model`]).
//!
//! **DL015 pool-discipline race pass.** `host::pool::Pool::map` promises
//! byte-identical merges at any worker count, which holds only while
//! tasks are self-contained. The pass finds every closure handed to a
//! `Pool::map` call site and walks its captures through the def-use
//! chains: a captured interior-mutability cell (`RefCell`, `Mutex`,
//! `Atomic*`), a laundered `&mut` borrow (`let shared = &mut totals;`
//! then capture `shared` — invisible to any token pass), a capture the
//! closure writes to, or a call inside the closure that transitively
//! reaches the coordinator-only `bench::report` sink is a finding, with
//! an entry→capture trace like DL012's.
//!
//! **DL016 hot-path allocation pass.** Functions reachable from the
//! perfbench-pinned paths — `Engine`/`MultiSocketEngine::run_epoch*`,
//! `PackedSet` methods (the set logic under `CacheSet` and every cache),
//! and `CachePolicy::tick` impls — must not allocate per call. Facts: a
//! binding initialized from `Vec::new()` that later grows
//! (`push`/`extend`/`insert`/…) without a capacity reservation,
//! `.collect()` behind a size-losing adapter (`filter`, `flat_map`, …;
//! exact-size chains single-allocate via `size_hint` and stay
//! sanctioned), `Box::new(…)`, and `format!(…)`. Escape hatch:
//! `// lint: allow(DL016, reason)` for allocations that are genuinely
//! bounded and once-per-call.
//!
//! **DL017 I/O error-completeness pass.** Every `Result` produced by the
//! I/O-classified surface (fns in `resctrl`/`perf_events` returning
//! `Result`, or any fn returning a `ResctrlError`-typed error) must flow
//! into `severity()` classification, retry wrapping, propagation, or an
//! explicit structured event. Findings: `unwrap()`/`expect(…)` on such a
//! Result, `let _ =` discards, bindings that are never consumed or
//! consumed only by a later `let _ =` (the two-hop discard only dataflow
//! can see), and `_` wildcard arms in `severity()` matches (including
//! matches on a binding the def-use chains trace back to `severity()`).
//! Calls the resolver cannot follow (field receivers like
//! `self.policy.tick(…)`) are covered by a name-set fallback: a method
//! name is I/O-fallible when every workspace fn of that name is.
//! Binaries (`src/bin/`, `main.rs`) own their exit path and are exempt,
//! as are tests.

use super::interproc::{
    body_code_lines, emit_fact, fact_exempt_crate, reach, roots, trace_to, EntryMode, Fact,
};
use crate::dataflow::{Def, DefKind, FnFlow, UseKind};
use crate::diagnostics::Sink;
use crate::model::Workspace;
use crate::tokens::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub const POOL_CODE: &str = "DL015";
pub const ALLOC_CODE: &str = "DL016";
pub const IO_CODE: &str = "DL017";

/// Def-use chains for fn `f`, when it has a body.
pub(super) fn flow_of(ws: &Workspace, f: usize) -> Option<FnFlow> {
    let item = ws.fn_item(f);
    let body = item.body?;
    Some(FnFlow::analyze(
        &ws.unit_of(f).parsed.tokens,
        body,
        &item.params,
    ))
}

/// Entry→`f` chain when the roots BFS reached `f`; the fn's own
/// qualified name otherwise (caller cycles with no root).
fn root_trace(ws: &Workspace, parent: &[Option<usize>], f: usize) -> Vec<String> {
    if parent[f].is_some() {
        trace_to(ws, parent, f)
    } else {
        vec![ws.fns[f].qualified.clone()]
    }
}

fn line_in_test(ws: &Workspace, f: usize, line: usize) -> bool {
    ws.unit_of(f)
        .file
        .lines
        .get(line - 1)
        .is_some_and(|l| l.in_test)
}

/// Index of the close matching the opener at `open` (same bracket kind).
fn matching(toks: &[Tok], open: usize, end: usize, close_s: &str) -> usize {
    let open_s = &toks[open].text.clone();
    let mut depth = 0i32;
    let mut i = open;
    while i <= end {
        if toks[i].text == *open_s {
            depth += 1;
        } else if toks[i].is(close_s) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    end
}

/// Does `u`'s innermost closure sit inside closure `c` (transitively)?
fn in_closure(flow: &FnFlow, mut inner: Option<usize>, c: usize) -> bool {
    while let Some(ci) = inner {
        if ci == c {
            return true;
        }
        inner = flow.closures[ci].parent;
    }
    false
}

fn sort_dedup(facts: &mut Vec<Fact>) {
    facts.sort_by(|a, b| (a.f, a.line, &a.message).cmp(&(b.f, b.line, &b.message)));
    facts.dedup_by(|a, b| a.f == b.f && a.line == b.line && a.message == b.message);
}

// ---------------------------------------------------------------------
// DL015 — pool-discipline races
// ---------------------------------------------------------------------

/// Types whose captures smuggle shared mutability into a worker task.
fn is_interior_mut(ws: &Workspace, f: usize, def: &Def) -> bool {
    let cell = |t: &str| {
        ["RefCell", "Cell<", "Mutex", "RwLock", "Atomic"]
            .iter()
            .any(|p| t.contains(p))
    };
    if def.ty.as_deref().is_some_and(cell) {
        return true;
    }
    if ws.locals[f]
        .get(&def.name)
        .map(String::as_str)
        .is_some_and(cell)
    {
        return true;
    }
    def.init_calls.iter().any(|c| {
        let head = c.split("::").next().unwrap_or("");
        matches!(head, "RefCell" | "Cell" | "Mutex" | "RwLock") || head.starts_with("Atomic")
    })
}

/// `reaches[g]` = fn `g` can (transitively) call into the coordinator's
/// report module (`bench::report` — ordered replay and metrics sinks).
fn report_sink_reachers(ws: &Workspace) -> Vec<bool> {
    let mut flag = vec![false; ws.fns.len()];
    let seeds: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            !n.is_test
                && matches!(n.crate_ident.as_str(), "dcat_bench" | "bench")
                && n.module.first().map(String::as_str) == Some("report")
        })
        .map(|(g, _)| g)
        .collect();
    if seeds.is_empty() {
        return flag;
    }
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); ws.fns.len()];
    for (f, es) in ws.edges.iter().enumerate() {
        if ws.fns[f].is_test {
            continue;
        }
        for &(c, _) in es {
            rev[c].push(f);
        }
    }
    let mut q: VecDeque<usize> = VecDeque::new();
    for &s in &seeds {
        flag[s] = true;
        q.push_back(s);
    }
    while let Some(x) = q.pop_front() {
        for &p in &rev[x] {
            if !flag[p] {
                flag[p] = true;
                q.push_back(p);
            }
        }
    }
    flag
}

pub(super) fn run_pool_discipline(ws: &Workspace, _mode: EntryMode, sink: &mut Sink) {
    let pool_map: BTreeSet<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            !n.is_test
                && n.name == "map"
                && n.impl_ty.as_deref().is_some_and(|t| t.contains("Pool"))
        })
        .map(|(g, _)| g)
        .collect();
    if pool_map.is_empty() {
        return;
    }
    let reaches_sink = report_sink_reachers(ws);
    let parent = reach(ws, &roots(ws));
    let mut facts: Vec<Fact> = Vec::new();
    for f in 0..ws.fns.len() {
        let node = &ws.fns[f];
        if node.is_test || fact_exempt_crate(&node.crate_ident) {
            continue;
        }
        let map_lines: Vec<usize> = ws.edges[f]
            .iter()
            .filter(|(c, _)| pool_map.contains(c))
            .map(|&(_, l)| l)
            .collect();
        if map_lines.is_empty() {
            continue;
        }
        let item = ws.fn_item(f);
        let Some((bs, be)) = item.body else { continue };
        let toks = &ws.unit_of(f).parsed.tokens;
        let Some(flow) = flow_of(ws, f) else { continue };
        for line in map_lines {
            // The `.map(` tokens of this call site.
            let Some(m) = (bs..=be).find(|&i| {
                toks[i].line == line
                    && toks[i].is("map")
                    && i > bs
                    && toks[i - 1].is(".")
                    && toks.get(i + 1).is_some_and(|t| t.is("("))
            }) else {
                continue;
            };
            let close = matching(toks, m + 1, be, ")");
            let (alo, ahi) = (m + 2, close.saturating_sub(1));
            for (c, cl) in flow.closures.iter().enumerate() {
                if cl.tok < alo || cl.tok > ahi {
                    continue;
                }
                // Nested closures report through their outermost parent.
                if cl
                    .parent
                    .is_some_and(|p| flow.closures[p].tok >= alo && flow.closures[p].tok <= ahi)
                {
                    continue;
                }
                for cap in flow.captures(c) {
                    let def = &flow.defs[cap.def];
                    let at = def
                        .uses
                        .iter()
                        .find(|u| in_closure(&flow, u.closure, c))
                        .map(|u| u.line)
                        .unwrap_or(cl.line);
                    if is_interior_mut(ws, f, def) {
                        facts.push(Fact {
                            f,
                            line: at,
                            message: format!(
                                "closure passed to Pool::map captures interior-mutability \
                                 cell `{}` — pool tasks must be self-contained for \
                                 byte-identical merges",
                                def.name
                            ),
                        });
                    } else if def.init_mut_borrow {
                        let src = def
                            .init_reads
                            .first()
                            .map(|&s| flow.defs[s].name.clone())
                            .unwrap_or_else(|| "outer state".into());
                        facts.push(Fact {
                            f,
                            line: at,
                            message: format!(
                                "closure passed to Pool::map captures `{}`, a `&mut` borrow \
                                 of `{src}` — laundering the borrow through a binding does \
                                 not make the task self-contained",
                                def.name
                            ),
                        });
                    } else if cap.written {
                        facts.push(Fact {
                            f,
                            line: at,
                            message: format!(
                                "closure passed to Pool::map mutates captured `{}` — workers \
                                 race on shared state; return per-item results and merge in \
                                 the coordinator",
                                def.name
                            ),
                        });
                    }
                }
                // Coordinator-sink calls from inside the worker closure.
                let (lo, hi) = (toks[cl.body.0].line, toks[cl.body.1].line);
                for &(g2, l2) in &ws.edges[f] {
                    if reaches_sink[g2] && !pool_map.contains(&g2) && l2 >= lo && l2 <= hi {
                        facts.push(Fact {
                            f,
                            line: l2,
                            message: format!(
                                "closure passed to Pool::map calls `{}`, which reaches the \
                                 coordinator report/metrics sink — workers must not emit; \
                                 queue results for ordered replay",
                                ws.fns[g2].qualified
                            ),
                        });
                    }
                }
            }
        }
    }
    sort_dedup(&mut facts);
    for fact in &facts {
        let trace = root_trace(ws, &parent, fact.f);
        emit_fact(ws, sink, POOL_CODE, &[], fact, trace);
    }
}

// ---------------------------------------------------------------------
// DL016 — hot-path allocations
// ---------------------------------------------------------------------

/// Iterator adapters that lose the exact size hint, so a following
/// `collect()` grows geometrically instead of allocating once.
const SIZE_LOSING: [&str; 7] = [
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "chain",
    "take_while",
    "skip_while",
];

/// Mutating methods that grow a container.
const GROW_METHODS: [&str; 6] = [
    "push",
    "push_str",
    "extend",
    "extend_from_slice",
    "insert",
    "append",
];

fn alloc_entries(ws: &Workspace, mode: EntryMode) -> Vec<usize> {
    if mode == EntryMode::Roots {
        return roots(ws);
    }
    ws.fns
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            if n.is_test {
                return false;
            }
            let epoch_loop = n.crate_ident == "host"
                && matches!(
                    n.impl_ty.as_deref(),
                    Some("Engine") | Some("MultiSocketEngine")
                )
                && n.name.starts_with("run_epoch");
            let cache_set = n.crate_ident == "llc_sim" && n.impl_ty.as_deref() == Some("PackedSet");
            let policy_tick = n.trait_name.as_deref() == Some("CachePolicy") && n.name == "tick";
            epoch_loop || cache_set || policy_tick
        })
        .map(|(f, _)| f)
        .collect()
}

/// Crates whose reachable bodies contribute DL016 facts in Repo mode.
/// The control-plane crates (`resctrl`, `perf_events`) are DL017's
/// domain — their paths are I/O-bound, not perfbench-pinned.
fn alloc_fact_crate(cr: &str, mode: EntryMode) -> bool {
    if mode == EntryMode::Roots {
        return !fact_exempt_crate(cr);
    }
    matches!(cr, "host" | "llc_sim" | "dcat" | "dcat_bench" | "workloads")
}

/// Names of the adapters between a chain tail (e.g. `collect`) and its
/// receiver, walking the token chain backwards across lines.
fn chain_adapters_before(toks: &[Tok], tail: usize, bs: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = tail;
    while i > bs && toks[i - 1].is(".") {
        if i < 2 {
            break;
        }
        i -= 2; // skip the `.`; now at the token ending the previous link
        if toks[i].is(")") {
            // `(args)` group: rewind to its opener, then the callee name.
            let mut depth = 0i32;
            while i > bs {
                match toks[i].text.as_str() {
                    ")" => depth += 1,
                    "(" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                i -= 1;
            }
            if i > bs && toks[i - 1].kind == TokKind::Ident {
                i -= 1;
                out.push(toks[i].text.clone());
                continue;
            }
            break;
        } else if toks[i].kind == TokKind::Ident {
            // Field hop (`self.buf.iter()…`): keep walking.
            continue;
        }
        break;
    }
    out
}

pub(super) fn run_hot_alloc(ws: &Workspace, mode: EntryMode, sink: &mut Sink) {
    let entries = alloc_entries(ws, mode);
    if entries.is_empty() {
        return;
    }
    let parent = reach(ws, &entries);
    let mut facts: Vec<Fact> = Vec::new();
    for f in 0..ws.fns.len() {
        if parent[f].is_none() {
            continue;
        }
        let node = &ws.fns[f];
        if node.is_test
            || fact_exempt_crate(&node.crate_ident)
            || !alloc_fact_crate(&node.crate_ident, mode)
        {
            continue;
        }
        // (1) bindings that grow from Vec::new().
        if let Some(flow) = flow_of(ws, f) {
            for def in &flow.defs {
                let from_vec_new = def
                    .init_calls
                    .iter()
                    .any(|c| c == "Vec::new" || c.ends_with("::Vec::new"));
                let grows = def.uses.iter().any(
                    |u| matches!(&u.kind, UseKind::MutMethod(m) if GROW_METHODS.contains(&m.as_str())),
                );
                if from_vec_new && grows && !line_in_test(ws, f, def.line) {
                    facts.push(Fact {
                        f,
                        line: def.line,
                        message: format!(
                            "`{}` grows from Vec::new() on a perfbench-pinned path — reserve \
                             with with_capacity or reuse a scratch buffer (or annotate \
                             `lint: allow(DL016, reason)`)",
                            def.name
                        ),
                    });
                }
            }
        }
        // (2)–(4) token facts: size-losing collect, Box::new, format!.
        let item = ws.fn_item(f);
        let Some((bs, be)) = item.body else { continue };
        let toks = &ws.unit_of(f).parsed.tokens;
        let mut seen: BTreeSet<(usize, &'static str)> = BTreeSet::new();
        for i in bs..=be {
            let t = &toks[i];
            if t.kind != TokKind::Ident || line_in_test(ws, f, t.line) {
                continue;
            }
            let next_opens = toks.get(i + 1).is_some_and(|n| n.is("(") || n.is("::"));
            if t.is("collect") && i > bs && toks[i - 1].is(".") && next_opens {
                let adapters = chain_adapters_before(toks, i, bs);
                if adapters.iter().any(|a| SIZE_LOSING.contains(&a.as_str()))
                    && seen.insert((t.line, "collect"))
                {
                    facts.push(Fact {
                        f,
                        line: t.line,
                        message: ".collect() behind a size-losing adapter grows geometrically \
                                  on a perfbench-pinned path — count and reserve, or reuse a \
                                  buffer (or annotate `lint: allow(DL016, reason)`)"
                            .into(),
                    });
                }
            } else if t.is("new")
                && i >= bs + 2
                && toks[i - 1].is("::")
                && toks[i - 2].is("Box")
                && toks.get(i + 1).is_some_and(|n| n.is("("))
                && seen.insert((t.line, "box"))
            {
                facts.push(Fact {
                    f,
                    line: t.line,
                    message: "Box::new allocates per call on a perfbench-pinned path — hoist \
                              the allocation out of the hot loop (or annotate \
                              `lint: allow(DL016, reason)`)"
                        .into(),
                });
            } else if t.is("format")
                && toks.get(i + 1).is_some_and(|n| n.is("!"))
                && seen.insert((t.line, "format"))
            {
                facts.push(Fact {
                    f,
                    line: t.line,
                    message: "format! allocates a String on a perfbench-pinned path — \
                              precompute labels or write into a reused buffer (or annotate \
                              `lint: allow(DL016, reason)`)"
                        .into(),
                });
            }
        }
    }
    sort_dedup(&mut facts);
    for fact in &facts {
        let trace = root_trace(ws, &parent, fact.f);
        emit_fact(ws, sink, ALLOC_CODE, &[], fact, trace);
    }
}

// ---------------------------------------------------------------------
// DL017 — I/O error completeness
// ---------------------------------------------------------------------

/// Is fn `g` part of the I/O-classified fallible surface?
fn io_fallible(ws: &Workspace, g: usize) -> bool {
    let n = &ws.fns[g];
    if n.is_test {
        return false;
    }
    let Some(ret) = ws.fn_item(g).ret.as_ref() else {
        return false;
    };
    (matches!(n.crate_ident.as_str(), "resctrl" | "perf_events") && ret.contains("Result"))
        || ret.contains("ResctrlError")
}

pub(super) fn run_io_completeness(ws: &Workspace, _mode: EntryMode, sink: &mut Sink) {
    let fallible: Vec<bool> = (0..ws.fns.len()).map(|g| io_fallible(ws, g)).collect();
    // A method name is fallible-by-name when every workspace fn wearing
    // it is I/O-fallible — the escape hatch for field-receiver calls the
    // resolver cannot follow (`self.policy.tick(…)`).
    let mut by_name: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (g, n) in ws.fns.iter().enumerate() {
        if n.is_test {
            continue;
        }
        let e = by_name.entry(n.name.as_str()).or_insert((0, 0));
        e.0 += 1;
        if fallible[g] {
            e.1 += 1;
        }
    }
    let name_set: BTreeSet<&str> = by_name
        .iter()
        .filter(|(_, (total, hit))| *hit >= 1 && hit == total)
        .map(|(n, _)| *n)
        .collect();
    let parent = reach(ws, &roots(ws));
    let mut facts: Vec<Fact> = Vec::new();
    for f in 0..ws.fns.len() {
        let node = &ws.fns[f];
        if node.is_test || fact_exempt_crate(&node.crate_ident) {
            continue;
        }
        let unit = ws.unit_of(f);
        // Binaries own their exit path: a top-level expect in main is the
        // structured event.
        if unit.file.path.contains("/bin/") || unit.file.path.ends_with("main.rs") {
            continue;
        }
        let mut covered: BTreeSet<usize> = BTreeSet::new();
        let mut resolved_names: BTreeSet<&str> = BTreeSet::new();
        for &(g, line) in &ws.edges[f] {
            if !fallible[g] {
                continue;
            }
            resolved_names.insert(ws.fns[g].name.as_str());
            if line_in_test(ws, f, line) {
                continue;
            }
            let chain = unit.file.chain_text(line);
            if chain.contains(".unwrap()") || chain.contains(".expect(") {
                if covered.insert(line) {
                    facts.push(Fact {
                        f,
                        line,
                        message: format!(
                            "`{}` returns an I/O-classified Result; unwrap/expect skips \
                             severity() classification — match on severity, wrap in \
                             with_retries, or propagate",
                            ws.fns[g].name
                        ),
                    });
                }
            } else if line_starts_let_underscore(unit.file.lines.get(line - 1)) {
                if covered.insert(line) {
                    facts.push(Fact {
                        f,
                        line,
                        message: format!(
                            "Result from `{}` discarded with `let _ =` — classify its \
                             severity or emit a structured event before dropping it",
                            ws.fns[g].name
                        ),
                    });
                }
            }
        }
        // Two-hop shapes only dataflow sees: bound then discarded/unused.
        let flow = flow_of(ws, f);
        if let Some(flow) = &flow {
            // A tuple pattern binds several names from one initializer,
            // but the Result lands in only one of them; if any sibling
            // from the same `let` is consumed, assume it took the Result.
            let sibling_consumed = |d: &crate::dataflow::Def| {
                flow.defs.iter().any(|s| {
                    s.name != d.name
                        && s.kind == DefKind::Let
                        && s.line == d.line
                        && s.init_calls == d.init_calls
                        && s.uses.iter().any(|u| !matches!(u.kind, UseKind::Discard))
                })
            };
            for def in &flow.defs {
                if def.kind != DefKind::Let || line_in_test(ws, f, def.line) {
                    continue;
                }
                let from_fallible = def.init_calls.iter().any(|c| {
                    let tail = c.rsplit("::").next().unwrap_or(c);
                    resolved_names.contains(tail) || name_set.contains(tail)
                });
                if !from_fallible || sibling_consumed(def) {
                    continue;
                }
                if def.uses.is_empty() {
                    if covered.insert(def.line) {
                        facts.push(Fact {
                            f,
                            line: def.line,
                            message: format!(
                                "I/O Result bound to `{}` is never consumed — it must reach \
                                 severity() classification, a retry wrapper, or a structured \
                                 event",
                                def.name
                            ),
                        });
                    }
                } else if def.uses.iter().all(|u| matches!(u.kind, UseKind::Discard)) {
                    let at = def.uses[0].line;
                    if covered.insert(at) {
                        facts.push(Fact {
                            f,
                            line: at,
                            message: format!(
                                "I/O Result bound to `{}` and then discarded with `let _ =` — \
                                 the two-hop discard still loses the error; classify or \
                                 propagate it",
                                def.name
                            ),
                        });
                    }
                }
            }
        }
        // Name-set fallback for calls the resolver could not follow.
        for (n, line) in body_code_lines(ws, f) {
            if covered.contains(&n) {
                continue;
            }
            let Some(name) = name_set
                .iter()
                .find(|name| line.contains(&format!(".{name}(")))
            else {
                continue;
            };
            let chain = unit.file.chain_text(n);
            if chain.contains(".unwrap()") || chain.contains(".expect(") {
                covered.insert(n);
                facts.push(Fact {
                    f,
                    line: n,
                    message: format!(
                        "`.{name}(…)` resolves only to I/O-classified Results; unwrap/expect \
                         skips severity() classification — match on severity, wrap in \
                         with_retries, or propagate"
                    ),
                });
            } else if line.trim_start().starts_with("let _ =") {
                covered.insert(n);
                facts.push(Fact {
                    f,
                    line: n,
                    message: format!(
                        "Result from `.{name}(…)` discarded with `let _ =` — classify its \
                         severity or emit a structured event before dropping it"
                    ),
                });
            }
        }
        severity_wildcards(ws, f, flow.as_ref(), &mut facts);
    }
    sort_dedup(&mut facts);
    for fact in &facts {
        let trace = root_trace(ws, &parent, fact.f);
        emit_fact(ws, sink, IO_CODE, &["DL001"], fact, trace);
    }
}

fn line_starts_let_underscore(line: Option<&crate::lexer::Line>) -> bool {
    line.is_some_and(|l| {
        let t = l.scrubbed.trim_start();
        t.starts_with("let _ =") || t.starts_with("let _=")
    })
}

/// `_` wildcard arms in matches over `severity()` — directly
/// (`match e.severity() { … }`) or through a binding whose def-use chain
/// starts at a `severity()` call (`let sev = e.severity(); match sev`).
fn severity_wildcards(ws: &Workspace, f: usize, flow: Option<&FnFlow>, facts: &mut Vec<Fact>) {
    let item = ws.fn_item(f);
    let Some((bs, be)) = item.body else { return };
    let toks = &ws.unit_of(f).parsed.tokens;
    let severity_bound: BTreeSet<&str> = flow
        .map(|fl| {
            fl.defs
                .iter()
                .filter(|d| {
                    d.init_calls
                        .iter()
                        .any(|c| c.rsplit("::").next().unwrap_or(c) == "severity")
                })
                .map(|d| d.name.as_str())
                .collect()
        })
        .unwrap_or_default();
    let mut i = bs;
    while i <= be {
        if !toks[i].is_kw("match") {
            i += 1;
            continue;
        }
        // Scrutinee: tokens up to the first `{` at bracket depth 0.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut over_severity = false;
        while j <= be {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                _ => {}
            }
            if toks[j].is("severity")
                && toks[j - 1].is(".")
                && toks.get(j + 1).is_some_and(|t| t.is("("))
            {
                over_severity = true;
            }
            if toks[j].kind == TokKind::Ident && severity_bound.contains(toks[j].text.as_str()) {
                over_severity = true;
            }
            j += 1;
        }
        if j > be {
            break;
        }
        if !over_severity {
            i = j + 1;
            continue;
        }
        let close = matching(toks, j, be, "}");
        let mut d = 0i32;
        for k in j..=close {
            match toks[k].text.as_str() {
                "{" | "(" | "[" => d += 1,
                "}" | ")" | "]" => d -= 1,
                _ => {}
            }
            if d == 1
                && toks[k].is("_")
                && toks.get(k + 1).is_some_and(|t| t.is("=>"))
                && (toks[k - 1].is("{") || toks[k - 1].is(","))
                && !line_in_test(ws, f, toks[k].line)
            {
                facts.push(Fact {
                    f,
                    line: toks[k].line,
                    message: "wildcard arm in a severity() match — classify every \
                              ErrorSeverity explicitly so a new severity is a compile \
                              decision, not a silent fallthrough"
                        .into(),
                });
            }
        }
        i = close + 1;
    }
}

// ---------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------

use super::interproc::{expect_codes, fixture_ws, run_on};

/// The fixture Pool used by the DL015 self-tests: a typed receiver the
/// resolver follows, same shape as `host::pool::Pool::map`.
const POOL_SRC: &str = "pub struct Pool;\n\
     impl Pool {\n\
         pub fn map(&self, items: Vec<u64>, f: impl Fn(usize, u64) -> u64) -> Vec<u64> {\n\
             items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect()\n\
         }\n\
     }\n";

/// Runs every token-level pass on `src`; Err if any finding appears.
/// The seeded dataflow fixtures must be invisible to the v1/v2 passes.
fn assert_token_passes_miss(name: &str, src: &str) -> Result<(), String> {
    let file = super::lex(src);
    let mut sink = Sink::default();
    for code in super::FILE_PASS_CODES {
        super::run_pass(code, &file, &mut sink);
    }
    if sink.findings.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{name}: fixture must be invisible to the token passes, got {:?}",
            sink.findings
                .iter()
                .map(|f| format!("{} {}", f.code, f.message))
                .collect::<Vec<_>>()
        ))
    }
}

pub fn self_test() -> Result<(), String> {
    // DL015: a laundered `&mut` capture — the binding hides the borrow
    // from every token pass; only the def-use chain connects them.
    let laundered_entry = "pub fn entry(pool: &crate::pool::Pool) -> u64 {\n\
             let mut totals = 0u64;\n\
             let sink = &mut totals;\n\
             let out = pool.map(vec![1, 2, 3], |_i, x| { *sink += x; x });\n\
             let total: u64 = out.iter().copied().sum();\n\
             totals + total\n\
         }\n";
    expect_codes(
        "DL015 laundered &mut capture",
        &[("pool.rs", POOL_SRC), ("entry.rs", laundered_entry)],
        EntryMode::Roots,
        POOL_CODE,
        1,
    )?;
    assert_token_passes_miss("DL015 laundered &mut capture", laundered_entry)?;
    // Params-only closures and read-only Copy captures are the
    // sanctioned shape (fleet stepping, MultiSocketEngine::run_epoch).
    expect_codes(
        "DL015 clean worker",
        &[
            ("pool.rs", POOL_SRC),
            (
                "entry.rs",
                "pub fn entry(pool: &crate::pool::Pool, items: Vec<u64>) -> Vec<u64> {\n\
                     let epoch = 7u64;\n\
                     pool.map(items, |i, x| x + epoch + i as u64)\n\
                 }\n",
            ),
        ],
        EntryMode::Roots,
        POOL_CODE,
        0,
    )?;
    // Interior mutability smuggled into a worker task.
    expect_codes(
        "DL015 interior-mutability capture",
        &[
            ("pool.rs", POOL_SRC),
            (
                "entry.rs",
                "pub fn entry(pool: &crate::pool::Pool, items: Vec<u64>) -> Vec<u64> {\n\
                     let hits = RefCell::new(0u64);\n\
                     pool.map(items, |_i, x| { hits.borrow_mut(); x })\n\
                 }\n",
            ),
        ],
        EntryMode::Roots,
        POOL_CODE,
        1,
    )?;
    // A worker that calls into the coordinator's report sink.
    {
        let sources = vec![
            (
                "crates/bench/src/report.rs".to_string(),
                "pub fn say(line: &str) { let n = line.len(); assert!(n < 4096); }\n".to_string(),
            ),
            ("crates/bench/src/pool.rs".to_string(), POOL_SRC.to_string()),
            (
                "crates/bench/src/drive.rs".to_string(),
                "pub fn entry(pool: &crate::pool::Pool, items: Vec<u64>) -> Vec<u64> {\n\
                     pool.map(items, |_i, x| { crate::report::say(\"step\"); x })\n\
                 }\n"
                .to_string(),
            ),
        ];
        let mut idents = BTreeMap::new();
        idents.insert("bench".to_string(), "dcat_bench".to_string());
        let ws = Workspace::from_sources(&sources, &idents);
        let mut sink = Sink::default();
        run_pool_discipline(&ws, EntryMode::Roots, &mut sink);
        let got = sink.findings.iter().filter(|f| f.code == POOL_CODE).count();
        if got != 1 {
            return Err(format!(
                "DL015 coordinator sink: expected 1 finding, got {got}: {:?}",
                sink.findings
            ));
        }
    }

    // DL016: growth from Vec::new on a hot path…
    expect_codes(
        "DL016 Vec::new growth",
        &[(
            "a.rs",
            "pub fn entry(xs: &[u64]) -> Vec<u64> {\n\
                 let mut out = Vec::new();\n\
                 for x in xs {\n\
                     out.push(*x);\n\
                 }\n\
                 out\n\
             }\n",
        )],
        EntryMode::Roots,
        ALLOC_CODE,
        1,
    )?;
    // …while with_capacity is the sanctioned reservation.
    expect_codes(
        "DL016 with_capacity",
        &[(
            "a.rs",
            "pub fn entry(xs: &[u64]) -> Vec<u64> {\n\
                 let mut out = Vec::with_capacity(xs.len());\n\
                 for x in xs {\n\
                     out.push(*x);\n\
                 }\n\
                 out\n\
             }\n",
        )],
        EntryMode::Roots,
        ALLOC_CODE,
        0,
    )?;
    // Size-losing collect is flagged; exact-size collect single-allocates.
    expect_codes(
        "DL016 size-losing collect",
        &[(
            "a.rs",
            "pub fn entry(xs: &[u64]) -> Vec<u64> {\n\
                 xs.iter().filter(|x| **x > 0).copied().collect()\n\
             }\n",
        )],
        EntryMode::Roots,
        ALLOC_CODE,
        1,
    )?;
    expect_codes(
        "DL016 exact-size collect",
        &[(
            "a.rs",
            "pub fn entry(xs: &[u64]) -> Vec<u64> {\n\
                 xs.iter().map(|x| x + 1).collect()\n\
             }\n",
        )],
        EntryMode::Roots,
        ALLOC_CODE,
        0,
    )?;
    // Box::new and format! on the hot path.
    expect_codes(
        "DL016 box + format",
        &[(
            "a.rs",
            "pub fn entry(n: u64) -> Box<u64> {\n\
                 let label = format!(\"n={n}\");\n\
                 let w = label.len() as u64;\n\
                 Box::new(n + w)\n\
             }\n",
        )],
        EntryMode::Roots,
        ALLOC_CODE,
        2,
    )?;
    // The allow escape hatch.
    expect_codes(
        "DL016 allow",
        &[(
            "a.rs",
            "pub fn entry(xs: &[u64]) -> Vec<u64> {\n\
                 let mut out = Vec::new(); // lint: allow(DL016, one-shot setup outside the epoch loop)\n\
                 for x in xs {\n\
                     out.push(*x);\n\
                 }\n\
                 out\n\
             }\n",
        )],
        EntryMode::Roots,
        ALLOC_CODE,
        0,
    )?;

    // DL017: the two-hop discard — bound, then dropped. No unwrap text
    // anywhere, so the token passes have nothing to see.
    let two_hop = "pub struct ResctrlError;\n\
         fn poke() -> Result<u32, ResctrlError> {\n\
             Ok(3)\n\
         }\n\
         pub fn entry() {\n\
             let st = poke();\n\
             let _ = st;\n\
         }\n";
    expect_codes(
        "DL017 two-hop discard",
        &[("a.rs", two_hop)],
        EntryMode::Roots,
        IO_CODE,
        1,
    )?;
    assert_token_passes_miss("DL017 two-hop discard", two_hop)?;
    // Tuple destructure: the Result lands in `r`, which IS consumed;
    // the unused sibling `_aux` must not be mistaken for the Result.
    expect_codes(
        "DL017 tuple sibling consumed",
        &[(
            "a.rs",
            "pub struct ResctrlError;\n\
             fn poke() -> (Result<u32, ResctrlError>, u64) {\n\
                 (Ok(3), 7)\n\
             }\n\
             pub fn entry() -> u32 {\n\
                 let (r, _aux) = poke();\n\
                 match r {\n\
                     Ok(v) => v,\n\
                     Err(_e) => 0,\n\
                 }\n\
             }\n",
        )],
        EntryMode::Roots,
        IO_CODE,
        0,
    )?;
    // unwrap/expect on a resolved I/O Result.
    expect_codes(
        "DL017 expect",
        &[(
            "a.rs",
            "pub struct ResctrlError;\n\
             fn poke() -> Result<u32, ResctrlError> {\n\
                 Ok(3)\n\
             }\n\
             pub fn entry() -> u32 {\n\
                 poke().expect(\"resctrl poke\")\n\
             }\n",
        )],
        EntryMode::Roots,
        IO_CODE,
        1,
    )?;
    // Propagation and explicit matching are the sanctioned shapes.
    expect_codes(
        "DL017 handled",
        &[(
            "a.rs",
            "pub struct ResctrlError;\n\
             fn poke() -> Result<u32, ResctrlError> {\n\
                 Ok(3)\n\
             }\n\
             pub fn entry() -> u32 {\n\
                 match poke() {\n\
                     Ok(v) => v,\n\
                     Err(e) => {\n\
                         drop(e);\n\
                         0\n\
                     }\n\
                 }\n\
             }\n\
             pub fn entry2() -> Result<u32, ResctrlError> {\n\
                 let v = poke()?;\n\
                 Ok(v)\n\
             }\n",
        )],
        EntryMode::Roots,
        IO_CODE,
        0,
    )?;
    // Field-receiver call the resolver cannot follow: caught by the
    // fallible-name fallback.
    expect_codes(
        "DL017 field-receiver fallback",
        &[(
            "a.rs",
            "pub struct ResctrlError;\n\
             pub struct P;\n\
             impl P {\n\
                 pub fn tick(&self) -> Result<u32, ResctrlError> {\n\
                     Ok(1)\n\
                 }\n\
             }\n\
             pub struct Q;\n\
             impl Q {\n\
                 pub fn tick(&self) -> Result<u32, ResctrlError> {\n\
                     Ok(2)\n\
                 }\n\
             }\n\
             pub struct H {\n\
                 p: P,\n\
             }\n\
             impl H {\n\
                 pub fn step(&mut self) -> u32 {\n\
                     self.p.tick().expect(\"policy tick\")\n\
                 }\n\
             }\n",
        )],
        EntryMode::Roots,
        IO_CODE,
        1,
    )?;
    // Wildcard severity arms — direct…
    expect_codes(
        "DL017 severity wildcard",
        &[(
            "a.rs",
            "pub enum Sev { Fatal, Transient }\n\
             pub struct E;\n\
             impl E {\n\
                 pub fn severity(&self) -> Sev {\n\
                     Sev::Fatal\n\
                 }\n\
             }\n\
             pub fn entry(e: &E) -> u32 {\n\
                 match e.severity() {\n\
                     Sev::Fatal => 1,\n\
                     _ => 0,\n\
                 }\n\
             }\n",
        )],
        EntryMode::Roots,
        IO_CODE,
        1,
    )?;
    // …and through a binding only the def-use chain ties to severity().
    expect_codes(
        "DL017 severity wildcard via binding",
        &[(
            "a.rs",
            "pub enum Sev { Fatal, Transient }\n\
             pub struct E;\n\
             impl E {\n\
                 pub fn severity(&self) -> Sev {\n\
                     Sev::Fatal\n\
                 }\n\
             }\n\
             pub fn entry(e: &E) -> u32 {\n\
                 let sev = e.severity();\n\
                 match sev {\n\
                     Sev::Fatal => 1,\n\
                     _ => 0,\n\
                 }\n\
             }\n",
        )],
        EntryMode::Roots,
        IO_CODE,
        1,
    )?;
    // Exhaustive severity matches are the contract.
    expect_codes(
        "DL017 exhaustive severity",
        &[(
            "a.rs",
            "pub enum Sev { Fatal, Transient }\n\
             pub struct E;\n\
             impl E {\n\
                 pub fn severity(&self) -> Sev {\n\
                     Sev::Fatal\n\
                 }\n\
             }\n\
             pub fn entry(e: &E) -> u32 {\n\
                 match e.severity() {\n\
                     Sev::Fatal => 1,\n\
                     Sev::Transient => 0,\n\
                 }\n\
             }\n",
        )],
        EntryMode::Roots,
        IO_CODE,
        0,
    )?;
    // Keep the shared fixture machinery honest: a clean multi-pass run.
    let sink = run_on(
        &[("a.rs", "pub fn entry() -> u64 { 7 }\n")],
        EntryMode::Roots,
    );
    if !sink.findings.is_empty() {
        return Err(format!(
            "flow self-test: trivial fixture must be clean, got {:?}",
            sink.findings
        ));
    }
    let _ = fixture_ws(&[("a.rs", "pub fn entry() {}\n")]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        self_test().unwrap();
    }
}
