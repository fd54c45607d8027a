//! Intraprocedural value flow over function-body token streams — the
//! part DL014's suffix-free unit propagation reads.
//!
//! The workspace model (`tokens.rs` → `parse.rs` → `model.rs`) stops at
//! the function boundary: it knows a body's *calls* and a flat name→type
//! map of its locals, but not how values move **inside** the body.
//! [`FnFlow::analyze`] adds that with one linear walk of the body tokens:
//!
//! * every binding (`fn` param, `let` / `let`-else / `if let` pattern,
//!   `for` pattern) becomes a [`Def`], scoped by the real brace structure,
//!   so shadowing creates a *new* def instead of mutating the old one;
//! * a def records what its initializer *read* — the defs it copies or
//!   borrows from ([`Def::init_reads`]) and whether it called anything
//!   ([`Def::init_calls`]);
//! * a later assignment to the binding or a `&mut` borrow of it sets
//!   [`Def::written`].
//!
//! Like the item parser, this is a loss-tolerant recognizer, not an
//! expression grammar: match-arm and closure-parameter bindings are not
//! tracked (a mention of one that shadows an outer def is attributed to
//! the outer def). That can only cost precision on exotic shapes, never
//! silence a self-test-pinned finding.

use crate::tokens::{Tok, TokKind};
use std::collections::BTreeMap;

/// One binding and what is known about its value.
#[derive(Debug, Clone)]
pub struct Def {
    /// Binding name.
    pub name: String,
    /// The initializer called something (`Vec::new`, `scale(..)`, a
    /// method) — a call may convert, so the value's origin is unknown.
    pub init_calls: bool,
    /// Defs the initializer read (value flows from them into this def).
    pub init_reads: Vec<usize>,
    /// Assigned (`x = …`, `x += …`, `x.field = …`) or borrowed `&mut`
    /// after it was bound.
    pub written: bool,
}

/// The bindings of one function body, in declaration order.
#[derive(Debug, Default)]
pub struct FnFlow {
    pub defs: Vec<Def>,
}

/// Compound and plain assignment operators (as single tokens).
fn is_assign_op(t: &Tok) -> bool {
    t.kind == TokKind::Punct
        && matches!(
            t.text.as_str(),
            "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "|=" | "<<="
        )
}

fn is_rust_kw(t: &Tok) -> bool {
    [
        "in", "return", "match", "if", "else", "for", "while", "loop", "break", "continue", "move",
        "ref", "mut", "as", "let", "fn", "impl", "struct", "enum", "trait", "use", "pub", "where",
        "self", "Self", "crate", "super", "static", "const", "unsafe", "dyn", "true", "false",
        "await",
    ]
    .iter()
    .any(|k| t.is_kw(k))
}

/// Defs whose initializer is still being walked; they become visible at
/// token `bind_at` (the statement's `;`, or the block's `{`).
struct Pending {
    def_ids: Vec<usize>,
    bind_at: usize,
}

struct Walker<'a> {
    toks: &'a [Tok],
    flow: FnFlow,
    visible: BTreeMap<String, Vec<usize>>,
    /// One entry per open brace: the names bound inside it.
    scopes: Vec<Vec<String>>,
    pendings: Vec<Pending>,
}

impl FnFlow {
    /// Analyzes one body token range (`body` as produced by the item
    /// parser: inclusive indices, braces excluded) given the fn's
    /// parameter list.
    pub fn analyze(toks: &[Tok], body: (usize, usize), params: &[(String, String)]) -> FnFlow {
        let mut w = Walker {
            toks,
            flow: FnFlow::default(),
            visible: BTreeMap::new(),
            scopes: vec![Vec::new()],
            pendings: Vec::new(),
        };
        for (name, _) in params {
            let id = w.new_def(name.clone());
            w.bind(id);
        }
        w.walk(body);
        w.flow
    }
}

impl Walker<'_> {
    fn new_def(&mut self, name: String) -> usize {
        self.flow.defs.push(Def {
            name,
            init_calls: false,
            init_reads: Vec::new(),
            written: false,
        });
        self.flow.defs.len() - 1
    }

    fn bind(&mut self, id: usize) {
        let name = self.flow.defs[id].name.clone();
        self.visible.entry(name.clone()).or_default().push(id);
        if let Some(bound) = self.scopes.last_mut() {
            bound.push(name);
        }
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        self.visible.get(name).and_then(|s| s.last().copied())
    }

    /// The defs of the innermost pending initializer covering token `i`.
    fn active_pending(&self, i: usize) -> Vec<usize> {
        self.pendings
            .iter()
            .filter(|p| p.bind_at > i)
            .min_by_key(|p| p.bind_at)
            .map(|p| p.def_ids.clone())
            .unwrap_or_default()
    }

    /// A mention of `def` at token `i`: inside an active initializer it
    /// feeds the pending defs' value flow (reads copy, borrows alias).
    fn record_use(&mut self, def: usize, i: usize, write: bool) {
        self.flow.defs[def].written |= write;
        for t in self.active_pending(i) {
            if t != def && !self.flow.defs[t].init_reads.contains(&def) {
                self.flow.defs[t].init_reads.push(def);
            }
        }
    }

    fn record_call(&mut self, i: usize) {
        for t in self.active_pending(i) {
            self.flow.defs[t].init_calls = true;
        }
    }

    /// Index of the matching close for the opener at `open`, scanning
    /// `( ) [ ] { }` only.
    fn matching(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i <= end {
            match self.toks[i].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// First index in `from..=end` holding `what` at bracket depth 0.
    fn at_depth0(&self, from: usize, end: usize, what: &[&str]) -> Option<usize> {
        let mut depth = 0i32;
        let mut i = from;
        while i <= end {
            let t = &self.toks[i].text;
            if depth == 0 && what.iter().any(|w| t == w) {
                return Some(i);
            }
            match t.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return None;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            i += 1;
        }
        None
    }

    fn walk(&mut self, body: (usize, usize)) {
        let (start, end) = body;
        let mut i = start;
        while i <= end && i < self.toks.len() {
            let t = &self.toks[i];
            if t.is("{") {
                self.scopes.push(Vec::new());
                self.bind_pendings_at(i);
                i += 1;
            } else if t.is("}") {
                for name in self.scopes.pop().unwrap_or_default() {
                    if let Some(stack) = self.visible.get_mut(&name) {
                        stack.pop();
                    }
                }
                if self.scopes.is_empty() {
                    self.scopes.push(Vec::new());
                }
                i += 1;
            } else if t.is_kw("let") {
                i = self.handle_let(i, end);
            } else if t.is_kw("for") {
                i = self.handle_for(i, end);
            } else if t.kind == TokKind::Ident && !is_rust_kw(t) && !t.raw_ident {
                i = self.handle_ident(i, end);
            } else {
                if t.is(";") {
                    self.bind_pendings_at(i);
                }
                i += 1;
            }
        }
    }

    /// A binding-free pattern (`let _ = …`) opens no initializer of its
    /// own: what it reads still feeds the enclosing one.
    fn push_pending(&mut self, def_ids: Vec<usize>, bind_at: usize) {
        if !def_ids.is_empty() {
            self.pendings.push(Pending { def_ids, bind_at });
        }
    }

    fn bind_pendings_at(&mut self, i: usize) {
        let mut ready: Vec<usize> = Vec::new();
        self.pendings.retain(|p| {
            if p.bind_at == i {
                ready.extend(p.def_ids.iter().copied());
                false
            } else {
                true
            }
        });
        for id in ready {
            self.bind(id);
        }
    }

    /// Defs for the binding idents of a pattern region.
    fn pattern_defs(&mut self, from: usize, to: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for i in from..=to {
            let t = &self.toks[i];
            if t.kind == TokKind::Ident
                && !is_rust_kw(t)
                && !t.text.starts_with(char::is_uppercase)
                && t.text != "_"
                // Path segments (`mod::Variant`) and struct-pattern field
                // names (`Point { x: px }` — `x` is not a binding) skip.
                && !(i < to && (self.toks[i + 1].is("::") || self.toks[i + 1].is(":")))
                && !(i > from && self.toks[i - 1].is("::"))
            {
                out.push(self.new_def(t.text.clone()));
            }
        }
        out
    }

    /// `let [mut] PAT [: TY] [= INIT [else { … }]] ;` — creates pending
    /// defs bound at the statement end and returns the resume index
    /// (just after the pattern/type, so the initializer is walked by the
    /// main loop).
    fn handle_let(&mut self, i: usize, end: usize) -> usize {
        let in_cond = i > 0 && (self.toks[i - 1].is_kw("if") || self.toks[i - 1].is_kw("while"));
        let Some(stop) = self.at_depth0(i + 1, end, &[":", "=", ";"]) else {
            return i + 1;
        };
        let eq = if self.toks[stop].is(":") {
            let Some(after_ty) = self.at_depth0(stop + 1, end, &["=", ";"]) else {
                return stop + 1;
            };
            after_ty
        } else {
            stop
        };
        let def_ids = self.pattern_defs(i + 1, stop.saturating_sub(1));
        if self.toks[eq].is(";") {
            // `let x;` — deferred init; bind immediately.
            for id in def_ids {
                self.bind(id);
            }
            return eq + 1;
        }
        let closer = if in_cond { "{" } else { ";" };
        let bind_at = self.at_depth0(eq + 1, end, &[closer]).unwrap_or(end);
        self.push_pending(def_ids, bind_at);
        eq + 1
    }

    /// `for PAT in EXPR { … }` — pattern defs bind at the block brace.
    fn handle_for(&mut self, i: usize, end: usize) -> usize {
        let Some(kw_in) = self.at_depth0(i + 1, end, &["in"]) else {
            return i + 1;
        };
        let def_ids = self.pattern_defs(i + 1, kw_in.saturating_sub(1));
        let bind_at = self.at_depth0(kw_in + 1, end, &["{"]).unwrap_or(end);
        self.push_pending(def_ids, bind_at);
        kw_in + 1
    }

    /// A (possibly resolvable) identifier mention: classify it via the
    /// token chain that follows, and note calls for pending initializers.
    fn handle_ident(&mut self, i: usize, end: usize) -> usize {
        let toks = self.toks;
        let next_is = |k: usize, s: &str| k < end && toks[k + 1].is(s);
        // Path segment or macro: not a local mention.
        if (i > 0 && self.toks[i - 1].is("::")) || next_is(i, "!") {
            return i + 1;
        }
        if next_is(i, "::") {
            // Head of a path (`Vec::new`, `mod::f`): a call if the path
            // ends in `(…)`.
            let mut j = i;
            while j + 2 <= end
                && self.toks[j + 1].is("::")
                && self.toks[j + 2].kind == TokKind::Ident
            {
                j += 2;
            }
            if next_is(j, "(") {
                self.record_call(i);
            }
            return j + 1;
        }
        // Method name (preceded by `.`), or a free fn that is no local.
        let method = i > 0 && self.toks[i - 1].is(".");
        // Struct-literal field name / type ascription: skip.
        if !method && next_is(i, ":") {
            return i + 1;
        }
        let def = if method {
            None
        } else {
            self.lookup(&self.toks[i].text)
        };
        let Some(def) = def else {
            if next_is(i, "(") {
                self.record_call(i);
            }
            return i + 1;
        };
        // `&mut x` — a mutable borrow of the binding.
        if i >= 2 && self.toks[i - 1].is_kw("mut") && self.toks[i - 2].is("&") {
            self.record_use(def, i, true);
            return i + 1;
        }
        // Walk the access chain: fields, indexing, then the verdict.
        let mut j = i + 1;
        while j <= end {
            if self.toks[j].is(".") && j < end && self.toks[j + 1].kind == TokKind::Ident {
                if next_is(j + 1, "(") {
                    // Receiver of a method call.
                    self.record_use(def, i, false);
                    return i + 1;
                }
                j += 2;
            } else if self.toks[j].is("[") {
                j = self.matching(j, end) + 1;
            } else {
                break;
            }
        }
        let write = j <= end && is_assign_op(&self.toks[j]);
        self.record_use(def, i, write);
        i + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;
    use crate::parse::parse_file;

    fn flow_of(src: &str, fn_name: &str) -> FnFlow {
        let (scrubbed, _) = scrub(src);
        let parsed = parse_file(&scrubbed);
        let f = parsed
            .fns
            .iter()
            .find(|f| f.name == fn_name)
            .unwrap_or_else(|| panic!("fixture must define {fn_name}"));
        let body = f.body.expect("fixture fn must have a body");
        FnFlow::analyze(&parsed.tokens, body, &f.params)
    }

    /// Names of the defs `name`'s (last) initializer read.
    fn reads_of(flow: &FnFlow, name: &str) -> Vec<(usize, String)> {
        let def = flow.defs.iter().rfind(|d| d.name == name).unwrap();
        def.init_reads
            .iter()
            .map(|&r| (r, flow.defs[r].name.clone()))
            .collect()
    }

    fn positions(flow: &FnFlow, name: &str) -> Vec<usize> {
        (0..flow.defs.len())
            .filter(|&d| flow.defs[d].name == name)
            .collect()
    }

    #[test]
    fn shadowing_creates_a_second_def_and_splits_reads() {
        let flow = flow_of(
            "fn f() -> u64 {\n\
                 let x = seed();\n\
                 let a = x;\n\
                 let x = 3u64;\n\
                 let b = x;\n\
                 a + b\n\
             }\n\
             fn seed() -> u64 { 7 }\n",
            "f",
        );
        let xs = positions(&flow, "x");
        assert_eq!(xs.len(), 2, "shadowing must mint a new def");
        assert!(flow.defs[xs[0]].init_calls, "first x came out of seed()");
        assert!(!flow.defs[xs[1]].init_calls);
        // `a` copies from the FIRST x; `b` from the SECOND.
        assert_eq!(reads_of(&flow, "a"), vec![(xs[0], "x".to_string())]);
        assert_eq!(reads_of(&flow, "b"), vec![(xs[1], "x".to_string())]);
    }

    #[test]
    fn block_scoped_shadow_unbinds_at_the_brace() {
        let flow = flow_of(
            "fn f() -> u64 {\n\
                 let x = 1u64;\n\
                 { let x = 2u64; drop(x); }\n\
                 let y = x;\n\
                 y\n\
             }\n",
            "f",
        );
        let xs = positions(&flow, "x");
        assert_eq!(xs.len(), 2);
        assert_eq!(
            reads_of(&flow, "y"),
            vec![(xs[0], "x".to_string())],
            "after the block the name resolves to the outer def again"
        );
    }

    #[test]
    fn let_else_binds_in_the_outer_scope_not_the_else_block() {
        let flow = flow_of(
            "fn f(v: Option<u32>) -> u32 {\n\
                 let Some(x) = v else { return 0; };\n\
                 let y = x;\n\
                 y + 1\n\
             }\n",
            "f",
        );
        assert_eq!(reads_of(&flow, "x"), vec![(0, "v".to_string())]);
        let x = positions(&flow, "x")[0];
        assert_eq!(reads_of(&flow, "y"), vec![(x, "x".to_string())]);
    }

    #[test]
    fn assignments_and_mut_borrows_mark_the_def_written() {
        let flow = flow_of(
            "fn f(items: Vec<u32>) -> u32 {\n\
                 let mut acc = 0;\n\
                 let mut totals = 0u32;\n\
                 let kept = 5u32;\n\
                 for it in items {\n\
                     acc += it;\n\
                 }\n\
                 if let Some(first) = probe() {\n\
                     acc += first;\n\
                 }\n\
                 let sink = &mut totals;\n\
                 consume(sink);\n\
                 acc + kept\n\
             }\n\
             fn probe() -> Option<u32> { None }\n\
             fn consume(_s: &mut u32) {}\n",
            "f",
        );
        let written = |name: &str| flow.defs[positions(&flow, name)[0]].written;
        assert!(written("acc"));
        assert!(written("totals"), "`&mut totals` counts as a write");
        assert!(!written("kept"));
        assert!(!written("it"), "the loop binding is only read");
        let totals = positions(&flow, "totals")[0];
        assert_eq!(
            reads_of(&flow, "sink"),
            vec![(totals, "totals".to_string())]
        );
        assert!(flow.defs[positions(&flow, "first")[0]].init_calls);
    }
}
