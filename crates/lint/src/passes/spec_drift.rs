//! DL010 — spec drift between `FIGURE6` and DESIGN.md.
//!
//! The Figure 6 state machine exists twice: as the `FIGURE6` rule-table
//! literal in `dcat/src/transitions.rs` (the code the controller runs)
//! and as the machine-readable table in DESIGN.md between
//! `<!-- figure6:begin -->` / `<!-- figure6:end -->` markers (the
//! documentation reviewers audit against the paper). This pass parses
//! both and diffs them rule by rule so they cannot silently diverge.
//!
//! The doc grammar, one rule per line inside the marked block (code
//! fences and blank lines ignored):
//!
//! ```text
//! rule N: FROM -> TO [stall] when GUARD
//! ```
//!
//! `FROM` is a class name or `any` (a `from: None` row); `TO` is a
//! class name; `[stall]` marks `records_stall: true`; `GUARD` is the
//! guard closure body with the `|o|`/`|_|` head stripped and
//! whitespace collapsed, or `always` for `|_| true`.

use crate::diagnostics::{Finding, Sink};
use crate::lexer;

pub const CODE: &str = "DL010";

/// One Figure-6 edge in normalized form, from either source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSpec {
    pub from: String,
    pub to: String,
    pub stall: bool,
    pub guard: String,
    /// 1-based line in the originating file.
    pub line: usize,
}

impl RuleSpec {
    fn render(&self) -> String {
        let stall = if self.stall { " [stall]" } else { "" };
        format!("{} -> {}{} when {}", self.from, self.to, stall, self.guard)
    }
}

/// Diffs the code table against the doc table, emitting findings into
/// `sink`. `transitions_text` is raw source (it is scrubbed here so the
/// `edge:` strings and comments cannot confuse the field parser).
pub fn run(
    transitions_text: &str,
    transitions_path: &str,
    design_text: &str,
    design_path: &str,
    sink: &mut Sink,
) {
    let scrubbed = lexer::scrub(transitions_text).0;
    let code = match parse_code_rules(&scrubbed) {
        Ok(r) => r,
        Err(e) => {
            sink.emit_raw(drift(
                transitions_path,
                1,
                format!("cannot parse FIGURE6: {e}"),
                "",
            ));
            return;
        }
    };
    let doc = match parse_doc_rules(design_text) {
        Ok(r) => r,
        Err(e) => {
            sink.emit_raw(drift(
                design_path,
                1,
                format!("cannot parse the figure6 doc table: {e}"),
                "",
            ));
            return;
        }
    };
    if code.len() != doc.len() {
        sink.emit_raw(drift(
            design_path,
            doc.first().map(|r| r.line).unwrap_or(1),
            format!(
                "FIGURE6 has {} rules but the doc table lists {} (the tables must \
                 stay row-for-row identical)",
                code.len(),
                doc.len()
            ),
            "",
        ));
    }
    for (i, (c, d)) in code.iter().zip(doc.iter()).enumerate() {
        if (c.from.as_str(), c.to.as_str(), c.stall, c.guard.as_str())
            != (d.from.as_str(), d.to.as_str(), d.stall, d.guard.as_str())
        {
            sink.emit_raw(drift(
                design_path,
                d.line,
                format!(
                    "figure6 rule {} drifted: code says `{}` ({}:{}), doc says `{}`",
                    i + 1,
                    c.render(),
                    transitions_path,
                    c.line,
                    d.render()
                ),
                &format!("rule {}: {}", i + 1, d.render()),
            ));
        }
    }
}

fn drift(path: &str, line: usize, message: String, snippet: &str) -> Finding {
    Finding {
        code: CODE,
        path: path.to_string(),
        line,
        message,
        snippet: snippet.to_string(),
    }
}

/// Parses the `FIGURE6` const literal out of scrubbed transitions source.
pub fn parse_code_rules(scrubbed: &str) -> Result<Vec<RuleSpec>, String> {
    let anchor = scrubbed.find("FIGURE6").ok_or("no FIGURE6 symbol")?;
    // Skip the `: &[Rule]` type annotation: the table literal starts at
    // the first `[` after the `=`.
    let eq = scrubbed[anchor..]
        .find('=')
        .map(|i| anchor + i)
        .ok_or("no `=` after FIGURE6")?;
    let open = scrubbed[eq..]
        .find('[')
        .map(|i| eq + i)
        .ok_or("no `[` after FIGURE6 =")?;
    let mut depth = 0usize;
    let mut close = None;
    for (i, c) in scrubbed[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(open + i);
                    break;
                }
            }
            _ => {}
        }
    }
    let close = close.ok_or("unclosed FIGURE6 table")?;
    let body = &scrubbed[open + 1..close];
    let body_offset = open + 1;

    let mut rules = Vec::new();
    let mut cursor = 0usize;
    while let Some(rel) = body[cursor..].find("Rule {") {
        let rule_start = cursor + rel;
        let brace = rule_start + "Rule ".len();
        let mut depth = 0usize;
        let mut end = None;
        for (i, c) in body[brace..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(brace + i);
                        break;
                    }
                }
                _ => {}
            }
        }
        let end = end.ok_or("unclosed Rule literal")?;
        let fields_text = &body[brace + 1..end];
        let line = 1 + scrubbed[..body_offset + rule_start].matches('\n').count();
        rules.push(parse_rule_fields(fields_text, line)?);
        cursor = end + 1;
    }
    if rules.is_empty() {
        return Err("FIGURE6 contains no Rule literals".into());
    }
    Ok(rules)
}

/// Parses one `Rule { … }` body (already brace-stripped, scrubbed).
fn parse_rule_fields(text: &str, line: usize) -> Result<RuleSpec, String> {
    let mut from = None;
    let mut to = None;
    let mut stall = None;
    let mut guard = None;
    for field in split_top_level_commas(text) {
        let field = field.trim();
        if field.is_empty() {
            continue;
        }
        let Some((name, value)) = field.split_once(':') else {
            return Err(format!("rule at line {line}: field without `:`: `{field}`"));
        };
        let value = collapse_ws(value.trim());
        match name.trim() {
            "from" => {
                from = Some(if value == "None" {
                    "any".to_string()
                } else {
                    value
                        .strip_prefix("Some(WorkloadClass::")
                        .and_then(|v| v.strip_suffix(')'))
                        .ok_or(format!("rule at line {line}: unparseable from `{value}`"))?
                        .to_string()
                });
            }
            "to" => {
                to = Some(
                    value
                        .strip_prefix("WorkloadClass::")
                        .ok_or(format!("rule at line {line}: unparseable to `{value}`"))?
                        .to_string(),
                );
            }
            "records_stall" => {
                stall = Some(match value.as_str() {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("rule at line {line}: records_stall `{other}`")),
                });
            }
            "when" => {
                let body = value
                    .strip_prefix("|_|")
                    .or_else(|| value.strip_prefix("|o|"))
                    .unwrap_or(&value)
                    .trim();
                guard = Some(if body == "true" {
                    "always".to_string()
                } else {
                    collapse_ws(body)
                });
            }
            "edge" => {} // a string, scrubbed to spaces; the doc table is the prose
            other => return Err(format!("rule at line {line}: unknown field `{other}`")),
        }
    }
    Ok(RuleSpec {
        from: from.ok_or(format!("rule at line {line}: missing from"))?,
        to: to.ok_or(format!("rule at line {line}: missing to"))?,
        stall: stall.ok_or(format!("rule at line {line}: missing records_stall"))?,
        guard: guard.ok_or(format!("rule at line {line}: missing when"))?,
        line,
    })
}

/// Splits on commas at paren/brace/bracket depth zero.
fn split_top_level_commas(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&text[start..]);
    out
}

fn collapse_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Parses the marked doc table out of DESIGN.md.
pub fn parse_doc_rules(design_text: &str) -> Result<Vec<RuleSpec>, String> {
    const BEGIN: &str = "<!-- figure6:begin -->";
    const END: &str = "<!-- figure6:end -->";
    let mut rules = Vec::new();
    let mut inside = false;
    let mut seen_block = false;
    for (i, line) in design_text.lines().enumerate() {
        let t = line.trim();
        if t == BEGIN {
            inside = true;
            seen_block = true;
            continue;
        }
        if t == END {
            inside = false;
            continue;
        }
        if !inside || t.is_empty() || t.starts_with("```") {
            continue;
        }
        let rest = t.strip_prefix("rule ").ok_or(format!(
            "line {}: doc rule must start with `rule N:`",
            i + 1
        ))?;
        let (num, rest) = rest
            .split_once(':')
            .ok_or(format!("line {}: missing `:` after rule number", i + 1))?;
        let num: usize = num
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad rule number `{num}`", i + 1))?;
        if num != rules.len() + 1 {
            return Err(format!(
                "line {}: rule numbered {num}, expected {}",
                i + 1,
                rules.len() + 1
            ));
        }
        let (lhs, guard) = rest
            .split_once(" when ")
            .ok_or(format!("line {}: missing ` when ` clause", i + 1))?;
        let (from, to_part) = lhs
            .split_once("->")
            .ok_or(format!("line {}: missing `->`", i + 1))?;
        let mut to = to_part.trim();
        let stall = to.ends_with("[stall]");
        if stall {
            to = to.trim_end_matches("[stall]").trim_end();
        }
        rules.push(RuleSpec {
            from: from.trim().to_string(),
            to: to.to_string(),
            stall,
            guard: collapse_ws(guard.trim()),
            line: i + 1,
        });
    }
    if !seen_block {
        return Err("no `<!-- figure6:begin -->` block".into());
    }
    if rules.is_empty() {
        return Err("the figure6 block lists no rules".into());
    }
    Ok(rules)
}

/// Renders the doc table body that matches `scrubbed` transitions source
/// (used by `--write-figure6` style tooling and the self-test).
pub fn render_doc_table(code: &[RuleSpec]) -> String {
    let mut out = String::new();
    for (i, r) in code.iter().enumerate() {
        out.push_str(&format!("rule {}: {}\n", i + 1, r.render()));
    }
    out
}

const FIXTURE_CODE: &str = r#"
pub const FIGURE6: &[Rule] = &[
    Rule {
        from: Some(WorkloadClass::Reclaim),
        when: |_| true,
        to: WorkloadClass::Keeper,
        records_stall: false,
        edge: "Reclaim -> Keeper: re-measured",
    },
    Rule {
        from: None,
        when: |o| o.low_llc_use,
        to: WorkloadClass::Donor,
        records_stall: false,
        edge: "any -> Donor (fast)",
    },
    Rule {
        from: Some(WorkloadClass::Unknown),
        when: |o| o.improvement == ImprovementSignal::Stalled && o.ever_improved,
        to: WorkloadClass::Keeper,
        records_stall: true,
        edge: "Unknown -> Keeper",
    },
];
"#;

const FIXTURE_DOC_OK: &str = "\
<!-- figure6:begin -->\n\
```text\n\
rule 1: Reclaim -> Keeper when always\n\
rule 2: any -> Donor when o.low_llc_use\n\
rule 3: Unknown -> Keeper [stall] when o.improvement == ImprovementSignal::Stalled && o.ever_improved\n\
```\n\
<!-- figure6:end -->\n";

pub fn self_test() -> Result<(), String> {
    let check = |doc: &str| {
        let mut sink = Sink::default();
        run(FIXTURE_CODE, "transitions.rs", doc, "DESIGN.md", &mut sink);
        sink.findings.len()
    };
    if check(FIXTURE_DOC_OK) != 0 {
        return Err("DL010 self-test: matching tables reported drift".into());
    }
    let drifted = FIXTURE_DOC_OK.replace("any -> Donor", "any -> Keeper");
    if check(&drifted) == 0 {
        return Err("DL010 self-test: destination drift went undetected".into());
    }
    let destalled = FIXTURE_DOC_OK.replace(" [stall]", "");
    if check(&destalled) == 0 {
        return Err("DL010 self-test: stall-flag drift went undetected".into());
    }
    let truncated = FIXTURE_DOC_OK.replace(
        "rule 3: Unknown -> Keeper [stall] when o.improvement == ImprovementSignal::Stalled && o.ever_improved\n",
        "",
    );
    if check(&truncated) == 0 {
        return Err("DL010 self-test: missing doc row went undetected".into());
    }
    if check("no block here at all") == 0 {
        return Err("DL010 self-test: absent doc block went undetected".into());
    }
    let parsed = parse_code_rules(&lexer::scrub(FIXTURE_CODE).0)
        .map_err(|e| format!("DL010 self-test: fixture unparseable: {e}"))?;
    if parsed.len() != 3 || !parsed[2].stall || parsed[1].from != "any" {
        return Err("DL010 self-test: code parse normalized wrongly".into());
    }
    Ok(())
}
