//! Findings, suppression-aware emission, and human/JSON rendering.

use crate::lexer::SourceFile;

/// One diagnostic produced by a pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable code, `DL000`…`DL010`.
    pub code: &'static str,
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
    /// Trimmed source line, truncated.
    pub snippet: String,
}

impl Finding {
    pub fn render_human(&self) -> String {
        format!(
            "{} {}:{}: {}\n    > {}",
            self.code, self.path, self.line, self.message, self.snippet
        )
    }
}

/// Collects findings from passes, routing suppressed ones aside.
#[derive(Debug, Default)]
pub struct Sink {
    pub findings: Vec<Finding>,
    pub suppressed: Vec<Finding>,
}

impl Sink {
    /// Emits a finding for `line` of `file` unless an inline
    /// `lint: allow(code, …)` annotation covers it.
    pub fn emit(&mut self, file: &SourceFile, line: usize, code: &'static str, message: String) {
        let snippet = file
            .lines
            .get(line - 1)
            .map(|l| truncate(l.raw.trim()))
            .unwrap_or_default();
        let finding = Finding {
            code,
            path: file.path.clone(),
            line,
            message,
            snippet,
        };
        if file.is_allowed(line, code) {
            self.suppressed.push(finding);
        } else {
            self.findings.push(finding);
        }
    }

    /// Emits unconditionally (used for findings that are not tied to a
    /// suppressible source line, e.g. spec drift and malformed allows).
    pub fn emit_raw(&mut self, finding: Finding) {
        self.findings.push(finding);
    }
}

fn truncate(s: &str) -> String {
    const MAX: usize = 160;
    if s.chars().count() <= MAX {
        s.to_string()
    } else {
        let cut: String = s.chars().take(MAX).collect();
        format!("{cut}…")
    }
}

/// Minimal JSON string escaping (the report contains only source text).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the full report as a single JSON object. Hand-rolled — the
/// workspace is hermetic and the schema is flat.
pub fn render_json(findings: &[Finding], suppressed: usize) -> String {
    let one = |f: &Finding| {
        format!(
            "{{\"code\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\",\"snippet\":\"{}\"}}",
            f.code,
            json_escape(&f.path),
            f.line,
            json_escape(&f.message),
            json_escape(&f.snippet),
        )
    };
    let all: Vec<String> = findings.iter().map(one).collect();
    format!(
        "{{\"findings\":[{}],\"counts\":{{\"total\":{},\"suppressed\":{}}}}}",
        all.join(","),
        findings.len(),
        suppressed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(code: &'static str, snippet: &str) -> Finding {
        Finding {
            code,
            path: "crates/x/src/a.rs".into(),
            line: 3,
            message: "m".into(),
            snippet: snippet.into(),
        }
    }

    #[test]
    fn json_report_escapes_quotes() {
        let out = render_json(&[f("DL002", "say \"hi\"")], 1);
        assert!(out.contains("say \\\"hi\\\""));
        assert!(out.contains("\"counts\":{\"total\":1,\"suppressed\":1}"));
    }

    #[test]
    fn suppression_routes_to_suppressed() {
        let file = SourceFile::parse(
            "crates/x/src/a.rs",
            "let v = a.0 & b.0; // lint: allow(DL002, audited mask probe)\n",
        );
        let mut sink = Sink::default();
        sink.emit(&file, 1, "DL002", "msg".into());
        assert!(sink.findings.is_empty());
        assert_eq!(sink.suppressed.len(), 1);
    }
}
