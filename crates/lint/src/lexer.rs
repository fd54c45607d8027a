//! Token-aware source preparation.
//!
//! The passes in this crate match on *scrubbed* lines: a copy of the
//! source in which the contents of comments, string literals, raw
//! strings, byte strings, and char literals have been replaced by
//! spaces, one space per character, with newlines preserved. Column
//! positions therefore line up between the raw and scrubbed text, and a
//! pattern such as `.unwrap()` appearing inside a doc comment or a log
//! message can never trigger a finding.
//!
//! The scrubber is a hand-rolled state machine, not a full parser; it
//! understands exactly the lexical shapes that can hide pass patterns:
//!
//! - `//` line comments (doc comments included),
//! - `/* ... */` block comments with nesting,
//! - `"..."` strings with `\"` / `\\` escapes, spanning lines,
//! - `r"..."`, `r#"..."#`, … raw strings (any `#` depth), and their
//!   `br` byte variants,
//! - `b"..."` byte strings, `'x'` / `b'x'` / `'\n'` char literals,
//! - lifetimes (`'a`, `'static`) and loop labels, which start with a
//!   quote but are *not* literals and are left intact.

/// One `// lint: allow(DLxxx, reason)` annotation attached to a line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    pub code: String,
    pub reason: String,
}

/// A single source line with its scrubbed twin and attached metadata.
#[derive(Debug, Clone)]
pub struct Line {
    /// The original text (no trailing newline).
    pub raw: String,
    /// Same text with comment/literal contents blanked to spaces.
    pub scrubbed: String,
    /// True from the first `#[cfg(test)]` line onward. The workspace
    /// convention keeps unit tests in a trailing `mod tests`, so
    /// everything after the marker is test-only code, which the passes
    /// skip.
    pub in_test: bool,
    /// Suppressions that apply to this line (trailing annotation, or a
    /// comment-only annotation on the lines directly above).
    pub allows: Vec<Allow>,
}

/// A lexed source file ready for the passes.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators (display + baseline key).
    pub path: String,
    pub lines: Vec<Line>,
    /// `lint: allow(...)` annotations that could not be parsed, with
    /// the 1-based line they sit on. Reported as DL000.
    pub malformed_allows: Vec<(usize, String)>,
}

impl SourceFile {
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let (scrubbed_text, comments) = scrub(text);
        let raw_lines: Vec<&str> = text.lines().collect();
        let scrub_lines: Vec<&str> = scrubbed_text.lines().collect();
        let mut lines: Vec<Line> = Vec::with_capacity(raw_lines.len());
        let mut in_test = false;
        for (i, raw) in raw_lines.iter().enumerate() {
            if raw.trim() == "#[cfg(test)]" {
                in_test = true;
            }
            lines.push(Line {
                raw: (*raw).to_string(),
                scrubbed: scrub_lines.get(i).copied().unwrap_or("").to_string(),
                in_test,
                allows: Vec::new(),
            });
        }
        let mut malformed_allows = Vec::new();
        for (line_no, comment) in &comments {
            let Some(parsed) = parse_allow(comment) else {
                continue;
            };
            let target = attach_line(&lines, *line_no);
            match parsed {
                Ok(allow) => {
                    if let Some(target) = target {
                        lines[target - 1].allows.push(allow);
                    } else {
                        malformed_allows
                            .push((*line_no, "allow annotation attaches to no code line".into()));
                    }
                }
                Err(why) => malformed_allows.push((*line_no, why)),
            }
        }
        SourceFile {
            path: path.to_string(),
            lines,
            malformed_allows,
        }
    }

    /// Non-test scrubbed lines as `(1-based line number, scrubbed text)`.
    pub fn code_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.in_test)
            .map(|(i, l)| (i + 1, l.scrubbed.as_str()))
    }

    /// True when `code` is suppressed on the given 1-based line.
    pub fn is_allowed(&self, line: usize, code: &str) -> bool {
        self.lines
            .get(line - 1)
            .map(|l| l.allows.iter().any(|a| a.code == code))
            .unwrap_or(false)
    }
}

/// Where a comment-borne allow annotation lands: the comment's own line
/// when that line has code on it (trailing comment), otherwise the
/// first following line with non-blank scrubbed content.
fn attach_line(lines: &[Line], comment_line: usize) -> Option<usize> {
    let idx = comment_line - 1;
    if lines.get(idx)?.scrubbed.trim().is_empty() {
        lines
            .iter()
            .enumerate()
            .skip(idx + 1)
            .find(|(_, l)| !l.scrubbed.trim().is_empty())
            .map(|(i, _)| i + 1)
    } else {
        Some(comment_line)
    }
}

/// Parses `lint: allow(CODE, reason)` out of one comment's text.
/// Returns `None` when the comment carries no annotation at all.
fn parse_allow(comment: &str) -> Option<Result<Allow, String>> {
    let marker = "lint: allow(";
    let at = comment.find(marker)?;
    let rest = &comment[at + marker.len()..];
    let Some(close) = rest.find(')') else {
        return Some(Err("unterminated `lint: allow(` annotation".into()));
    };
    let inner = &rest[..close];
    match inner.split_once(',') {
        Some((code, reason)) if !reason.trim().is_empty() && code.trim().starts_with("DL") => {
            Some(Ok(Allow {
                code: code.trim().to_string(),
                reason: reason.trim().to_string(),
            }))
        }
        _ => Some(Err(format!(
            "allow annotation must be `lint: allow(DLxxx, reason)`, got `({inner})`"
        ))),
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Replaces comment and literal contents with spaces (newlines kept) and
/// collects `//` comment texts with their 1-based starting line.
pub fn scrub(text: &str) -> (String, Vec<(usize, String)>) {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut line = 1usize;
    let mut prev_code = '\0';
    let mut i = 0usize;

    // Blank one char: preserve newlines so line/column structure holds.
    let blank = |out: &mut String, line: &mut usize, c: char| {
        if c == '\n' {
            out.push('\n');
            *line += 1;
        } else {
            out.push(' ');
        }
    };

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            out.push('\n');
            line += 1;
            prev_code = '\0';
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = line;
            let mut text_buf = String::new();
            while i < chars.len() && chars[i] != '\n' {
                text_buf.push(chars[i]);
                out.push(' ');
                i += 1;
            }
            comments.push((start, text_buf));
            prev_code = ' ';
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, &mut line, chars[i]);
                    i += 1;
                }
            }
            prev_code = ' ';
            continue;
        }
        // Raw / byte string prefixes: r", r#", br", b", b' — only when
        // the previous code char cannot extend an identifier (so the
        // trailing `r` of `for` or `var` is never taken as a prefix).
        if (c == 'r' || c == 'b') && !is_ident(prev_code) {
            if let Some((skip, kind)) = literal_prefix(&chars, i) {
                for _ in 0..skip {
                    blank(&mut out, &mut line, chars[i]);
                    i += 1;
                }
                match kind {
                    PrefixKind::Raw(hashes) => {
                        i = scrub_raw_string(&chars, i, hashes, &mut out, &mut line, blank);
                    }
                    PrefixKind::Str => {
                        i = scrub_string(&chars, i, &mut out, &mut line, blank);
                    }
                    PrefixKind::Char => {
                        i = scrub_char(&chars, i, &mut out, &mut line, blank);
                    }
                }
                prev_code = ' ';
                continue;
            }
        }
        // Plain string literal.
        if c == '"' {
            blank(&mut out, &mut line, c);
            i += 1;
            i = scrub_string(&chars, i, &mut out, &mut line, blank);
            prev_code = ' ';
            continue;
        }
        // Char literal vs lifetime/label.
        if c == '\'' {
            let next = chars.get(i + 1);
            let is_char_lit = match next {
                Some('\\') => true,
                Some(_) => chars.get(i + 2) == Some(&'\''),
                None => false,
            };
            if is_char_lit {
                blank(&mut out, &mut line, c);
                i += 1;
                i = scrub_char(&chars, i, &mut out, &mut line, blank);
                prev_code = ' ';
                continue;
            }
            out.push('\'');
            prev_code = '\'';
            i += 1;
            continue;
        }
        out.push(c);
        prev_code = c;
        i += 1;
    }
    (out, comments)
}

enum PrefixKind {
    /// Raw (byte) string with this many `#`s.
    Raw(usize),
    /// `b"..."` byte string body (escape rules like a normal string).
    Str,
    /// `b'x'` byte char body.
    Char,
}

/// Matches a raw/byte literal prefix at `i`. Returns the prefix length
/// *including the opening quote* and the body kind, or `None`.
fn literal_prefix(chars: &[char], i: usize) -> Option<(usize, PrefixKind)> {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        match chars.get(j) {
            Some('\'') => return Some((j + 1 - i, PrefixKind::Char)),
            Some('"') => return Some((j + 1 - i, PrefixKind::Str)),
            Some('r') => j += 1,
            _ => return None,
        }
    } else {
        // chars[j] == 'r'
        j += 1;
    }
    let hash_start = j;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((j + 1 - i, PrefixKind::Raw(j - hash_start)))
    } else {
        None
    }
}

/// Scrubs a normal/byte string body starting *after* the opening quote.
fn scrub_string(
    chars: &[char],
    mut i: usize,
    out: &mut String,
    line: &mut usize,
    blank: impl Fn(&mut String, &mut usize, char),
) -> usize {
    while i < chars.len() {
        let c = chars[i];
        if c == '\\' && i + 1 < chars.len() {
            blank(out, line, c);
            blank(out, line, chars[i + 1]);
            i += 2;
            continue;
        }
        blank(out, line, c);
        i += 1;
        if c == '"' {
            break;
        }
    }
    i
}

/// Scrubs a raw string body starting *after* `r#…#"`; stops past the
/// closing quote followed by `hashes` `#`s.
fn scrub_raw_string(
    chars: &[char],
    mut i: usize,
    hashes: usize,
    out: &mut String,
    line: &mut usize,
    blank: impl Fn(&mut String, &mut usize, char),
) -> usize {
    while i < chars.len() {
        let c = chars[i];
        if c == '"' {
            let closes = (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
            if closes {
                for _ in 0..=hashes {
                    blank(out, line, chars[i]);
                    i += 1;
                }
                break;
            }
        }
        blank(out, line, c);
        i += 1;
    }
    i
}

/// Scrubs a char/byte-char body starting *after* the opening quote.
fn scrub_char(
    chars: &[char],
    mut i: usize,
    out: &mut String,
    line: &mut usize,
    blank: impl Fn(&mut String, &mut usize, char),
) -> usize {
    while i < chars.len() {
        let c = chars[i];
        if c == '\\' && i + 1 < chars.len() {
            blank(out, line, c);
            blank(out, line, chars[i + 1]);
            i += 2;
            continue;
        }
        blank(out, line, c);
        i += 1;
        if c == '\'' {
            break;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrubbed(text: &str) -> String {
        scrub(text).0
    }

    #[test]
    fn line_comment_is_blanked_and_collected() {
        let (s, comments) = scrub("let x = 1; // .unwrap() here\nlet y = 2;");
        assert!(!s.contains("unwrap"));
        assert!(s.starts_with("let x = 1; "));
        assert_eq!(comments.len(), 1);
        assert_eq!(comments[0].0, 1);
        assert!(comments[0].1.contains(".unwrap()"));
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let s = scrubbed("a /* x /* y */ z */ b.unwrap()");
        assert!(s.contains("b.unwrap()"));
        assert!(!s.contains('x'));
        assert!(!s.contains('z'));
    }

    #[test]
    fn strings_hide_patterns_and_preserve_columns() {
        let src = "let m = \".unwrap()\"; m.len()";
        let s = scrubbed(src);
        assert!(!s.contains("unwrap"));
        assert_eq!(s.len(), src.len());
        assert!(s.ends_with("m.len()"));
    }

    #[test]
    fn raw_strings_with_hashes_and_embedded_quotes() {
        let src = r##"let m = r#"say ".unwrap()" loudly"#; x"##;
        let s = scrubbed(src);
        assert!(!s.contains("unwrap"));
        assert!(s.trim_end().ends_with("; x"));
    }

    #[test]
    fn char_literal_quote_does_not_open_a_string() {
        let s = scrubbed("let q = '\"'; a.unwrap()");
        assert!(s.contains("a.unwrap()"));
    }

    #[test]
    fn lifetimes_survive() {
        let s = scrubbed("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(s, "fn f<'a>(x: &'a str) -> &'a str { x }");
    }

    #[test]
    fn slash_slash_inside_string_is_not_a_comment() {
        let s = scrubbed("let url = \"http://x\"; y.unwrap()");
        assert!(s.contains("y.unwrap()"));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let s = scrubbed(r##"let a = b"un\"wrap"; let c = br#"x"#; z"##);
        assert!(!s.contains("un"));
        assert!(s.trim_end().ends_with('z'));
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string() {
        let s = scrubbed("for item in iter { var\u{22}a\u{22}; }");
        // `var"a"` is nonsense Rust but the scrubber must not treat the
        // trailing r of `var` as a raw-string prefix and eat the rest.
        assert!(s.starts_with("for item in iter"));
    }

    #[test]
    fn cfg_test_marker_flags_following_lines() {
        let f = SourceFile::parse("x.rs", "fn a() {}\n#[cfg(test)]\nmod tests {}\n");
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[2].in_test);
        assert_eq!(f.code_lines().count(), 1);
    }

    #[test]
    fn trailing_allow_attaches_to_its_own_line() {
        let f = SourceFile::parse(
            "x.rs",
            "let x = m.keys(); // lint: allow(DL006, sorted later)\n",
        );
        assert!(f.is_allowed(1, "DL006"));
        assert!(f.malformed_allows.is_empty());
    }

    #[test]
    fn standalone_allow_attaches_to_next_code_line() {
        let src =
            "// lint: allow(DL008, cast is width-checked)\n// more prose\nlet x = y as u64;\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.is_allowed(3, "DL008"));
        assert!(!f.is_allowed(1, "DL008"));
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let f = SourceFile::parse("x.rs", "let x = 1; // lint: allow(DL006)\n");
        assert!(!f.is_allowed(1, "DL006"));
        assert_eq!(f.malformed_allows.len(), 1);
    }
}
