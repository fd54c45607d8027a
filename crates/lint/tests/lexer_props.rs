//! Property-style tests for the scrubbing lexer: no matter how banned
//! tokens are wrapped in comments, strings, raw strings, or char
//! literals, the passes must neither see phantom patterns nor miss real
//! ones next to the wrapping.

use dcat_lint::diagnostics::Sink;
use dcat_lint::lexer::{scrub, SourceFile};
use dcat_lint::passes;
use prop_lite::run_cases;

/// Fragments that, placed in *code*, trigger a pass.
const BANNED: [&str; 5] = [
    "std::fs::read_to_string(p)",
    "bits << shift",
    "a.0 & b.0",
    "ipc == 0.0",
    "slot.as_ptr() as usize",
];

/// Wrappers that must hide a fragment from every pass.
fn wrap(style: usize, fragment: &str) -> String {
    match style {
        0 => format!("// {fragment}\nlet a = 1;"),
        1 => format!("/* {fragment} */ let a = 1;"),
        2 => format!("/* outer /* {fragment} */ still comment */ let a = 1;"),
        3 => format!("let s = \"{fragment}\";"),
        4 => format!("let s = r#\"{fragment}\"#;"),
        5 => format!("let s = b\"{fragment}\";"),
        _ => unreachable!(),
    }
}

fn count_all_passes(src: &str) -> usize {
    let file = SourceFile::parse("prop.rs", src);
    let mut sink = Sink::default();
    for code in passes::FILE_PASS_CODES {
        passes::run_pass(code, &file, &mut sink);
    }
    sink.findings.len()
}

#[test]
fn wrapped_banned_fragments_are_invisible() {
    run_cases("wrapped_banned_fragments_are_invisible", 300, |g| {
        let fragment = *g.pick(&BANNED);
        let style = g.usize_in(0, 5);
        let src = wrap(style, fragment);
        assert_eq!(
            count_all_passes(&src),
            0,
            "style {style} leaked `{fragment}` out of the wrapper:\n{src}"
        );
    });
}

#[test]
fn code_after_a_wrapper_is_still_seen() {
    run_cases("code_after_a_wrapper_is_still_seen", 300, |g| {
        let hidden = *g.pick(&BANNED);
        let style = g.usize_in(0, 5);
        // One wrapped (invisible) occurrence, then one real violation.
        let src = format!("{}\nlet x = mask << 1;\n", wrap(style, hidden));
        assert_eq!(
            count_all_passes(&src),
            1,
            "the real shift after a style-{style} wrapper was miscounted:\n{src}"
        );
    });
}

#[test]
fn char_literals_and_lifetimes_do_not_derail_scrubbing() {
    // `'"'` opens no string; `'a` is a lifetime, not a literal.
    let tricky = [
        "let q = '\"'; let x = mask << 1;",
        "let e = '\\''; let x = mask << 1;",
        "fn f<'a>(s: &'a str) -> &'a str { s.trim() }\nlet x = mask << 1;",
        "let b = b'\"'; let x = mask << 1;",
    ];
    for src in tricky {
        assert_eq!(count_all_passes(src), 1, "miscounted: {src}");
    }
}

#[test]
fn slash_slash_inside_strings_is_not_a_comment() {
    run_cases("slash_slash_inside_strings_is_not_a_comment", 200, |g| {
        let host = *g.pick(&["http://host/a", "a//b", "//", "x // y"]);
        let src = format!("let url = \"{host}\"; let x = mask << 1;");
        assert_eq!(count_all_passes(&src), 1, "miscounted: {src}");
    });
}

#[test]
fn scrub_preserves_line_structure() {
    run_cases("scrub_preserves_line_structure", 300, |g| {
        let fragment = *g.pick(&BANNED);
        let style = g.usize_in(0, 5);
        let filler = g.usize_in(0, 4);
        let mut src = String::new();
        for _ in 0..filler {
            src.push_str("let pad = 0;\n");
        }
        src.push_str(&wrap(style, fragment));
        src.push('\n');
        let (scrubbed, _) = scrub(&src);
        assert_eq!(
            scrubbed.matches('\n').count(),
            src.matches('\n').count(),
            "scrubbing changed the line count:\n{src}"
        );
    });
}

#[test]
fn raw_string_hash_depths_round_trip() {
    run_cases("raw_string_hash_depths_round_trip", 200, |g| {
        let depth = g.usize_in(1, 4);
        let hashes = "#".repeat(depth);
        // A raw string whose body contains a quote + fewer hashes than
        // the delimiter; the scrubber must not close early.
        let src = format!(
            "let s = r{hashes}\"inner \"{} quote a.0 & b.0\"{hashes};\nlet x = mask << 1;\n",
            "#".repeat(depth.saturating_sub(1)),
        );
        assert_eq!(count_all_passes(&src), 1, "miscounted: {src}");
    });
}
