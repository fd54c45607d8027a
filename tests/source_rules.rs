//! The source rules no type bound or clippy lint can state (DESIGN.md §12),
//! checked over each file's raw text up to its first `#[cfg(test)]` line.
//!
//! Comments and string literals are not told apart from code: a banned
//! pattern in either fails too. That is the strict direction — a false
//! positive breaks the build, it never hides a violation.

use std::path::{Path, PathBuf};

/// 1-based numbers of the lines before the first `#[cfg(test)]` that
/// `banned` matches.
fn matching(text: &str, banned: impl Fn(&str) -> bool) -> Vec<usize> {
    text.lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .enumerate()
        .filter(|(_, line)| banned(line))
        .map(|(i, _)| i + 1)
        .collect()
}

/// DL002: raw CBM bit arithmetic — way masks go through the `resctrl::cbm`
/// API. Space-delimited shifts (generics like `Vec<Option<Cbm>>` have none)
/// and a single `&`/`|`/`^` applied to a `.0` field.
fn cbm_bits(text: &str) -> Vec<usize> {
    matching(text, |line| {
        let shift = line.contains(" << ") || line.contains(" >> ");
        let field_bitop = [".0 & ", ".0 | ", ".0 ^ "].iter().any(|pat| {
            line.match_indices(pat).any(|(i, _)| {
                // `.0` must be a field access, not the tail of a float
                // literal, and the operator must not be doubled
                // (`prev > 0.0 && x` is logical, not bitwise).
                let op = char::from(pat.as_bytes()[3]);
                !line[i + pat.len()..].starts_with(op)
                    && !line[..i].ends_with(|c: char| c.is_ascii_digit())
            })
        });
        shift || field_bitop
    })
}

/// Telemetry-derived metrics: compared against thresholds, never for
/// equality.
const METRICS: [&str; 7] = [
    "ipc",
    "miss_rate",
    "llc_miss_rate",
    "llc_ref_per_instr",
    "mem_access_per_instr",
    "norm",
    "baseline",
];

/// DL003: float `==` on telemetry metrics (`clippy::float_cmp` ignores
/// `== 0.0` and `== f64::INFINITY`); sentinels use `is_infinite`.
fn float_eq(text: &str) -> Vec<usize> {
    matching(text, |line| {
        let float_eq = line.contains("== f64::")
            || line.contains("f64::NEG_INFINITY ==")
            || line.contains("f64::INFINITY ==")
            || eq_against_float_literal(line);
        let metric_eq = METRICS
            .iter()
            .any(|m| line.contains(&format!("{m} == ")) || line.contains(&format!(" == {m}")));
        float_eq || metric_eq
    })
}

/// Whether `line` compares with `==` against a float literal. The operand
/// is the maximal run of literal characters touching the `==`, so a
/// literal nested in a call — `assert!(0.5 == y)` — is still seen.
fn eq_against_float_literal(line: &str) -> bool {
    let lit_char = |c: char| c.is_ascii_digit() || c == '.' || c == '_' || c == 'f';
    line.match_indices("==").any(|(i, _)| {
        let before: String = line[..i]
            .trim_end()
            .chars()
            .rev()
            .take_while(|&c| lit_char(c))
            .collect();
        let after: String = line[i + 2..]
            .trim_start()
            .chars()
            .take_while(|&c| lit_char(c))
            .collect();
        // `before` is reversed; digits around a single dot survive that.
        is_float_literal(&before) || is_float_literal(&after)
    })
}

fn is_float_literal(tok: &str) -> bool {
    let digits = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_digit() || c == '_' || c == 'f')
    };
    tok.split_once('.')
        .is_some_and(|(a, b)| digits(a) && digits(b))
}

/// DL005: direct filesystem I/O in the control loop — telemetry reads go
/// through `TelemetryFeed` and writes through the retry-wrapped backend.
fn direct_io(text: &str) -> Vec<usize> {
    matching(text, |line| {
        ["std::fs::", "fs::read_to_string(", "fs::write("]
            .iter()
            .any(|p| line.contains(p))
    })
}

/// DL007: an order, key or hash derived from an allocator address.
fn pointer_order(text: &str) -> Vec<usize> {
    matching(text, |line| {
        line.contains(".as_ptr() as ")
            || ((line.contains(" as *const") || line.contains(" as *mut"))
                && line.contains(" as usize"))
    })
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_tree_breaks_no_source_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    files.sort();
    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(path).unwrap();
        let src_of = |krates: &[&str]| {
            krates
                .iter()
                .any(|k| rel.starts_with(&format!("crates/{k}/src/")))
        };
        let mut check = |code: &str, rule: fn(&str) -> Vec<usize>| {
            findings.extend(rule(&text).into_iter().map(|n| format!("{code} {rel}:{n}")));
        };
        if src_of(&["dcat", "resctrl", "host"]) && !rel.ends_with("/cbm.rs") {
            check("DL002", cbm_bits);
        }
        if src_of(&["dcat", "perf-events"]) {
            check("DL003", float_eq);
        }
        if ["crates/dcat/src/daemon.rs", "crates/dcat/src/control.rs"].contains(&rel.as_str()) {
            check("DL005", direct_io);
        }
        check("DL007", pointer_order);
    }
    assert!(files.len() > 100, "walked only {} files", files.len());
    assert!(
        findings.is_empty(),
        "source rule violations:\n{}",
        findings.join("\n")
    );
}

// Each rule's positive and negative snippets. A pattern inside a comment or
// a string is a positive: the rules read raw text.

#[test]
fn cbm_bits_catches_shifts_and_field_bit_ops() {
    let bad = "let m = Cbm(mask.0 & !mask2.0);\nlet top = bits << shift;\n";
    assert_eq!(cbm_bits(bad), [1, 2]);
    assert_eq!(cbm_bits("let x = 1 << 4;\nlet s = \"a << b\";\n"), [1, 2]);
    let clean = "let prev: Vec<Option<Cbm>> = masks.clone();\nif prev > 0.0 && x { }\nlet u = a.union(b);\n";
    assert!(cbm_bits(clean).is_empty());
}

#[test]
fn float_eq_catches_metric_and_literal_equality() {
    let bad = "if max == f64::NEG_INFINITY { }\nif m.ipc == 0.0 { }\nif miss_rate == thr { }\n";
    assert_eq!(float_eq(bad), [1, 2, 3]);
    let mixed = "if max.is_infinite() { }\nif m.ipc > 0.0 { }\nif count == 0 { }\nlet s = \"ipc == 0.0\";\n";
    assert_eq!(float_eq(mixed), [4]);
    assert!(eq_against_float_literal("assert!(0.5 == y);"));
    assert!(!eq_against_float_literal("if x == 0 {"));
}

#[test]
fn direct_io_catches_fs_calls_before_the_test_module() {
    let bad = "let t = std::fs::read_to_string(&path)?;\nfs::write(&path, text)?;\n";
    assert_eq!(direct_io(bad), [1, 2]);
    let hidden = "let t = feed.read(tick)?;\n// std::fs:: in a comment\nlet s = \"std::fs::\";\n";
    assert_eq!(direct_io(hidden), [2, 3]);
    let in_tests = "let t = feed.read(tick)?;\n#[cfg(test)]\nstd::fs::write(&p, t).unwrap();\n";
    assert!(direct_io(in_tests).is_empty());
}

#[test]
fn pointer_order_catches_address_casts() {
    let bad = "let addr = slot.as_ptr() as usize;\nlet key = (&node as *const Node) as usize;\n";
    assert_eq!(pointer_order(bad), [1, 2]);
    let hidden = "let p = buf.as_ptr();\n// slot.as_ptr() as usize in a comment\nlet s = \".as_ptr() as usize\";\n";
    assert_eq!(pointer_order(hidden), [2, 3]);
}
