//! dcat-lint: the workspace's token-aware static-analysis engine — the
//! passes for properties neither a type bound nor an installed clippy
//! lint can state (DESIGN.md §12 maps every property to its one
//! mechanism; the rest are declared as `#![deny(clippy::…)]` attributes
//! and in the root `clippy.toml`).
//!
//! A lexer that understands comments, strings, raw strings, and char
//! literals ([`lexer`]), a catalog of passes with stable `DLxxx`
//! diagnostic codes ([`passes`]), and inline suppression via
//! `// lint: allow(DLxxx, reason)` annotations. A finding is a failure:
//! there is no baseline.
//!
//! | Code  | Pass | Scope |
//! |-------|------|-------|
//! | DL000 | malformed/unknown `lint: allow` annotation | everywhere |
//! | DL002 | raw CBM bit arithmetic | dcat, resctrl, host (minus `cbm.rs`) |
//! | DL003 | float `==` on telemetry metrics | dcat, perf-events |
//! | DL005 | direct fs I/O in the control loop | control, daemon |
//! | DL007 | pointer-address ordering | all crates |
//! | DL010 | FIGURE6 vs DESIGN.md spec drift | transitions.rs + DESIGN.md |
//!
//! Entry points: [`check_repo`] (scoped repo gate), [`scan_files`]
//! (all passes on arbitrary files, for fixture checks), [`self_test`]
//! (every pass against its embedded fixtures).

pub mod diagnostics;
pub mod lexer;
pub mod passes;

use diagnostics::{Finding, Sink};
use lexer::SourceFile;
use std::path::{Path, PathBuf};

/// The result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (path, line, code).
    pub findings: Vec<Finding>,
    /// Findings silenced by inline `lint: allow` annotations.
    pub suppressed: Vec<Finding>,
}

/// Walks upward from `start` to the workspace root (the directory with
/// both `Cargo.toml` and `crates/`).
pub fn find_repo_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(format!(
                "workspace root not found above {}",
                start.display()
            ));
        }
    }
}

/// Which per-file passes govern a repo-relative path. `crates/lint`
/// itself is excluded from the walk entirely (its fixtures spell every
/// banned token).
fn passes_for(rel: &str) -> Vec<&'static str> {
    use passes::{cbm_bits, determinism, direct_io, float_eq};

    let in_any = |dirs: &[&str]| dirs.iter().any(|d| rel.starts_with(d));

    let mut out = Vec::new();
    if in_any(&[
        "crates/dcat/src/",
        "crates/resctrl/src/",
        "crates/host/src/",
    ]) && !rel.ends_with("/cbm.rs")
    {
        out.push(cbm_bits::CODE);
    }
    if in_any(&["crates/dcat/src/", "crates/perf-events/src/"]) {
        out.push(float_eq::CODE);
    }
    if ["crates/dcat/src/daemon.rs", "crates/dcat/src/control.rs"].contains(&rel) {
        out.push(direct_io::CODE);
    }
    out.push(determinism::CODE);
    out
}

/// Validates this file's `lint: allow` annotations (DL000) — malformed
/// grammar, unknown codes — and counts the well-formed ones so unused
/// suppressions remain visible in the report totals.
fn check_allows(file: &SourceFile, sink: &mut Sink) {
    for (line, why) in &file.malformed_allows {
        sink.emit_raw(Finding {
            code: passes::DL000,
            path: file.path.clone(),
            line: *line,
            message: format!("malformed lint annotation: {why}"),
            snippet: file
                .lines
                .get(line - 1)
                .map(|l| l.raw.trim().to_string())
                .unwrap_or_default(),
        });
    }
    let known = passes::known_codes();
    for (i, l) in file.lines.iter().enumerate() {
        for allow in &l.allows {
            if !known.contains(&allow.code.as_str()) {
                sink.emit_raw(Finding {
                    code: passes::DL000,
                    path: file.path.clone(),
                    line: i + 1,
                    message: format!("allow annotation names unknown code `{}`", allow.code),
                    snippet: l.raw.trim().to_string(),
                });
            }
        }
    }
}

/// Runs the scoped gate over the whole repository, including the
/// DL010 spec-drift check.
pub fn check_repo(root: &Path) -> Result<Report, String> {
    let mut sink = Sink::default();
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let entries =
        std::fs::read_dir(&crates_dir).map_err(|e| format!("crates dir unreadable: {e}"))?;
    for entry in entries {
        let dir = entry.map_err(|e| format!("dir entry: {e}"))?.path();
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !dir.is_dir() || name == "lint" {
            continue;
        }
        collect_rust_files(&dir, &mut files)?;
    }
    files.sort();

    for path in &files {
        let rel = rel_path(root, path);
        let codes = passes_for(&rel);
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file = SourceFile::parse(&rel, &text);
        check_allows(&file, &mut sink);
        for code in codes {
            passes::run_pass(code, &file, &mut sink);
        }
    }

    let transitions = root.join("crates/dcat/src/transitions.rs");
    let design = root.join("DESIGN.md");
    let transitions_text = std::fs::read_to_string(&transitions)
        .map_err(|e| format!("{}: {e}", transitions.display()))?;
    let design_text =
        std::fs::read_to_string(&design).map_err(|e| format!("{}: {e}", design.display()))?;
    passes::spec_drift::run(
        &transitions_text,
        "crates/dcat/src/transitions.rs",
        &design_text,
        "DESIGN.md",
        &mut sink,
    );

    Ok(finish(sink))
}

/// Applies every per-file pass, unscoped, to the given files — the mode
/// CI uses to prove the gate fails on a seeded fixture.
pub fn scan_files(paths: &[PathBuf]) -> Result<Report, String> {
    let mut sink = Sink::default();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = path.to_string_lossy().replace('\\', "/");
        let file = SourceFile::parse(&rel, &text);
        check_allows(&file, &mut sink);
        for code in passes::FILE_PASS_CODES {
            passes::run_pass(code, &file, &mut sink);
        }
    }
    Ok(finish(sink))
}

fn finish(sink: Sink) -> Report {
    let mut findings = sink.findings;
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.code).cmp(&(b.path.as_str(), b.line, b.code)));
    Report {
        findings,
        suppressed: sink.suppressed,
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("dir entry: {e}"))?.path();
        if path.is_dir() {
            collect_rust_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every pass self-tests against embedded positive and negative
/// fixtures; a pass that stops detecting its own pattern fails the
/// whole lint run.
pub fn self_test() -> Result<(), String> {
    passes::self_test_all()?;
    // The allow grammar itself.
    let file = SourceFile::parse("f.rs", "let x = 1; // lint: allow(DL002)\n");
    if file.malformed_allows.len() != 1 {
        return Err("allow-grammar self-test: reason-less allow accepted".into());
    }
    let mut sink = Sink::default();
    check_allows(&file, &mut sink);
    if sink
        .findings
        .iter()
        .filter(|f| f.code == passes::DL000)
        .count()
        != 1
    {
        return Err("allow-grammar self-test: DL000 not emitted".into());
    }
    let bogus = SourceFile::parse("f.rs", "let x = 1; // lint: allow(DL999, because)\n");
    let mut sink = Sink::default();
    check_allows(&bogus, &mut sink);
    if sink
        .findings
        .iter()
        .filter(|f| f.code == passes::DL000)
        .count()
        != 1
    {
        return Err("allow-grammar self-test: unknown code not rejected".into());
    }
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
    fn scoping_matches_the_catalog() {
        for the_loop in ["crates/dcat/src/daemon.rs", "crates/dcat/src/control.rs"] {
            let passes = passes_for(the_loop);
            assert_eq!(passes, ["DL002", "DL003", "DL005", "DL007"], "{the_loop}");
        }
        let cbm = passes_for("crates/resctrl/src/cbm.rs");
        assert!(!cbm.contains(&"DL002"), "cbm.rs owns the raw bits");
        let snapshot = passes_for("crates/perf-events/src/snapshot.rs");
        assert_eq!(snapshot, ["DL003", "DL007"]);
        assert_eq!(passes_for("crates/top/src/lib.rs"), ["DL007"]);
    }

    #[test]
    fn repo_gate_runs_end_to_end() {
        // The lint crate lives inside the workspace it checks: running
        // the full gate from the test proves the walk, the scoping, and
        // every pass hold together on real sources — and that the
        // committed tree is clean, as CI demands.
        let root = find_repo_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        let report = check_repo(&root).unwrap();
        assert!(
            report.findings.is_empty(),
            "lint findings:\n{}",
            report
                .findings
                .iter()
                .map(|f| f.render_human())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
