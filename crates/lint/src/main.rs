//! dcat-lint CLI.
//!
//! ```text
//! dcat-lint [--json] [--root DIR] [FILE.rs...]
//! ```
//!
//! Runs the pass self-tests first (a pass that stopped detecting its own
//! pattern must not report "clean"). With no file arguments, runs the
//! scoped repo gate (per-file passes and the DL010 spec-drift check)
//! from the workspace root; with files, applies every per-file pass to
//! them unscoped (the CI fixture mode). Exit status: 0 when clean, 1 on
//! any finding, 2 on usage/IO errors or a failed self-test.

use dcat_lint::{check_repo, diagnostics, find_repo_root, scan_files, self_test};
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    json: bool,
    root: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        json: false,
        root: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a path")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                return Err("usage: dcat-lint [--json] [--root DIR] [FILE.rs...]".into())
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            file => opts.files.push(PathBuf::from(file)),
        }
    }
    Ok(opts)
}

fn run(opts: &Opts) -> Result<dcat_lint::Report, String> {
    self_test().map_err(|e| format!("self-test failed: {e}"))?;
    if !opts.files.is_empty() {
        return scan_files(&opts.files);
    }
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            find_repo_root(&cwd)?
        }
    };
    check_repo(&root)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args(&args).and_then(|opts| {
        let report = run(&opts)?;
        Ok((opts, report))
    });
    let (opts, report) = match parsed {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("dcat-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.json {
        println!(
            "{}",
            diagnostics::render_json(&report.findings, report.suppressed.len())
        );
    } else {
        for f in &report.findings {
            eprintln!("dcat-lint: {}", f.render_human());
        }
        println!(
            "dcat-lint: {} finding(s), {} suppressed by annotation",
            report.findings.len(),
            report.suppressed.len(),
        );
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
