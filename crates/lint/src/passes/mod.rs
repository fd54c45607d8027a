//! The pass catalog. Each pass module exposes
//! `run(&SourceFile, &mut Sink)` plus a `self_test()` over embedded
//! positive/negative fixtures; a pass that stops detecting its own
//! pattern fails the whole lint run.

pub mod cbm_bits;
pub mod determinism;
pub mod direct_io;
pub mod float_eq;
pub mod spec_drift;

use crate::diagnostics::Sink;
use crate::lexer::SourceFile;

/// Code for malformed/unknown `lint: allow` annotations.
pub const DL000: &str = "DL000";

/// All per-file pass codes in catalog order (DL010 is repo-level).
pub const FILE_PASS_CODES: [&str; 4] = [
    cbm_bits::CODE,
    float_eq::CODE,
    direct_io::CODE,
    determinism::CODE,
];

/// Every diagnostic code the engine can emit (for allow validation).
pub fn known_codes() -> Vec<&'static str> {
    let mut v = vec![DL000];
    v.extend(FILE_PASS_CODES);
    v.push(spec_drift::CODE);
    v
}

/// Runs one pass by code against a file.
pub fn run_pass(code: &str, file: &SourceFile, sink: &mut Sink) {
    match code {
        c if c == cbm_bits::CODE => cbm_bits::run(file, sink),
        c if c == float_eq::CODE => float_eq::run(file, sink),
        c if c == direct_io::CODE => direct_io::run(file, sink),
        c if c == determinism::CODE => determinism::run(file, sink),
        other => unreachable!("unknown pass code {other}"),
    }
}

/// Runs the self-tests of every pass (and the allow grammar).
pub fn self_test_all() -> Result<(), String> {
    cbm_bits::self_test()?;
    float_eq::self_test()?;
    direct_io::self_test()?;
    determinism::self_test()?;
    spec_drift::self_test()?;
    Ok(())
}

/// Self-test assertion: `run` over fixture `src` must yield exactly
/// `want` findings.
pub(crate) fn expect_count(
    pass: &str,
    run: impl Fn(&SourceFile, &mut Sink),
    src: &str,
    want: usize,
) -> Result<(), String> {
    let file = SourceFile::parse("fixture.rs", src);
    let mut sink = Sink::default();
    run(&file, &mut sink);
    let got = sink.findings.len();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{pass} self-test: expected {want} finding(s), got {got} on fixture:\n{src}"
        ))
    }
}
