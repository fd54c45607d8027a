//! DL007 — pointer-address ordering.
//!
//! PR 2 promised bit-identical experiment output at any `--jobs N`.
//! Allocator addresses vary run to run, so an order (or a key, or a
//! hash) derived from `.as_ptr() as usize` / `as *const … as usize`
//! makes results depend on them. No clippy lint names this shape, so it
//! stays a token pass; the rest of the determinism family — hash
//! containers, wall-clock reads, ad-hoc threads — moved onto
//! `clippy::disallowed_types` / `disallowed_methods` (root `clippy.toml`).

use super::expect_count;
use crate::diagnostics::Sink;
use crate::lexer::SourceFile;

pub const CODE: &str = "DL007";

pub fn run(file: &SourceFile, sink: &mut Sink) {
    for (n, line) in file.code_lines() {
        if line.contains(".as_ptr() as ")
            || ((line.contains(" as *const") || line.contains(" as *mut"))
                && line.contains(" as usize"))
        {
            sink.emit(
                file,
                n,
                CODE,
                "pointer-address ordering (allocator addresses vary run to run; derive \
                 order from data, not addresses)"
                    .into(),
            );
        }
    }
}

pub fn self_test() -> Result<(), String> {
    expect_count(
        "DL007",
        run,
        "let addr = slot.as_ptr() as usize;\nlet key = (&node as *const Node) as usize;\n",
        2,
    )?;
    expect_count(
        "DL007",
        run,
        "let p = buf.as_ptr();\n// slot.as_ptr() as usize in a comment\nlet s = \".as_ptr() as usize\";\n",
        0,
    )?;
    Ok(())
}
