//! Runs every figure/table reproduction of the registry's suite (the full
//! evaluation).
//!
//! With `--jobs N` the experiments fan out across worker threads; the
//! report bytes are identical to a `--jobs 1` run because each
//! experiment's output is captured and replayed in registry order.

use dcat_bench::experiments::registry;
use dcat_bench::{Cli, Runner};

fn main() {
    dcat_bench::main_with(run);
}

fn run(cli: Cli) {
    // `--frames-out` and `--tenants` name one experiment's output and
    // fleet; the suite runs every experiment at its defaults.
    let cli = Cli {
        frames_out: None,
        tenants: None,
        ..cli
    };
    let suite: Vec<_> = registry().iter().filter(|e| e.suite).collect();
    Runner::from_env().map(suite, |_, exp| (exp.run)(&cli));
}
