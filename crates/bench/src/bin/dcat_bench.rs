//! `dcat-bench <name> [--fast] [--jobs N] [--metrics-out PATH]
//! [--frames-out PATH] [--sample-sets N] [--tenants N]` runs one
//! experiment of the registry (`dcat_bench::experiments::registry`; the
//! table/figure index is in DESIGN.md §4). Given no name or an unknown
//! one, it prints the registry's names, one per line, and exits 2.

use std::process::ExitCode;

use dcat_bench::experiments::{find, registry};

fn main() -> ExitCode {
    let name = std::env::args().nth(1).unwrap_or_default();
    let Some(experiment) = find(&name) else {
        for e in registry() {
            eprintln!("{}", e.name);
        }
        return ExitCode::from(2);
    };
    dcat_bench::main_with(|cli| (experiment.run)(&cli));
    ExitCode::SUCCESS
}
