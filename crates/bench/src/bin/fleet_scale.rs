//! Fleet-scale comparison of cluster cache policies (see DESIGN.md §15).
//!
//! Extra flag on top of the shared CLI: `--tenants N` runs one explicit
//! fleet size instead of the 100/1 000/10 000 ladder. Large fleets want
//! `--sample-sets 8 --jobs <cores>`. `--frames-out PATH` streams every
//! run's `dcat-frames/v1` segments to PATH as the hosts finish — fleet
//! size by fleet size, policy by policy — for `dcat-top --replay` and
//! `obs-dump`; memory stays flat however large the fleet.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use dcat_bench::experiments::fleet_scale;

fn main() {
    dcat_bench::main_with(run);
}

fn run(cli: dcat_bench::Cli) {
    let counts = tenants_flag().map_or_else(|| fleet_scale::ladder(cli.fast).to_vec(), |n| vec![n]);
    let r = match cli.frames_out.as_deref() {
        None => fleet_scale::run_at(&counts, cli.fast, &mut |_: &str| {}),
        Some(path) => {
            let file = File::create(path).unwrap_or_else(|e| export_failed(path, e));
            // The first write error is kept and the rest of the stream dropped.
            let mut out = Ok(BufWriter::new(file));
            let r = fleet_scale::run_at(&counts, cli.fast, &mut |segment: &str| {
                if let Ok(w) = &mut out {
                    if let Err(e) = w.write_all(segment.as_bytes()) {
                        out = Err(e);
                    }
                }
            });
            if let Err(e) = out.and_then(|mut w| w.flush()) {
                export_failed(path, e);
            }
            r
        }
    };
    r.expect("fleet_scale: fatal resctrl error");
}

fn export_failed(path: &Path, e: std::io::Error) -> ! {
    panic!("frames export to {}: {e}", path.display());
}

/// Parses `--tenants N` / `--tenants=N` from the raw argument list (the
/// shared [`dcat_bench::Cli`] ignores flags it does not know).
fn tenants_flag() -> Option<u32> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let mut tenants = None;
    while let Some(arg) = it.next() {
        if arg == "--tenants" {
            tenants = it.next().and_then(|v| v.parse().ok());
        } else if let Some(v) = arg.strip_prefix("--tenants=") {
            tenants = v.parse().ok();
        }
    }
    tenants
}
