//! `dcat-verify [--smoke]`: runs the model checker ([`dcat_verify::run`]),
//! prints its counts, and exits non-zero on any violation or a full run
//! below its floors.

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let report = dcat_verify::run(smoke);
    print!("{}", report.summary());
    if let Err(lines) = report.verdict(smoke) {
        for line in lines {
            eprintln!("{line}");
        }
        std::process::exit(1);
    }
    println!("all invariants and temporal properties held");
}
