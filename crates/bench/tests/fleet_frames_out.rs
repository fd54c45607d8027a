//! `fleet_scale --frames-out PATH` streams every run's frame segments to
//! PATH as the hosts finish: the file must be, byte for byte, what
//! `run_fleet` keeps in `FleetResult::frames`, policy after policy in
//! report order.

use std::process::{Command, Stdio};

use dcat_bench::fleet::{run_fleet, FleetConfig, FleetPolicy};

#[test]
fn fleet_scale_frames_out_is_the_run_fleet_frames_concatenated() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleet_scale_frames.jsonl");
    // Three hosts per run, two of them on a second worker.
    let status = Command::new(env!("CARGO_BIN_EXE_fleet_scale"))
        .args([
            "--fast",
            "--tenants",
            "30",
            "--sample-sets",
            "8",
            "--jobs",
            "2",
        ])
        .arg("--frames-out")
        .arg(&path)
        .stdout(Stdio::null())
        .status()
        .expect("fleet_scale starts");
    assert!(status.success(), "fleet_scale exited with {status}");
    let written = std::fs::read_to_string(&path).expect("the frames file was written");

    let mut cfg = FleetConfig::new(30, true);
    cfg.llc_fidelity = llc_sim::SimFidelity::Sampled { one_in: 8 };
    let kept: String = FleetPolicy::ALL
        .iter()
        .map(|&policy| run_fleet(policy, &cfg).expect("the fleet runs").frames)
        .collect();
    assert!(
        written == kept,
        "--frames-out differs from run_fleet's frames"
    );
    let _ = std::fs::remove_file(&path);
}
