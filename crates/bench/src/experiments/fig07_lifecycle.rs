//! Figure 7: the allocation lifecycle of a VM under dCat.
//!
//! (a) An idle VM donates down to one way; when a memory-intensive
//! workload starts, the reserved size is reclaimed immediately, then grown
//! one way per decision until misses subside; when the workload stops the
//! VM donates again.
//! (b) The streaming variant: growth is abandoned at the streaming cap and
//! the VM drops to one way while still running.

use workloads::{Mload, Mlr};

use crate::experiments::common::{paper_dcat, paper_engine, MB};
use crate::report;
use crate::scenario::{run_scenario, PolicyKind, ScheduleItem, VmPlan};

/// The two timelines of the figure.
#[derive(Debug, Clone)]
pub struct Lifecycle {
    /// Way series of the cache-friendly VM (panel a).
    pub friendly_ways: Vec<u32>,
    /// Way series of the streaming VM (panel b).
    pub streaming_ways: Vec<u32>,
}

/// Runs one timeline (panel a or b) and returns the full scenario record —
/// the golden decision-trace tests snapshot this.
pub fn run_timeline(streaming: bool, fast: bool) -> crate::RunResult {
    let (start, stop, total) = if fast { (2, 12, 16) } else { (4, 28, 36) };
    let mut plans = vec![VmPlan::scheduled(
        "tenant",
        3,
        vec![ScheduleItem::window(start, stop)],
        move |_| {
            if streaming {
                Box::new(Mload::new(60 * MB))
            } else {
                Box::new(Mlr::new(8 * MB, 5))
            }
        },
    )];
    for i in 0..5 {
        plans.push(VmPlan::always(format!("lookbusy-{i}"), 3, |_| {
            Box::new(workloads::Lookbusy::new())
        }));
    }
    run_scenario(
        PolicyKind::Dcat(paper_dcat()),
        paper_engine(fast),
        &plans,
        total,
    )
}

/// Runs both timelines and prints them.
pub fn run(fast: bool) -> Lifecycle {
    run_with_frames(fast).0
}

/// The registry entry: [`run_with_frames`], exporting the stream to
/// `--frames-out` when given.
///
/// # Panics
///
/// Panics if the frames file cannot be written.
pub fn run_cli(cli: &crate::Cli) {
    let (_, frames) = run_with_frames(cli.fast);
    if let Some(path) = cli.frames_out.as_deref() {
        if let Err(e) = dcat_obs::write_text(path, &frames) {
            panic!("frames export to {}: {e}", path.display());
        }
    }
}

/// Like [`run`], but also returns the two timelines' `dcat-frames/v2`
/// segments concatenated in panel order (a then b) — the stream
/// [`run_cli`] exports and `dcat-top --replay` renders. The segments come
/// out of [`crate::RunResult::frames`] in item order, so the bytes are
/// identical at any `--jobs` width.
pub fn run_with_frames(fast: bool) -> (Lifecycle, String) {
    report::section("Figure 7: example of cache allocation with dCat");
    let runs = crate::Runner::from_env().map(vec![false, true], |_, streaming| {
        let r = run_timeline(streaming, fast);
        (r.ways_series(0), r.frames)
    });
    let frames: String = runs.iter().map(|(_, f)| f.as_str()).collect();
    let (friendly_ways, streaming_ways) = (runs[0].0.clone(), runs[1].0.clone());
    let f: Vec<f64> = friendly_ways.iter().map(|&w| w as f64).collect();
    let s: Vec<f64> = streaming_ways.iter().map(|&w| w as f64).collect();
    report::ascii_series("(a) cache-friendly VM: ways over time", &f, 8);
    report::ascii_series("(b) streaming VM: ways over time", &s, 8);
    report::say(format!(
        "friendly: {:?}",
        friendly_ways
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    report::say(format!(
        "streaming: {:?}",
        streaming_ways
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    (
        Lifecycle {
            friendly_ways,
            streaming_ways,
        },
        frames,
    )
}
