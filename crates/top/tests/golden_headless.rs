//! Golden headless-render snapshot for fig07's frame stream.
//!
//! This pins the whole export-to-dashboard path end to end: the fig07
//! lifecycle run produces a `dcat-frames/v2` stream (two segments, panel
//! a then panel b), and `dcat-top`'s headless renderer turns it into the
//! exact bytes CI diffs (`ci.sh` replays the same stream through the
//! `dcat-top --headless` binary). Everything upstream is logical-clock
//! deterministic, so any diff means either the controller's observable
//! decisions or the dashboard's layout changed.
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! DCAT_BLESS=1 cargo test -p dcat-top --test golden_headless
//! ```

use std::path::PathBuf;

use dcat_bench::experiments::fig07_lifecycle;
use dcat_bench::report;
use dcat_top::{render_replay, RenderOptions};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("DCAT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); run with DCAT_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "headless render diverged from {}; if the change is intentional, \
         re-bless with DCAT_BLESS=1",
        path.display()
    );
}

#[test]
fn fig07_headless_render_matches_golden() {
    let ((_lifecycle, frames), _text, _snap) =
        report::capture_obs(|| fig07_lifecycle::run_with_frames(true));
    // The stream CI replays must validate before it renders.
    let summary = dcat_obs::check_frames(&frames).expect("fig07 frames validate");
    assert_eq!(summary.segments, 2, "panel a and panel b segments");
    let rendered = render_replay(&frames, &RenderOptions::headless()).expect("stream renders");
    assert!(
        !rendered.contains('\x1b'),
        "headless bytes must carry no ANSI escapes"
    );
    check_golden("fig07_headless.txt", &rendered);
}
