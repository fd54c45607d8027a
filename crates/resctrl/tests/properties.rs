//! Property-based tests for CBMs, layouts, and the cpus_list codec.

use std::collections::BTreeSet;

use resctrl::fs::{format_cpu_list, parse_cpu_list, parse_schemata};
use resctrl::{Cbm, LayoutPlanner, ResctrlError};

fn lay_out(counts: &[u32], previous: &[Option<Cbm>]) -> Result<Vec<Cbm>, ResctrlError> {
    let mut result = Vec::new();
    LayoutPlanner::new(20).layout_stable_into(counts, previous, &mut result)?;
    Ok(result)
}

/// from_way_range always yields contiguous masks of the right width.
#[test]
fn way_range_masks_are_contiguous() {
    prop_lite::run_cases("way_range_masks_are_contiguous", 128, |g| {
        let start = g.u32_in(0, 29);
        let count = g.u32_in(1, 7);
        if start + count > 32 {
            return;
        }
        let cbm = Cbm::from_way_range(start, count);
        assert!(cbm.is_contiguous());
        assert_eq!(cbm.ways(), count);
        assert_eq!(cbm.first_way(), Some(start));
    });
}

/// Hex formatting round-trips through the schemata parser.
#[test]
fn cbm_hex_round_trips() {
    prop_lite::run_cases("cbm_hex_round_trips", 256, |g| {
        let cbm = Cbm(g.u32_in(1, 0xf_ffff));
        assert_eq!(Cbm::parse_hex(&cbm.to_string()).unwrap(), cbm);
    });
}

/// Any feasible request yields non-overlapping contiguous masks that
/// conserve the requested way counts.
#[test]
fn layout_is_sound() {
    prop_lite::run_cases("layout_is_sound", 256, |g| {
        let counts = g.vec_of(1, 7, |g| g.u32_in(1, 4));
        let total: u32 = counts.iter().sum();
        if total > 20 {
            return;
        }
        let masks = lay_out(&counts, &vec![None; counts.len()]).unwrap();
        for (i, mask) in masks.iter().enumerate() {
            assert!(mask.is_contiguous());
            assert_eq!(mask.ways(), counts[i]);
            for other in &masks[i + 1..] {
                assert!(!mask.overlaps(*other));
            }
        }
    });
}

/// Stable relayout is also sound, and unchanged prefixes keep their
/// masks exactly.
#[test]
fn stable_layout_is_sound_and_sticky() {
    prop_lite::run_cases("stable_layout_is_sound_and_sticky", 256, |g| {
        let counts = g.vec_of(2, 6, |g| g.u32_in(1, 3));
        let shrink_idx = g.usize_in(0, 5);
        let total: u32 = counts.iter().sum();
        if total > 20 || shrink_idx >= counts.len() {
            return;
        }
        let first = lay_out(&counts, &vec![None; counts.len()]).unwrap();
        let mut next_counts = counts.clone();
        // Shrinking one group must never move groups to its left.
        if next_counts[shrink_idx] <= 1 {
            return;
        }
        next_counts[shrink_idx] -= 1;
        let prev: Vec<Option<Cbm>> = first.iter().copied().map(Some).collect();
        let second = lay_out(&next_counts, &prev).unwrap();
        for (i, mask) in second.iter().enumerate() {
            assert!(mask.is_contiguous());
            assert_eq!(mask.ways(), next_counts[i]);
            for other in &second[i + 1..] {
                assert!(!mask.overlaps(*other));
            }
        }
        // Groups laid out before the shrunk one are untouched.
        for (i, (a, b)) in first.iter().zip(second.iter()).enumerate() {
            let before_shrunk = a.first_way().unwrap() < first[shrink_idx].first_way().unwrap();
            if i != shrink_idx && before_shrunk {
                assert_eq!(a, b, "group {i} moved unnecessarily");
            }
        }
    });
}

/// Schemata parsing round-trips any mask through adversarial but legal
/// formatting: mixed hex case, an optional `0x`/`0X` prefix, surrounding
/// whitespace, unrelated resource lines, and extra `;`-separated domains.
#[test]
fn schemata_parsing_survives_adversarial_formatting() {
    prop_lite::run_cases("schemata_adversarial_round_trip", 512, |g| {
        let cbm = Cbm(g.u32_in(1, 0xf_ffff));
        let mut hex = cbm.to_string();
        if g.bool_with(0.5) {
            hex = hex.to_uppercase();
        }
        let prefix = *g.pick(&["", "0x", "0X"]);
        let pad_l = *g.pick(&["", " ", "\t", "  "]);
        let pad_r = *g.pick(&["", " ", "\t", " \t"]);
        let mut body = String::new();
        if g.bool_with(0.4) {
            body.push_str("MB:0=100\n");
        }
        let domains = if g.bool_with(0.3) { ";1=f" } else { "" };
        body.push_str(&format!("{pad_l}L3:0={prefix}{hex}{pad_r}{domains}\n"));
        assert_eq!(
            parse_schemata(&body).unwrap(),
            cbm,
            "failed to parse {body:?}"
        );
    });
}

/// Malformed schemata bodies are rejected, never mis-parsed.
#[test]
fn schemata_parsing_rejects_garbage() {
    prop_lite::run_cases("schemata_rejects_garbage", 128, |g| {
        let body = *g.pick(&[
            "",
            "MB:0=100\n",
            "L3:0\n",
            "L3:0=\n",
            "L3:0=zz\n",
            "L3:0=0x\n",
            "l3 is not a resource\n",
        ]);
        assert!(parse_schemata(body).is_err(), "accepted {body:?}");
    });
}

/// cpus_list formatting round-trips for arbitrary core sets.
#[test]
fn cpu_list_round_trips() {
    prop_lite::run_cases("cpu_list_round_trips", 256, |g| {
        let n = g.usize_in(0, 31);
        let cores: BTreeSet<u32> = (0..n).map(|_| g.u32_in(0, 63)).collect();
        let cores: Vec<u32> = cores.into_iter().collect();
        let text = format_cpu_list(&cores);
        let parsed = parse_cpu_list(&text).unwrap();
        assert_eq!(parsed, cores);
    });
}
