//! Property tests for the merge semantics the `--jobs N` byte-identity
//! regression depends on: folding per-worker registries together in ANY
//! permutation must yield the same snapshot and the same Prometheus text.

use dcat_obs::{Registry, Snapshot, DEFAULT_STEP_BUCKETS};
use prop_lite::{run_cases, Gen};

const NAMES: &[&str] = &[
    "ticks_total",
    "ways_moved_total",
    "span_steps",
    "domain_ways",
];
const DOMAINS: &[&str] = &["vm0", "vm1", "vm2", "redis", "pg\"weird\""];

/// Build one worker's registry from the generator. Metric kind is fixed per
/// name (the registry panics on kind mixing, which the generator must never
/// trigger).
fn worker_registry(g: &mut Gen) -> Registry {
    let mut r = Registry::new();
    for _ in 0..g.usize_in(0, 12) {
        let name = *g.pick(NAMES);
        let domain = *g.pick(DOMAINS);
        match name {
            "ticks_total" => r.counter_add("ticks_total", &[], g.u64_in(0, 100)),
            "ways_moved_total" => {
                r.counter_add("ways_moved_total", &[("domain", domain)], g.u64_in(0, 20))
            }
            "span_steps" => r.histogram_observe(
                "span_steps",
                &[("span", "apply")],
                DEFAULT_STEP_BUCKETS,
                g.u64_in(0, 200),
            ),
            _ => r.gauge_set("domain_ways", &[("domain", domain)], g.u64_in(1, 11) as f64),
        }
    }
    r
}

/// Fold snapshots into an accumulator in the order given by `order`.
fn merge_in_order(snaps: &[Snapshot], order: &[usize]) -> Snapshot {
    let mut acc = Snapshot::default();
    for &i in order {
        acc.merge(&snaps[i]);
    }
    acc
}

#[test]
fn merging_worker_registries_is_permutation_invariant() {
    run_cases("obs_merge_permutation", 200, |g| {
        let workers = g.usize_in(1, 6);
        let snaps: Vec<Snapshot> = (0..workers)
            .map(|_| worker_registry(g).snapshot())
            .collect();

        let identity: Vec<usize> = (0..workers).collect();
        let reference = merge_in_order(&snaps, &identity);

        // A generated permutation (Fisher–Yates off the case's own stream).
        let mut perm = identity.clone();
        for i in (1..perm.len()).rev() {
            let j = g.usize_in(0, i);
            perm.swap(i, j);
        }
        let shuffled = merge_in_order(&snaps, &perm);

        assert_eq!(
            reference, shuffled,
            "snapshot differs under permutation {perm:?}"
        );
        assert_eq!(reference.to_prometheus(), shuffled.to_prometheus());
    });
}

#[test]
fn merge_is_associative_pairwise_vs_linear() {
    run_cases("obs_merge_associative", 100, |g| {
        let snaps: Vec<Snapshot> = (0..4).map(|_| worker_registry(g).snapshot()).collect();

        // Linear: ((a+b)+c)+d
        let linear = merge_in_order(&snaps, &[0, 1, 2, 3]);

        // Tree: (a+b)+(c+d)
        let mut left = snaps[0].clone();
        left.merge(&snaps[1]);
        let mut right = snaps[2].clone();
        right.merge(&snaps[3]);
        left.merge(&right);

        assert_eq!(linear, left);
        assert_eq!(linear.to_prometheus(), left.to_prometheus());
    });
}

#[test]
fn rendered_exports_always_validate() {
    run_cases("obs_render_validates", 100, |g| {
        let snap = worker_registry(g).snapshot();
        dcat_obs::check_prometheus(&snap.to_prometheus())
            .expect("renderer output must satisfy the exposition validator");
    });
}
