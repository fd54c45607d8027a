//! Property tests for the merge semantics the `--jobs N` byte-identity
//! regression depends on: folding per-worker registries together in ANY
//! permutation must yield the same snapshot and the same Prometheus text.
//! And for the frame stream: any frame reads back as the frame written.

use dcat_obs::frames::{
    encode_frame, header_line, FrameReader, Record, KNOWN_CLASSES, KNOWN_REASONS,
};
use dcat_obs::{
    DomainFrame, Frame, LfocExt, MemshareExt, PolicyExt, Registry, Snapshot, DEFAULT_STEP_BUCKETS,
};
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

/// A finite float of any shape: a unit fraction, a ratio of counters, any
/// finite bit pattern, or a signed zero.
fn finite(g: &mut Gen) -> f64 {
    match g.u32_in(0, 3) {
        0 => g.f64_unit(),
        1 => g.u64_in(0, 1 << 40) as f64 / g.u64_in(1, 1 << 40) as f64,
        2 => loop {
            let v = f64::from_bits(g.u64_in(0, u64::MAX));
            if v.is_finite() {
                break v;
            }
        },
        _ => *g.pick(&[0.0, -0.0]),
    }
}

fn maybe<T>(g: &mut Gen, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
    g.bool_with(0.7).then(|| f(g))
}

/// A name with quotes, backslashes, control characters and non-ASCII.
fn name(g: &mut Gen) -> String {
    const CHARS: &[char] = &[
        'a', 'z', '0', '-', '"', '\\', '\n', '\t', '\u{1}', '\u{7f}', 'ü', '€',
    ];
    (0..g.usize_in(0, 12)).map(|_| *g.pick(CHARS)).collect()
}

fn random_frame(g: &mut Gen) -> Frame<'static> {
    let degraded = g.bool_with(0.2);
    Frame {
        tick: g.u64_in(0, u64::MAX),
        policy: name(g).into(),
        degraded,
        reason: (degraded || g.bool_with(0.1)).then(|| *g.pick(KNOWN_REASONS)),
        ways_moved: g.u32_in(0, u32::MAX),
        ext: PolicyExt {
            cos: g.u32_in(0, 16),
            lfoc: maybe(g, |g| LfocExt {
                clusters: g.u32_in(0, u32::MAX),
                insensitive: g.u32_in(0, 20),
            }),
            memshare: maybe(g, |g| MemshareExt {
                lent: g.u32_in(0, 20),
                credit_min: g.u64_in(0, u64::MAX) as i64,
                credit_max: g.u64_in(0, 1 << 20) as i64 - (1 << 19),
            }),
        },
        events: g.u64_in(0, u64::MAX),
        domains: g.vec_of(0, 20, |g| DomainFrame {
            name: name(g).into(),
            class: g.pick::<&str>(KNOWN_CLASSES),
            ways: g.u32_in(0, 20),
            cbm: maybe(g, |g| g.u64_in(0, u64::MAX)),
            ipc: finite(g),
            norm_ipc: maybe(g, finite),
            miss_rate: finite(g),
            baseline_ipc: maybe(g, finite),
            quarantined: g.bool_with(0.1),
            held: g.bool_with(0.1),
        }),
    }
}

#[test]
fn any_frame_reads_back_bit_identical() {
    run_cases("frames_round_trip", 300, |g| {
        let frame = random_frame(g);
        let line = encode_frame(&frame);
        let mut reader = FrameReader::default();
        reader
            .read_line(&header_line("prop"))
            .expect("the header reads");
        let Ok(Some(Record::Frame(back))) = reader.read_line(&line) else {
            panic!("{line} does not read back");
        };
        assert_eq!(back, frame, "{line}");
        let floats = |f: &Frame| -> Vec<Option<u64>> {
            let bits = |v: f64| Some(v.to_bits());
            f.domains
                .iter()
                .flat_map(|d| {
                    [
                        bits(d.ipc),
                        d.norm_ipc.map(f64::to_bits),
                        bits(d.miss_rate),
                        d.baseline_ipc.map(f64::to_bits),
                    ]
                })
                .collect()
        };
        assert_eq!(floats(&back), floats(&frame), "{line}");
    });
}
