//! Byte oracle for the reference streams.
//!
//! Every figure, table and fleet run is a function of the `MemRef`
//! sequences the generators emit, and the generators sit on the
//! simulator's per-reference path, where they get rewritten for speed.
//! `tests/golden/streams_v1.txt` records an FNV-1a digest of the first
//! 100 000 references (`vaddr`, `kind`, `ends_request`) of each stream,
//! taken from the `% lines` cursors, the unconditional-threshold
//! `SmallRng::bounded` and the default `next_batch` bodies before any of
//! them was replaced. Each stream is drawn twice — through `next_access`
//! alone and through an interleaving of `next_access` and `next_batch` of
//! sizes 1, 7, 64 and 1000 — and both draws must reproduce the record.
//!
//! The sequences are frozen; regenerate only when a model is meant to
//! change, never for a performance change:
//!
//! ```sh
//! DCAT_BLESS=1 cargo test -p workloads --test golden_streams
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use llc_sim::AccessKind;
use workloads::phased::Phase;
use workloads::{
    AccessStream, DiurnalStream, ElasticsearchModel, Lookbusy, MemRef, Mload, Mlr, PhasedStream,
    PostgresModel, RedisModel,
};

const WINDOW: usize = 100_000;
const MB: u64 = 1024 * 1024;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mem_ref(&mut self, r: &MemRef) {
        self.bytes(&r.vaddr.0.to_le_bytes());
        self.bytes(&[
            match r.kind {
                AccessKind::Load => 0,
                AccessKind::Store => 1,
            },
            u8::from(r.ends_request),
        ]);
    }
}

/// Digest of the first `WINDOW` references, one `next_access` at a time.
fn digest_by_access(mut stream: Box<dyn AccessStream>) -> u64 {
    let mut h = Fnv::new();
    for _ in 0..WINDOW {
        h.mem_ref(&stream.next_access());
    }
    h.0
}

/// Digest of the first `WINDOW` references drawn through a fixed mix of
/// single accesses and batches; a batch that straddles the end of the
/// window contributes only its head.
fn digest_interleaved(mut stream: Box<dyn AccessStream>) -> u64 {
    let mut h = Fnv::new();
    let mut batch = Vec::new();
    let mut taken = 0;
    'window: loop {
        for step in [0usize, 1, 0, 0, 7, 64, 0, 1000, 7, 1] {
            if step == 0 {
                batch.clear();
                batch.push(stream.next_access());
            } else {
                stream.next_batch(&mut batch, step);
                assert_eq!(batch.len(), step, "next_batch must fill exactly n");
            }
            for r in &batch {
                if taken == WINDOW {
                    break 'window;
                }
                h.mem_ref(r);
                taken += 1;
            }
        }
    }
    h.0
}

fn diurnal(inner: Box<dyn AccessStream>, phase: usize) -> Box<dyn AccessStream> {
    // 64 requests per curve step is what the fleet's tenants use.
    Box::new(DiurnalStream::day(inner, 64, phase))
}

/// A stream factory: each recorded stream is built twice.
type Build = Box<dyn Fn() -> Box<dyn AccessStream>>;

/// The recorded streams.
fn streams() -> Vec<(&'static str, Build)> {
    vec![
        ("lookbusy", Box::new(|| Box::new(Lookbusy::new()))),
        ("mload_one_line", Box::new(|| Box::new(Mload::new(64)))),
        // 1 563 lines: the cursor wraps 63 times inside the window.
        ("mload_wrapping", Box::new(|| Box::new(Mload::new(100_032)))),
        ("mload_60mb", Box::new(|| Box::new(Mload::new(60 * MB)))),
        ("mlr_8mb", Box::new(|| Box::new(Mlr::new(8 * MB, 11)))),
        // 24 576 lines: a span that is not a power of two.
        ("mlr_fleet", Box::new(|| Box::new(Mlr::new(3 * MB / 2, 12)))),
        (
            "redis_paper",
            Box::new(|| Box::new(RedisModel::paper_default(13))),
        ),
        (
            "postgres_paper",
            Box::new(|| Box::new(PostgresModel::paper_default(14))),
        ),
        (
            "elasticsearch_paper",
            Box::new(|| Box::new(ElasticsearchModel::paper_default(15))),
        ),
        (
            "redis_fleet_zipf",
            Box::new(|| Box::new(RedisModel::new(6_000, 128, 0.99, 16))),
        ),
        (
            "postgres_fleet",
            Box::new(|| Box::new(PostgresModel::new(8_000, 17))),
        ),
        (
            "elasticsearch_fleet_zipf",
            Box::new(|| Box::new(ElasticsearchModel::new(1_500, 512, 18))),
        ),
        (
            "phased_cycling",
            Box::new(|| {
                Box::new(PhasedStream::cycling(vec![
                    Phase {
                        stream: Box::new(Mlr::new(6 * MB, 19)),
                        accesses: 4_000,
                    },
                    Phase {
                        stream: Box::new(Mload::new(30 * MB)),
                        accesses: 6_500,
                    },
                ]))
            }),
        ),
        (
            "diurnal_day_redis",
            Box::new(|| diurnal(Box::new(RedisModel::new(6_000, 128, 0.99, 20)), 3)),
        ),
        (
            "diurnal_day_mload",
            Box::new(|| diurnal(Box::new(Mload::new(6 * MB)), 0)),
        ),
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/streams_v1.txt")
}

#[test]
fn streams_reproduce_the_recorded_digests() {
    let mut lines = String::new();
    for (name, build) in streams() {
        let digest = digest_by_access(build());
        assert_eq!(
            digest_interleaved(build()),
            digest,
            "{name}: next_batch must emit what repeated next_access emits"
        );
        writeln!(lines, "{name} {digest:016x}").expect("write to a String");
    }

    let path = golden_path();
    if std::env::var_os("DCAT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, &lines).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); run with DCAT_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        lines,
        expected,
        "reference streams diverged from {}; the sequences are frozen",
        path.display()
    );
}
