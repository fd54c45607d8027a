//! Byte oracle for `SmallRng::gen_range`.
//!
//! Every stream seed, frame placement and key draw in the workspace goes
//! through Lemire's rejection loop, so both the values it returns *and*
//! how many generator words it consumes per draw (the rejections) are
//! part of every recorded experiment. `tests/golden/gen_range_v1.txt`
//! records, per span, an FNV-1a digest of 10 000 draws and the number of
//! `next_u64` words they consumed, taken from the loop that evaluated
//! `2^64 mod span` on every draw, before its accept path was shortened.
//!
//! Regenerate only for a deliberate generator change, never for a
//! performance change:
//!
//! ```sh
//! DCAT_BLESS=1 cargo test -p smallrng --test golden_gen_range
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use smallrng::SmallRng;

const DRAWS: usize = 10_000;
const SEED: u64 = 0xD_CA7;

/// Spans on both sides of every branch: one, a power of two, small odd
/// spans, the paper LLC's set count, just above 2^32, and the two
/// extremes where half of all words, and almost none, are rejected.
const SPANS: [u64; 9] = [
    1,
    2,
    3,
    7,
    10,
    36_864,
    (1 << 32) + 1,
    (1 << 63) + 5,
    u64::MAX,
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/gen_range_v1.txt")
}

/// How many `next_u64` calls take a fresh `SEED` generator to `rng`'s state.
fn words_consumed(rng: &SmallRng) -> usize {
    let mut reference = SmallRng::seed_from_u64(SEED);
    for words in 0..=64 * DRAWS {
        if reference == *rng {
            return words;
        }
        reference.next_u64();
    }
    panic!("generator state is not on the seed's orbit");
}

#[test]
fn gen_range_reproduces_the_recorded_draws_and_word_counts() {
    let mut lines = String::new();
    for span in SPANS {
        let mut rng = SmallRng::seed_from_u64(SEED);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..DRAWS {
            let v = rng.gen_range(0..span);
            for b in v.to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let words = words_consumed(&rng);
        writeln!(lines, "{span} {digest:016x} {words}").expect("write to a String");
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
        "gen_range diverged from {}; draws and rejections are frozen",
        path.display()
    );
}
