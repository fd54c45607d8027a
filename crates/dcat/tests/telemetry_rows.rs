//! The telemetry row parser against the one it replaced.
//!
//! `parse_row` now splits on the comma byte, trims only a field whose end
//! bytes say it might need it, and reads short all-digit fields itself;
//! everything else still goes through `str::trim` and `str::parse`. The
//! promise is that no accepted value and no `RowIssue` text moved, so this
//! file keeps the previous `parse_row` verbatim as [`oracle`] and drives
//! both over the corpus and over rows built to sit on every edge of the
//! fast paths: same outcome, same message, every time.

use dcat::parse_telemetry_lossy;
use perf_events::CounterSnapshot;

#[allow(dead_code, reason = "only the texts are read here")]
mod corpus;

/// What one line amounts to, in either parser's words.
#[derive(Debug, PartialEq)]
enum Outcome {
    Skip,
    Sample(String, CounterSnapshot),
    Bad(Option<String>, String),
}

mod oracle {
    use super::{CounterSnapshot, Outcome};

    enum Row<'a> {
        Skip,
        Sample(&'a str, CounterSnapshot),
        Bad(Option<&'a str>, String),
    }

    /// `dcat::telemetry::parse_row` as it stood before the byte-level
    /// rewrite. Not to be tidied: it is the specification.
    fn parse_row(line: &str) -> Row<'_> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Row::Skip;
        }
        let mut fields = [""; 6];
        let mut count = 0usize;
        for field in line.split(',') {
            if let Some(slot) = fields.get_mut(count) {
                *slot = field.trim();
            }
            count += 1;
        }
        let [name, l1_ref, llc_ref, llc_miss, ret_ins, cycles] = fields;
        let domain = Some(name).filter(|name| !name.is_empty());
        if count != 6 {
            return Row::Bad(domain, format!("expected 6 fields, got {count}"));
        }
        // The first malformed field wins the row's issue report; the
        // parsed value of a bad field is irrelevant (the row is dropped).
        let mut bad = None;
        let mut parse = |raw: &str, what: &str| -> u64 {
            match raw.parse() {
                Ok(v) => v,
                Err(e) => {
                    if bad.is_none() {
                        bad = Some(format!("bad {what} {raw:?}: {e}"));
                    }
                    0
                }
            }
        };
        let snap = CounterSnapshot {
            l1_ref: parse(l1_ref, "l1_ref"),
            llc_ref: parse(llc_ref, "llc_ref"),
            llc_miss: parse(llc_miss, "llc_miss"),
            ret_ins: parse(ret_ins, "ret_ins"),
            cycles: parse(cycles, "cycles"),
        };
        match (bad, domain) {
            (Some(message), _) => Row::Bad(domain, message),
            (None, None) => Row::Bad(None, "empty domain name".to_string()),
            (None, Some(name)) => Row::Sample(name, snap),
        }
    }

    pub fn outcome(line: &str) -> Outcome {
        match parse_row(line) {
            Row::Skip => Outcome::Skip,
            Row::Sample(name, snap) => Outcome::Sample(name.to_string(), snap),
            Row::Bad(domain, message) => Outcome::Bad(domain.map(str::to_string), message),
        }
    }
}

/// The live parser's verdict on one line (no `\n` in it), read back from
/// the public collector: one sample, one issue, or neither.
fn live_outcome(line: &str) -> Outcome {
    let (mut samples, mut issues) = parse_telemetry_lossy(line);
    match (samples.pop_first(), issues.pop()) {
        (None, None) => Outcome::Skip,
        (Some((name, snap)), None) => Outcome::Sample(name, snap),
        (None, Some(issue)) => {
            assert_eq!(issue.line, 1);
            Outcome::Bad(issue.domain, issue.message)
        }
        (Some(_), Some(_)) => panic!("{line:?} is both a sample and an issue"),
    }
}

/// Asserts the two parsers agree on `line`; returns what they said.
fn agree(line: &str) -> Outcome {
    let want = oracle::outcome(line);
    assert_eq!(live_outcome(line), want, "on line {line:?}");
    want
}

const NAMES: &[&str] = &[
    "a",
    "tenant-07",
    " a",
    "a ",
    "\ta\t",
    "\u{a0}a",
    "a\u{a0}",
    "\u{3000}a\u{3000}",
    "a b",
    "é",
    "vm-ü",
    "ü",
    "\u{7f}a",
    "a\u{7f}",
    "a#",
    "#a",
    "\"a\"",
    "",
    " ",
    "\u{a0}",
];

const NUMBERS: &[&str] = &[
    "0",
    "7",
    "+7",
    "-7",
    "-0",
    "+",
    "-",
    "007",
    " 7",
    "7 ",
    "\t7\t",
    "\u{a0}7",
    "7\u{a0}",
    "\u{3000}7\u{3000}",
    "7\u{b}",
    "\u{c}7",
    "7 7",
    "",
    " ",
    "x",
    "7x",
    "x7",
    "3.5",
    "1e3",
    "0x10",
    "٣",
    "７",
    "123456789012345678",    // 18 digits
    "1000000000000000000",   // 19, the last length read directly
    "9999999999999999999",   // 19, the largest
    "+9999999999999999999",  // 20 bytes, 19 digits
    "09999999999999999999",  // 20 digits, fits
    "00000000000000000001",  // 20 digits, fits
    "10000000000000000000",  // 20 digits, fits
    "18446744073709551615",  // u64::MAX
    "18446744073709551616",  // one more
    "99999999999999999999",  // 20 digits, wraps if folded blindly
    "100000000000000000000", // 21
    "000000000000000000007", // 21, fits
    " 9999999999999999999 ",
    "18446744073709551615\u{a0}",
];

fn row(name: &str, numbers: [&str; 5]) -> String {
    format!("{name},{}", numbers.join(","))
}

#[test]
fn every_corpus_line_parses_as_before() {
    let mut lines = 0;
    for case in corpus::CASES {
        for line in case.text.lines() {
            agree(line);
            lines += 1;
        }
    }
    assert!(lines >= 79, "the corpus shrank to {lines} lines");
}

#[test]
fn every_field_variant_in_every_position() {
    let healthy = ["1", "22", "333", "4444", "55555"];
    assert_eq!(
        agree(&row("a", healthy)),
        Outcome::Sample(
            "a".into(),
            CounterSnapshot {
                l1_ref: 1,
                llc_ref: 22,
                llc_miss: 333,
                ret_ins: 4444,
                cycles: 55555,
            }
        )
    );
    for name in NAMES {
        agree(&row(name, healthy));
        agree(&row(name, ["x", "2", "3", "4", "5"]));
        agree(name);
    }
    for number in NUMBERS {
        for position in 0..5 {
            let mut numbers = healthy;
            numbers[position] = number;
            agree(&row("a", numbers));
            // The first bad field names the issue: a second one after it.
            numbers[4] = "y";
            agree(&row("a", numbers));
        }
    }
}

#[test]
fn the_digit_lane_stops_at_nineteen_digits() {
    let parsed = |number: &str| agree(&row("a", [number, "2", "3", "4", "5"]));
    let l1 = |outcome| match outcome {
        Outcome::Sample(_, snap) => snap.l1_ref,
        other => panic!("expected a sample, got {other:?}"),
    };
    assert_eq!(l1(parsed("9999999999999999999")), 9_999_999_999_999_999_999);
    assert_eq!(l1(parsed("18446744073709551615")), u64::MAX);
    assert_eq!(l1(parsed("00000000000000000001")), 1);
    assert_eq!(l1(parsed("+7")), 7);
    for too_large in [
        "18446744073709551616",
        "99999999999999999999",
        "100000000000000000000",
    ] {
        assert_eq!(
            parsed(too_large),
            Outcome::Bad(
                Some("a".into()),
                format!("bad l1_ref {too_large:?}: number too large to fit in target type")
            )
        );
    }
}

#[test]
fn field_counts_comments_blanks_and_line_ends() {
    for line in [
        "",
        " ",
        "\t",
        "\r",
        "\u{a0}",
        "\u{3000} \u{a0}",
        "#",
        "# name,l1_ref,llc_ref,llc_miss,ret_ins,cycles",
        "  # indented, with, commas",
        "\u{a0}# behind a no-break space",
        "#a,1,2,3,4,5",
        "a",
        ",",
        ",,,,,",
        ",,,,,,",
        "a,1,2,3,4",
        "a,1,2,3,4,",
        "a,1,2,3,4,5,",
        "a,1,2,3,4,5,6",
        " a,1,2,3,4,5,6,7,8,9 ",
        ",1,2,3,4,5",
        " ,1,2,3,4,5",
        "\u{a0},1,2,3,4,5",
        "a,1,2,3,4,5\r",
        "a,1,2,3,4,5 \r",
        "\u{feff}a,1,2,3,4,5",
        "  a , 1,2 ,\t3,4,5  ",
        "\u{3000}a\u{3000},\u{a0}1\u{a0},2,3,4,5\u{3000}",
        "a,1,2,3,4,5\u{a0}",
        "a,1,2,3,4,\u{a0}",
        "é,1,2,3,4,5",
        "a,é,2,3,4,5",
        "a,1,2,3,4,5é",
        "é",
        "a,1,2,3,4,é,",
    ] {
        agree(line);
    }
    // CRLF text: `lines` takes the `\r\n`, the parser never sees it.
    let crlf = "# h\r\na,1,2,3,4,5\r\n\r\nb,1,2,3,4,x\r\n";
    for line in crlf.lines() {
        agree(line);
    }
}

/// Rows assembled at random from the same parts, with a random number of
/// fields and random padding around the line.
#[test]
fn seeded_rows_from_the_same_parts() {
    const PADS: &[&str] = &["", "", "", " ", "\t", "\r", "\u{a0}", "\u{3000}", "# "];
    let mut samples = 0u32;
    prop_lite::run_cases("telemetry_rows", 20_000, |g| {
        let mut line = String::from(*g.pick(PADS));
        // Mostly six fields, mostly healthy ones, so that whole rows get
        // through and a lone odd field is what decides the outcome.
        let fields = if g.bool_with(0.8) {
            6
        } else {
            g.usize_in(1, 8)
        };
        for k in 0..fields {
            if k > 0 {
                line.push(',');
            }
            let healthy = g.bool_with(0.7);
            line.push_str(match (k, healthy) {
                (0, true) => "tenant-07",
                (0, false) => g.pick::<&str>(NAMES),
                (_, true) => "1234567",
                (_, false) => g.pick::<&str>(NUMBERS),
            });
        }
        line.push_str(g.pick::<&str>(PADS));
        if matches!(agree(&line), Outcome::Sample(..)) {
            samples += 1;
        }
    });
    assert!(
        samples > 2_000,
        "only {samples} generated rows were accepted"
    );
}
