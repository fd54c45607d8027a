//! The `dcat-frames/v1` validator's corpus: what it rejects and with which
//! message, and what it accepts and how the accepted frame re-encodes.
//!
//! Every case is a small stream built from one fully populated frame by a
//! single edit. `tests/golden/frames_malformed.txt` holds, per case, the
//! input and then either the `check_frames` error or `ok` followed by each
//! decoded frame as `encode_frame` writes it back. A reader change that
//! moves a message, a line number or a decoded value shows as a diff of
//! that file. Re-bless after a deliberate change with:
//!
//! ```sh
//! DCAT_BLESS=1 cargo test -p dcat-obs --test frames_malformed
//! ```

use std::path::PathBuf;

use dcat_obs::frames::{check_frames, encode_frame, parse_stream};

const HEADER: &str = r#"{"record":"frames_header","schema":"dcat-frames/v1","source":"corpus"}"#;

/// Every key the format has, each once: the edits below replace a
/// `"key":value` pair of it.
const FRAME: &str = concat!(
    r#"{"record":"frame","tick":7,"policy":"dcat","degraded":true,"reason":"resctrl","#,
    r#""ways_moved":2,"cos":3,"lfoc":{"clusters":2,"insensitive":1},"#,
    r#""memshare":{"lent":4,"credit_min":-7,"credit_max":12},"events":1,"domains":["#,
    r#"{"name":"vm0","class":"Keeper","ways":4,"cbm":240,"ipc":1.25,"norm_ipc":1.01,"#,
    r#""miss_rate":0.02,"baseline_ipc":1.23,"quarantined":false,"held":false}]}"#
);

/// The required fields as they appear in [`FRAME`], each with a value of
/// the wrong JSON type: (where, `"key":value`, mistyped value).
const REQUIRED: &[(&str, &str, &str)] = &[
    ("frame", r#""tick":7"#, r#""7""#),
    ("frame", r#""policy":"dcat""#, "5"),
    ("frame", r#""degraded":true"#, r#""yes""#),
    ("frame", r#""ways_moved":2"#, r#""2""#),
    ("frame", r#""cos":3"#, "true"),
    ("frame", r#""events":1"#, "null"),
    ("lfoc", r#""clusters":2"#, r#""2""#),
    ("lfoc", r#""insensitive":1"#, "[1]"),
    ("memshare", r#""lent":4"#, r#""4""#),
    ("memshare", r#""credit_min":-7"#, r#""-7""#),
    ("memshare", r#""credit_max":12"#, "false"),
    ("domain", r#""name":"vm0""#, "0"),
    ("domain", r#""class":"Keeper""#, "1"),
    ("domain", r#""ways":4"#, r#""4""#),
    ("domain", r#""ipc":1.25"#, "null"),
    ("domain", r#""miss_rate":0.02"#, r#""0.02""#),
    ("domain", r#""quarantined":false"#, "0"),
    ("domain", r#""held":false"#, r#""false""#),
];

/// [`FRAME`] with its one occurrence of `from` replaced by `to`.
fn edit(from: &str, to: &str) -> String {
    assert_eq!(
        FRAME.matches(from).count(),
        1,
        "'{from}' is not unique in FRAME"
    );
    FRAME.replacen(from, to, 1)
}

/// [`FRAME`] without the pair `kv` and the comma that joins it.
fn without(kv: &str) -> String {
    if FRAME.contains(&format!(",{kv}")) {
        edit(&format!(",{kv}"), "")
    } else {
        edit(&format!("{kv},"), "")
    }
}

fn key_of(kv: &str) -> &str {
    kv.split(':').next().unwrap_or(kv).trim_matches('"')
}

/// A header and then `frames`, one per line.
fn stream(frames: &[String]) -> String {
    let mut text = format!("{HEADER}\n");
    for f in frames {
        text.push_str(f);
        text.push('\n');
    }
    text
}

fn rejected() -> Vec<(String, String)> {
    let mut cases = Vec::new();
    for &(place, kv, _) in REQUIRED {
        cases.push((
            format!("{place} without '{}'", key_of(kv)),
            stream(&[without(kv)]),
        ));
    }
    for &(place, kv, wrong) in REQUIRED {
        let key = key_of(kv);
        cases.push((
            format!("{place} '{key}' mistyped as {wrong}"),
            stream(&[edit(kv, &format!("\"{key}\":{wrong}"))]),
        ));
    }
    let mut one = |name: &str, text: String| cases.push((name.to_string(), text));
    one(
        "domains not an array",
        stream(&[edit(r#""domains":["#, r#""domains":{"a":["#).replace("]}", "]}}")]),
    );
    one(
        "a domain that is not an object",
        stream(&[edit(r#""domains":[{"name""#, r#""domains":[1,{"name""#)]),
    );
    one(
        "lfoc not an object",
        stream(&[edit(
            r#""lfoc":{"clusters":2,"insensitive":1}"#,
            r#""lfoc":3"#,
        )]),
    );
    one(
        "unknown state class",
        stream(&[edit(r#""class":"Keeper""#, r#""class":"Sleeper""#)]),
    );
    one(
        "unknown degrade reason",
        stream(&[edit(r#""reason":"resctrl""#, r#""reason":"gremlins""#)]),
    );
    one(
        "degraded without a reason",
        stream(&[without(r#""reason":"resctrl""#)]),
    );
    one(
        "tick not increasing",
        stream(&[FRAME.to_string(), FRAME.to_string()]),
    );
    one(
        "tick going back",
        stream(&[edit(r#""tick":7"#, r#""tick":8"#), FRAME.to_string()]),
    );
    one("headerless", format!("{FRAME}\n"));
    one("frame before the header", format!("{FRAME}\n{HEADER}\n"));
    one("empty stream", String::new());
    one("blank lines only", "\n  \n".to_string());
    one("unknown schema", HEADER.replace("v1", "v9"));
    one(
        "header without a schema",
        HEADER.replace(r#","schema":"dcat-frames/v1""#, ""),
    );
    one(
        "header without a source",
        HEADER.replace(r#","source":"corpus""#, ""),
    );
    one("header source mistyped", HEADER.replace(r#""corpus""#, "7"));
    one(
        "unknown record kind",
        stream(&[edit(r#""record":"frame""#, r#""record":"frame_v2""#)]),
    );
    one("missing record", stream(&[without(r#""record":"frame""#)]));
    one(
        "record not a string",
        stream(&[edit(r#""record":"frame""#, r#""record":1"#)]),
    );
    one("not an object", stream(&["[1,2]".to_string()]));
    one(
        "truncated",
        stream(&[FRAME.get(..FRAME.len() / 2).unwrap_or_default().to_string()]),
    );
    one("trailing data", stream(&[format!("{FRAME} x")]));
    one(
        "two records on a line",
        stream(&[format!("{FRAME}{FRAME}")]),
    );
    one(
        "bad escape",
        stream(&[edit(r#""policy":"dcat""#, r#""policy":"d\qcat""#)]),
    );
    one(
        "truncated \\u escape",
        stream(&[edit(r#""policy":"dcat""#, r#""policy":"d\u00"#)]),
    );
    one(
        "bad literal",
        stream(&[edit(r#""held":false"#, r#""held":fals"#)]),
    );
    one("bad number", stream(&[edit(r#""ipc":1.25"#, r#""ipc":-"#)]));
    one(
        "bad exponent",
        stream(&[edit(r#""ipc":1.25"#, r#""ipc":1e"#)]),
    );
    one(
        "missing colon",
        stream(&[edit(r#""ipc":1.25"#, r#""ipc" 1.25"#)]),
    );
    one(
        "missing comma",
        stream(&[edit(r#""ipc":1.25,"#, r#""ipc":1.25 "#)]),
    );
    // Integers that are not the field's integer type.
    one(
        "ways negative",
        stream(&[edit(r#""ways":4"#, r#""ways":-3"#)]),
    );
    one(
        "ways fractional",
        stream(&[edit(r#""ways":4"#, r#""ways":4.7"#)]),
    );
    one(
        "ways with an exponent",
        stream(&[edit(r#""ways":4"#, r#""ways":4e0"#)]),
    );
    one(
        "ways 2^32",
        stream(&[edit(r#""ways":4"#, r#""ways":4294967296"#)]),
    );
    one(
        "tick negative",
        stream(&[edit(r#""tick":7"#, r#""tick":-1"#)]),
    );
    one(
        "tick 2^64",
        stream(&[edit(r#""tick":7"#, r#""tick":18446744073709551616"#)]),
    );
    one(
        "cbm negative",
        stream(&[edit(r#""cbm":240"#, r#""cbm":-1"#)]),
    );
    one(
        "cos fractional",
        stream(&[edit(r#""cos":3"#, r#""cos":2.5"#)]),
    );
    one(
        "credit_min below i64",
        stream(&[edit(
            r#""credit_min":-7"#,
            r#""credit_min":-9223372036854775809"#,
        )]),
    );
    one(
        "credit_max fractional",
        stream(&[edit(r#""credit_max":12"#, r#""credit_max":12.5"#)]),
    );
    cases
}

fn accepted() -> Vec<(String, String)> {
    let mut cases = Vec::new();
    let mut one = |name: &str, text: String| cases.push((name.to_string(), text));
    one("the base frame", stream(&[FRAME.to_string()]));
    one(
        "keys permuted",
        stream(&[concat!(
            r#"{"domains":[{"held":false,"quarantined":false,"baseline_ipc":1.23,"miss_rate":0.02,"#,
            r#""norm_ipc":1.01,"ipc":1.25,"cbm":240,"ways":4,"class":"Keeper","name":"vm0"}],"#,
            r#""events":1,"memshare":{"credit_max":12,"credit_min":-7,"lent":4},"#,
            r#""lfoc":{"insensitive":1,"clusters":2},"cos":3,"ways_moved":2,"reason":"resctrl","#,
            r#""degraded":true,"policy":"dcat","tick":7,"record":"frame"}"#
        )
        .to_string()]),
    );
    one(
        "whitespace between tokens",
        stream(&[format!(
            " \t{} ",
            FRAME
                .replace(',', " ,\t")
                .replace(':', "\t: ")
                .replace('{', "{ ")
                .replace('[', "[\t")
        )]),
    );
    one(
        "escaped names",
        stream(&[edit(r#""name":"vm0""#, r#""name":"v\"m\\0\/é\n\t\u0001""#)]),
    );
    one(
        "escaped key",
        stream(&[edit(r#""ways":4"#, r#""w\u0061ys":4"#)]),
    );
    one(
        "an unknown extra key",
        stream(&[edit(r#""cos":3"#, r#""cos":3,"extra":{"x":[1,"]",null]}"#)]),
    );
    one(
        "duplicate keys: the first one wins",
        stream(&[
            edit(r#""held":false"#, r#""held":false,"ways":9,"held":true"#)
                .replace(r#""events":1"#, r#""events":1,"tick":99,"lfoc":null"#),
        ]),
    );
    one(
        "a reason on a non-degraded frame",
        stream(&[edit(r#""degraded":true"#, r#""degraded":false"#)]),
    );
    one(
        "optionals null or absent",
        stream(&[edit(r#""cbm":240"#, r#""cbm":null"#)
            .replace(r#""norm_ipc":1.01,"#, "")
            .replace(r#""baseline_ipc":1.23"#, r#""baseline_ipc":null"#)
            .replace(r#""lfoc":{"clusters":2,"insensitive":1},"#, "")
            .replace(
                r#","memshare":{"lent":4,"credit_min":-7,"credit_max":12}"#,
                "",
            )]),
    );
    one(
        "no domains",
        stream(&[edit(r#"[{"name""#, r#"[],"x":[{"name""#)]),
    );
    one(
        "integer extremes",
        stream(&[
            edit(r#""credit_min":-7"#, r#""credit_min":-9223372036854775808"#)
                .replace(r#""cos":3"#, r#""cos":4294967295"#)
                .replace(r#""events":1"#, r#""events":18446744073709551615"#),
        ]),
    );
    // Above 2^53 an integer has no exact f64: these must still come back
    // exactly.
    one(
        "cbm 2^53 + 1",
        stream(&[edit(r#""cbm":240"#, r#""cbm":9007199254740993"#)]),
    );
    one(
        "ticks 2^53 and 2^53 + 1",
        stream(&[
            edit(r#""tick":7"#, r#""tick":9007199254740992"#),
            edit(r#""tick":7"#, r#""tick":9007199254740993"#),
        ]),
    );
    one(
        "two segments, ticks start over",
        format!(
            "{}{}",
            stream(&[FRAME.to_string()]),
            stream(&[FRAME.to_string()])
        ),
    );
    cases
}

/// `check_frames`' error, or `ok` and each decoded frame re-encoded
/// (which must read back as the same frame).
fn verdict(name: &str, input: &str) -> Result<String, String> {
    let err = check_frames(input).err();
    assert_eq!(parse_stream(input).err(), err, "{name}");
    if let Some(err) = err {
        return Err(format!("-> {err}\n"));
    }
    let mut out = String::from("-> ok\n");
    for seg in parse_stream(input).expect(name) {
        for f in &seg.frames {
            let line = encode_frame(&f);
            let text = stream(std::slice::from_ref(&line));
            let again = parse_stream(&text).expect(name);
            assert_eq!(again[0].frames.get(0), Some(f), "{name}");
            out.push_str(&format!(">  {line}\n"));
        }
    }
    Ok(out)
}

/// The rendered corpus, and the cases whose verdict is not the one their
/// list promises.
fn corpus() -> (String, Vec<String>) {
    let mut out = String::from(
        "# Malformed and accepted dcat-frames/v1 streams. Each case: `<` input lines,\n\
         # then `->` the check_frames error, or `-> ok` and `>` each frame re-encoded.\n",
    );
    let rejected = rejected();
    assert!(rejected.len() >= 48, "{} rejected cases", rejected.len());
    let mut wrong = Vec::new();
    let lists = [(false, rejected), (true, accepted())];
    for (accept, cases) in &lists {
        for (name, input) in cases {
            let verdict = verdict(name, input);
            if verdict.is_ok() != *accept {
                wrong.push(name.clone());
            }
            out.push_str(&format!("== {name}\n"));
            for line in input.lines() {
                out.push_str(&format!("<  {line}\n"));
            }
            out.push_str(&verdict.unwrap_or_else(|e| e));
        }
    }
    (out, wrong)
}

#[test]
fn the_validator_rejects_and_accepts_the_recorded_corpus() {
    let (text, wrong) = corpus();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frames_malformed.txt");
    if std::env::var_os("DCAT_BLESS").is_some() {
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); run with DCAT_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        text,
        expected,
        "the corpus verdicts diverged from {}",
        path.display()
    );
    assert!(wrong.is_empty(), "verdicts against their list: {wrong:?}");
}
