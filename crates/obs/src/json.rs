//! Hand-rolled JSON support: string escaping, the one float printer, an
//! insertion-ordered object builder, and a minimal recursive-descent parser.
//!
//! The workspace is dependency-free by policy, so there is no serde. The
//! builder is what every producer in this crate (and `dcat::events`) uses to
//! render records; the parser exists so `obs-dump --check` and the round-trip
//! tests can validate the producers without a second implementation of the
//! escaping rules.

use crate::pow10_table::{K_MIN, POW10};

/// Append `s` to `out` with JSON string escaping applied.
pub fn escape_into(out: &mut String, s: &str) {
    // Domain, class and policy names: nothing to escape, one copy.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xf;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
}

/// Escape `s` and wrap it in double quotes.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Append `v` spelt exactly as `format!("{v:?}")` spells it — the shortest
/// digits that read back as `v`, positional with at least one fraction
/// digit from `1e-4` up to (not including) `1e16`, `d.ddde-x` outside —
/// without `core::fmt`. Every float this crate renders goes through here;
/// `{:?}` survives only as the oracle in `tests/shortest_f64.rs`.
#[expect(
    clippy::indexing_slicing,
    clippy::integer_division,
    reason = "`buf` has room for the widest form, `DIGIT_PAIRS` is indexed by a two-digit pair, and the divisions peel decimal digits; `.get()` would cost every frame (DESIGN.md §16)"
)]
pub fn push_f64(out: &mut String, v: f64) {
    let bits = v.to_bits();
    let negative = bits >> 63 != 0;
    let biased = (bits >> 52) & 0x7ff;
    let fraction = bits & ((1 << 52) - 1);
    if biased == 0x7ff {
        out.push_str(match (fraction, negative) {
            (0, false) => "inf",
            (0, true) => "-inf",
            _ => "NaN",
        });
        return;
    }
    if biased == 0 && fraction == 0 {
        out.push_str(if negative { "-0.0" } else { "0.0" });
        return;
    }
    let (mut digits, mut exp10) = shortest_decimal(fraction, biased);
    // A ratio of two counters rarely ends in a zero; a short value (`2.0`,
    // `0.25`) ends in up to sixteen: strip eight, four, two, one at a time.
    if digits % 10 == 0 {
        while digits % 100_000_000 == 0 {
            digits /= 100_000_000;
            exp10 += 8;
        }
        for (power, zeros) in [(10_000, 4), (100, 2), (10, 1)] {
            if digits % power == 0 {
                digits /= power;
                exp10 += zeros;
            }
        }
    }

    // One buffer, one `push_str`. The (at most 17) digits end at DIGITS_END;
    // in front of them is room for `-0.000`, behind them for `e-324` or the
    // 15 zeros and `.0` of an integer below 1e16. Zero-filled, so a run of
    // zeros is written by moving `start` or `end` over it.
    const DIGITS_END: usize = 23;
    let mut buf = [b'0'; 40];
    let mut start = DIGITS_END;
    let mut end = DIGITS_END;
    let mut rest = digits;
    while rest >= 10 {
        let pair = (rest % 100) as usize * 2;
        rest /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if rest > 0 {
        start -= 1;
        buf[start] = b'0' + rest as u8;
    }
    let len = end - start;
    // How many of the digits sit left of the decimal point (negative: that
    // many zeros between the point and the first digit).
    let point = len as i32 + exp10;

    // `{:?}` chooses the form on the value, not on the digit count.
    if !(1e-4..1e16).contains(&v.abs()) {
        if len > 1 {
            buf[start - 1] = buf[start];
            buf[start] = b'.';
            start -= 1;
        }
        buf[end] = b'e';
        end += 1;
        let mut exp = point - 1;
        if exp < 0 {
            buf[end] = b'-';
            end += 1;
            exp = -exp;
        }
        if exp >= 100 {
            buf[end] = b'0' + (exp / 100) as u8;
            end += 1;
        }
        if exp >= 10 {
            buf[end] = b'0' + (exp / 10 % 10) as u8;
            end += 1;
        }
        buf[end] = b'0' + (exp % 10) as u8;
        end += 1;
    } else if point <= 0 {
        start -= point.unsigned_abs() as usize + 2;
        buf[start + 1] = b'.';
    } else if (point as usize) < len {
        let point = point as usize;
        buf.copy_within(start..start + point, start - 1);
        start -= 1;
        buf[start + point] = b'.';
    } else {
        end += point as usize - len;
        buf[end] = b'.';
        end += 2;
    }
    if negative {
        start -= 1;
        buf[start] = b'-';
    }
    // Only ASCII was written, so this borrows; `lossy` because it has no
    // error arm to leave unhandled on the tick path.
    out.push_str(&String::from_utf8_lossy(&buf[start..end]));
}

const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Schubfach (Giulietti 2020): the shortest `digits * 10^exp10` inside the
/// rounding interval of the finite, non-zero double with these fields, the
/// closest to it where two are as short. `digits` may end in zeros.
///
/// With `v = c * 2^q`, pick `k = floor(log10(2^q))` so the interval (width
/// `2^q`) spans between one and ten units of `10^k`; scale `v` and the
/// interval's two ends by `10^-k` with one 64x128-bit product each, rounded
/// to odd so that comparisons against integers stay exact, all times four to
/// keep the half-ulp ends integral. Then `s = floor(v / 10^k)`: a multiple
/// of ten units inside the interval is shorter and unique; otherwise of
/// `s` and `s + 1` take the one inside, or the closer when both are.
#[expect(
    clippy::indexing_slicing,
    clippy::integer_division,
    reason = "`POW10` spans every `-k` a finite double yields, and the divisions are the algorithm's digit arithmetic"
)]
fn shortest_decimal(fraction: u64, biased: u64) -> (u64, i32) {
    let (c, q) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased as i32 - 1075)
    };
    // Reading back rounds to nearest-even: an interval end belongs to `v`
    // only when `c` is even.
    let open = u64::from(c & 1 != 0);
    // At a power of two the double below is half as far as the one above.
    let lower_closer = fraction == 0 && biased > 1;

    let k = if lower_closer {
        (q * 1_262_611 - 524_031) >> 22 // floor(log10(3/4 * 2^q))
    } else {
        (q * 1_262_611) >> 22 // floor(log10(2^q))
    };
    let h = q + ((-k * 1_741_647) >> 19) + 1; // q + floor(log2(10^-k)) + 1, in 1..=4
    let g = POW10[(-k - K_MIN) as usize];
    let scale = |c4: u64| round_to_odd(g, c4 << h);
    let lower = scale(4 * c - 2 + u64::from(lower_closer)) + open;
    let vb = scale(4 * c);
    let upper = scale(4 * c + 2) - open;

    let s = vb / 4;
    if s >= 10 {
        let sp = s / 10;
        let down_inside = lower <= 40 * sp;
        let up_inside = 40 * sp + 40 <= upper;
        if down_inside != up_inside {
            return (sp + u64::from(up_inside), k + 1);
        }
    }
    let down_inside = lower <= 4 * s;
    let up_inside = 4 * s + 4 <= upper;
    if down_inside != up_inside {
        return (s + u64::from(up_inside), k);
    }
    // `vb` is exact only when even (round-to-odd), so `==` here is a true
    // tie between `s` and `s + 1`. The paper breaks it to even; std's
    // `{:?}` breaks it upward (562949953421312.25 prints `…312.3`).
    let mid = 4 * s + 2;
    (s + u64::from(vb >= mid), k)
}

/// `floor(g * cp / 2^128)` for 128-bit `g = (hi, lo)`, with the lowest bit
/// set if any bit below it was (so the result is odd when inexact).
fn round_to_odd((g_hi, g_lo): (u64, u64), cp: u64) -> u64 {
    let x = u128::from(g_lo) * u128::from(cp);
    let y = u128::from(g_hi) * u128::from(cp);
    let (y0, carry) = (y as u64).overflowing_add((x >> 64) as u64);
    let y1 = (y >> 64) as u64 + u64::from(carry);
    y1 | u64::from(y0 > 1)
}

/// Insertion-ordered JSON object builder.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj { buf: String::new() }
    }

    fn key(&mut self, k: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    pub fn str_field(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    pub fn u64_field(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    pub fn bool_field(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Append a field whose value is already-rendered JSON (object, array,
    /// number...). The caller is responsible for `raw` being valid.
    pub fn raw_field(mut self, k: &str, raw: &str) -> Self {
        self.key(k);
        self.buf.push_str(raw);
        self
    }

    pub fn finish(self) -> String {
        let mut out = String::with_capacity(self.buf.len() + 2);
        out.push('{');
        out.push_str(&self.buf);
        out.push('}');
        out
    }
}

/// Render a JSON array from already-rendered element strings.
pub fn array(elems: &[String]) -> String {
    let mut out = String::new();
    out.push('[');
    for (i, e) in elems.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(e);
    }
    out.push(']');
    out
}

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up a member of an object value by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected value at byte {}", self.pos)),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`pos` never passes `bytes.len()`: it advances only past bytes `peek` saw"
    )]
    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut elems = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(elems));
        }
        loop {
            self.skip_ws();
            elems.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(elems));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "both slices are checked against `bytes.len()` on the line before"
    )]
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "non-utf8 \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this crate's
                            // writers; map lone surrogates to the replacement
                            // character rather than failing the whole parse.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences from the source.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    if width == 1 {
                        out.push(b as char);
                    } else {
                        if end > self.bytes.len() {
                            return Err("truncated utf-8 sequence".to_string());
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| "invalid utf-8 in string".to_string())?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`start..pos` lies in `bytes`: `pos` advances only past bytes `peek` saw"
    )]
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

fn utf8_width(lead: u8) -> usize {
    if lead < 0x80 {
        1
    } else if lead >> 5 == 0b110 {
        2
    } else if lead >> 4 == 0b1110 {
        3
    } else {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
        assert_eq!(quote("a\\b"), "\"a\\\\b\"");
        assert_eq!(quote("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn object_builder_renders_in_insertion_order() {
        let s = Obj::new()
            .str_field("event", "x")
            .u64_field("tick", 7)
            .bool_field("ok", true)
            .raw_field("spans", "[]")
            .finish();
        assert_eq!(s, "{\"event\":\"x\",\"tick\":7,\"ok\":true,\"spans\":[]}");
    }

    #[test]
    fn parser_round_trips_builder_output() {
        let s = Obj::new()
            .str_field("msg", "quote \" slash \\ nl \n done")
            .u64_field("n", 42)
            .finish();
        let v = parse(&s).unwrap();
        assert_eq!(
            v.get("msg").and_then(Value::as_str),
            Some("quote \" slash \\ nl \n done")
        );
        assert_eq!(v.get("n").and_then(Value::as_num), Some(42.0));
    }

    #[test]
    fn parser_handles_nesting_arrays_and_literals() {
        let v = parse("{\"a\":[1,2.5,-3e2,true,false,null],\"b\":{\"c\":\"d\"}}").unwrap();
        match v.get("a") {
            Some(Value::Arr(elems)) => {
                assert_eq!(elems.len(), 6);
                assert_eq!(elems[1], Value::Num(2.5));
                assert_eq!(elems[2], Value::Num(-300.0));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str),
            Some("d")
        );
    }

    #[test]
    fn parser_handles_unicode_text() {
        let s = Obj::new().str_field("vm", "vm-ü-7").finish();
        let v = parse(&s).unwrap();
        assert_eq!(v.get("vm").and_then(Value::as_str), Some("vm-ü-7"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}
