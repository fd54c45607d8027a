//! Hand-rolled JSON support: string escaping, the one float printer, an
//! insertion-ordered object builder, and a minimal recursive-descent parser
//! that either builds a [`Value`] tree or [`scan`]s a document into its
//! values' texts without building any.
//!
//! The workspace is dependency-free by policy, so there is no serde. The
//! builder is what every producer in this crate (and `dcat::Event`) uses to
//! render records; the parser exists so the frame and flight readers and the
//! round-trip tests can validate the producers without a second implementation of the
//! escaping rules.

use std::borrow::Cow;
use std::ops::Range;

use crate::pow10_table::{K_MIN, POW10};

/// Append `s` to `out` with JSON string escaping applied.
pub(crate) fn escape_into(out: &mut String, s: &str) {
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
    scan(text).map(|doc| doc.root().value())
}

/// Scan a complete JSON document into its values' texts, building none.
/// The whole text is checked, so a syntax error anywhere is reported
/// before any value is read.
pub fn scan(text: &str) -> Result<Scanned<'_>, String> {
    // A frame line has a value per 15 bytes or so: one allocation each.
    let values = (text.len() >> 4) + (text.len() >> 5) + 1;
    let (nodes, kids) = (Vec::with_capacity(values), Vec::with_capacity(values));
    let mut doc = Scanned { nodes, kids };
    let mut p = Parser::new(text);
    p.skip_ws();
    if p.value(&mut doc, &mut Vec::with_capacity(32)).is_err() {
        return Err(p.error);
    }
    p.skip_ws();
    match p.peek() {
        Some(_) => Err(format!("trailing data at byte {}", p.pos)),
        None => Ok(doc),
    }
}

/// A scanned document: per value, in document order, its text and where
/// its children sit in `kids`; per object or array, its children side by
/// side as `(key, value)`, the key empty for an array element.
#[derive(Debug)]
pub struct Scanned<'a> {
    nodes: Vec<(&'a str, Range<usize>)>,
    kids: Vec<(Cow<'a, str>, usize)>,
}

impl<'a> Scanned<'a> {
    pub fn root(&self) -> Item<'_, 'a> {
        Item { doc: self, at: 0 }
    }
}

/// One value of a [`Scanned`] document.
#[derive(Debug, Clone, Copy)]
pub struct Item<'s, 'a> {
    doc: &'s Scanned<'a>,
    at: usize,
}

impl<'s, 'a> Item<'s, 'a> {
    /// The value's text, exactly as in the document.
    pub(crate) fn text(self) -> &'a str {
        self.doc.nodes.get(self.at).map_or("", |n| n.0)
    }

    /// The values directly inside this one, in order, with their keys.
    pub(crate) fn children(self) -> impl Iterator<Item = (&'s str, Item<'s, 'a>)> {
        let doc = self.doc;
        let kids = doc
            .nodes
            .get(self.at)
            .and_then(|n| doc.kids.get(n.1.clone()));
        let kids = kids.unwrap_or_default().iter();
        kids.map(move |(key, at)| (&**key, Item { doc, at: *at }))
    }

    /// The object member called `key`; of duplicates the first, as
    /// [`Value::get`] reads.
    pub fn get(self, key: &str) -> Option<Item<'s, 'a>> {
        self.children().find(|&(k, _)| k == key).map(|(_, v)| v)
    }

    pub(crate) fn is_array(self) -> bool {
        self.text().starts_with('[')
    }

    /// The string this value spells, unescaped; `None` when it is not one.
    pub fn as_str(self) -> Option<Cow<'a, str>> {
        let text = self.text();
        text.starts_with('"')
            .then(|| Parser::new(text).string().ok())?
    }

    /// The [`Value`] tree this item spells.
    pub(crate) fn value(self) -> Value {
        match self.text().bytes().next() {
            Some(b'{') => Value::Obj(
                self.children()
                    .map(|(k, v)| (k.into(), v.value()))
                    .collect(),
            ),
            Some(b'[') => Value::Arr(self.children().map(|(_, v)| v.value()).collect()),
            Some(b'"') => Value::Str(self.as_str().unwrap_or_default().into_owned()),
            Some(b't' | b'f') => Value::Bool(self.text() == "true"),
            Some(b'n') => Value::Null,
            // The scan admits only numbers `f64::from_str` reads.
            _ => Value::Num(self.text().parse().unwrap_or(f64::NAN)),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// What stopped the scan.
    error: String,
}

/// A syntax error, its message left in [`Parser::error`]: the grammar's
/// results stay a register wide.
struct Stop;

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        let error = String::new();
        Parser {
            text,
            pos: 0,
            error,
        }
    }

    #[cold]
    fn fail(&mut self, what: impl std::fmt::Display) -> Stop {
        self.error = format!("{what} at byte {}", self.pos);
        Stop
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), Stop> {
        if self.peek() != Some(b) {
            return Err(self.fail(format_args!("expected '{}'", b as char)));
        }
        self.pos += 1;
        Ok(())
    }

    /// `text[start..pos]`: both ends sit next to ASCII the grammar matched.
    fn since(&self, start: usize) -> &'a str {
        self.text.get(start..self.pos).unwrap_or_default()
    }

    /// How many bytes from `pos` on match `byte`.
    fn run(&self, byte: impl Fn(u8) -> bool) -> usize {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        rest.iter().position(|&b| !byte(b)).unwrap_or(rest.len())
    }

    /// Appends the value at `pos`, and every value inside it, to `doc`; an
    /// object's or array's children wait in `pending` until it closes.
    fn value(
        &mut self,
        doc: &mut Scanned<'a>,
        pending: &mut Vec<(Cow<'a, str>, usize)>,
    ) -> Result<(), Stop> {
        let (at, start, mut kids) = (doc.nodes.len(), self.pos, 0..0);
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                let close = if open == b'{' { b'}' } else { b']' };
                // Held until its text is known; its children follow it.
                doc.nodes.push(("", 0..0));
                let mark = pending.len();
                self.pos += 1;
                self.skip_ws();
                let mut more = self.peek() != Some(close);
                self.pos += usize::from(!more);
                while more {
                    self.skip_ws();
                    let mut key = Cow::Borrowed("");
                    if open == b'{' {
                        key = self.string()?;
                        self.skip_ws();
                        self.expect(b':')?;
                        self.skip_ws();
                    }
                    pending.push((key, doc.nodes.len()));
                    self.value(doc, pending)?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {}
                        Some(b) if b == close => more = false,
                        _ => {
                            return Err(
                                self.fail(format_args!("expected ',' or '{}'", close as char))
                            )
                        }
                    }
                    self.pos += 1;
                }
                kids = doc.kids.len()..doc.kids.len() + pending.len() - mark;
                doc.kids.extend(pending.drain(mark..));
            }
            Some(b'"') => drop(self.string()?),
            Some(b'-' | b'0'..=b'9') => self.number()?,
            Some(b't') => self.literal("true")?,
            Some(b'f') => self.literal("false")?,
            Some(b'n') => self.literal("null")?,
            _ => return Err(self.fail("unexpected value")),
        }
        let node = (self.since(start), kids);
        match doc.nodes.get_mut(at) {
            Some(held) => *held = node,
            None => doc.nodes.push(node),
        }
        Ok(())
    }

    fn literal(&mut self, word: &str) -> Result<(), Stop> {
        if !self
            .text
            .get(self.pos..)
            .unwrap_or_default()
            .starts_with(word)
        {
            return Err(self.fail("bad literal"));
        }
        self.pos += word.len();
        Ok(())
    }

    /// The string at `pos`: borrowed from the text unless it has escapes.
    #[inline(always)]
    fn string(&mut self) -> Result<Cow<'a, str>, Stop> {
        self.expect(b'"')?;
        let start = self.pos;
        self.pos += self.plain_run();
        if self.peek() != Some(b'"') {
            return self.unescape(start).map(Cow::Owned);
        }
        self.pos += 1;
        Ok(Cow::Borrowed(
            self.text.get(start..self.pos - 1).unwrap_or_default(),
        ))
    }

    /// The rest of a string that began at `start` and has an escape (or no
    /// end) at `pos`, decoded. Out of line: names and keys have no escapes.
    #[cold]
    fn unescape(&mut self, start: usize) -> Result<String, Stop> {
        let mut out = String::from(self.since(start));
        // These messages carry no position.
        let fail = |p: &mut Self, what: &str| {
            p.error = what.to_string();
            Stop
        };
        loop {
            match self.peek() {
                None => return Err(fail(self, "unterminated string")),
                Some(b'"') => break,
                // The backslash.
                Some(_) => self.pos += 1,
            }
            let Some(esc) = self.peek() else {
                return Err(fail(self, "unterminated escape"));
            };
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let Some(hex) = self.text.as_bytes().get(self.pos..self.pos + 4) else {
                        return Err(fail(self, "truncated \\u escape"));
                    };
                    let Ok(hex) = std::str::from_utf8(hex) else {
                        return Err(fail(self, "non-utf8 \\u escape"));
                    };
                    let Ok(code) = u32::from_str_radix(hex, 16) else {
                        return Err(fail(self, "bad \\u escape"));
                    };
                    self.pos += 4;
                    // Surrogate pairs are not produced by this crate's
                    // writers; map lone surrogates to the replacement
                    // character rather than failing the whole parse.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(self.fail("bad escape")),
            });
            let run = self.pos;
            self.pos += self.plain_run();
            out.push_str(self.since(run));
        }
        self.pos += 1;
        Ok(out)
    }

    /// The number at `pos`: a digit at least before the exponent and one
    /// after it, as `f64::from_str` requires.
    #[inline(always)]
    fn number(&mut self) -> Result<(), Stop> {
        let start = self.pos;
        let digits = |p: &mut Self, sign: &[u8]| {
            p.pos += usize::from(p.peek().is_some_and(|b| sign.contains(&b)));
            let n = p.run(|b| b.is_ascii_digit());
            p.pos += n;
            n
        };
        let mut found = digits(self, b"-");
        if self.peek() == Some(b'.') {
            found += digits(self, b".");
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            found = found.min(digits(self, b"+-"));
        }
        if found == 0 {
            let text = self.since(start);
            self.pos = start;
            return Err(self.fail(format_args!("bad number '{text}'")));
        }
        Ok(())
    }

    /// How many bytes from `pos` on are neither `"` nor `\`, eight at a
    /// time: strings are most of a frame line.
    fn plain_run(&self) -> usize {
        const ONES: u64 = u64::from_le_bytes([1; 8]);
        // A byte of `w` equal to `b` sets its high bit; bytes past the
        // first such may be set spuriously, which `trailing_zeros` never
        // reaches.
        let find = |w: u64, b: u8| {
            let x = w ^ (ONES * u64::from(b));
            x.wrapping_sub(ONES) & !x & (ONES << 7)
        };
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        let mut words = rest.chunks_exact(8);
        let mut run = 0;
        for word in &mut words {
            let w = u64::from_le_bytes(word.try_into().unwrap_or_default());
            let hits = find(w, b'"') | find(w, b'\\');
            if hits != 0 {
                return run + (hits.trailing_zeros() >> 3) as usize;
            }
            run += 8;
        }
        let tail = words.remainder();
        run + tail
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(tail.len())
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
    fn a_number_scans_exactly_when_f64_parses_it() {
        let mut texts = vec![String::new()];
        for _ in 0..5 {
            let longer: Vec<String> = texts
                .iter()
                .flat_map(|t| ["-", ".", "e", "E", "+", "0", "7"].map(|b| format!("{t}{b}")))
                .collect();
            texts.extend(longer);
        }
        texts.sort();
        texts.dedup();
        for text in texts.iter().filter(|t| t.starts_with(['-', '0', '7'])) {
            let number = text.parse::<f64>();
            assert_eq!(scan(text).is_ok(), number.is_ok(), "{text}");
            assert_eq!(parse(text).ok(), number.ok().map(Value::Num), "{text}");
        }
    }

    #[test]
    fn scan_indexes_members_in_order_and_reads_the_first_duplicate() {
        let doc = scan(r#" {"a":[1,{"b":"x\u0041"}],"k\u0065y":null,"a":2} "#).unwrap();
        let root = doc.root();
        let keys: Vec<&str> = root.children().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "key", "a"]);
        let a = root.get("a").unwrap();
        assert!(a.is_array());
        let elems: Vec<&str> = a.children().map(|(_, v)| v.text()).collect();
        assert_eq!(elems, ["1", r#"{"b":"x\u0041"}"#]);
        let b = a.children().nth(1).unwrap().1.get("b").unwrap();
        assert_eq!(b.as_str().as_deref(), Some("xA"));
        assert_eq!(root.get("key").map(Item::text), Some("null"));
        assert_eq!(root.get("a").and_then(Item::as_str), None);
        assert!(scan(r#"{"a":[1,}"#).is_err());
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
