//! Minimal JSON emission *and parsing* for experiment reports.
//!
//! The offline build has no `serde`/`serde_json`, so the report types
//! hand-serialize through this small [`ToJson`] trait instead. Output is
//! pretty-printed with two-space indentation, close enough to
//! `serde_json::to_string_pretty` that the `target/experiments/*.json`
//! artifacts keep their shape.
//!
//! The scenario store reads its cached payloads back, so a matching
//! [`parse`] is provided: a strict recursive-descent parser producing a
//! [`Value`] tree that **borrows from the input text**. Numbers are raw
//! lexeme slices of it (not an eager `f64`), so 64-bit seeds and exactly
//! rendered floats survive a write → parse → reuse round trip without
//! precision loss. Strings and object keys borrow too, unless they hold
//! an escape: only those are unescaped into owned text.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Serializes a value to a JSON fragment.
pub trait ToJson {
    /// Appends this value's JSON representation to `out` with the given
    /// indentation depth (in two-space levels).
    fn write_json(&self, out: &mut String, indent: usize);

    /// This value as a pretty-printed JSON string.
    fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s, 0);
        s
    }
}

/// Pretty-prints any [`ToJson`] value — the drop-in replacement for
/// `serde_json::to_string_pretty` (minus the `Result`, since nothing
/// here can fail).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json()
}

/// Escapes a string for a JSON string literal (quotes included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

/// Appends `s` to `out` as a JSON string literal (quotes included):
/// `"`, `\` and the C0 controls are escaped — `\n`, `\r` and `\t` by
/// name, the rest as `\u00XX` — and the runs between them are copied
/// whole.
pub(crate) fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    while let Some(at) = next_escape(rest.as_bytes()) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            control => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(control >> 4)]));
                out.push(char::from(HEX[usize::from(control & 0xf)]));
            }
        }
        // The escaped byte is ASCII, so `at + 1` is a char boundary.
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// The index of the first byte of `bytes` that [`escape_into`] escapes,
/// found eight bytes at a time. `below(w, n)` flags the bytes of a word
/// under `n`; only the lowest flag is exact (a borrow can flag the
/// bytes above a hit), and the lowest is all this reads. No byte it
/// stops at occurs inside a multi-byte UTF-8 sequence.
fn next_escape(bytes: &[u8]) -> Option<usize> {
    const fn splat(b: u8) -> u64 {
        u64::from_ne_bytes([b; 8])
    }
    let below = |w: u64, n: u8| w.wrapping_sub(splat(n)) & !w & splat(0x80);
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let mut le = [0; 8];
        le.copy_from_slice(word);
        let w = u64::from_le_bytes(le);
        let hits = below(w ^ splat(b'"'), 1) | below(w ^ splat(b'\\'), 1) | below(w, 0x20);
        if hits != 0 {
            return Some(at + hits.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder();
    let hit = tail
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
    hit.map(|i| at + i)
}

/// Formats an `f64` the way JSON expects (finite; NaN/inf become null).
// detlint: allow(D7) -- perfbench/layers
pub fn number(v: f64) -> String {
    let mut out = String::new();
    number_into(v, &mut out);
    out
}

/// Appends [`number`]'s rendering of `v` to `out`.
pub(crate) fn number_into(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends the decimal rendering of `value` to `out`, digit by digit,
/// byte for byte what `{value}` formats. Values beyond `u64` are cut
/// into 19-digit chunks, so only they pay for `u128` division.
fn int_into(value: i128, out: &mut String) {
    const CHUNK: u128 = 10_000_000_000_000_000_000;
    // 39 digits cover `u128::MAX`, plus one for the sign.
    let mut buf = [0u8; 40];
    let mut at = buf.len();
    let mut digits = |mut n: u64, width: usize| loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 && buf.len() - at >= width {
            break;
        }
    };
    let mut n = value.unsigned_abs();
    let mut width = 0;
    while n > u128::from(u64::MAX) {
        width += 19;
        digits((n % CHUNK) as u64, width);
        n /= CHUNK;
    }
    digits(n as u64, 0);
    if value < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Appends `levels` two-space indentation levels to `out`, sliced from
/// one run of spaces.
fn indent_into(levels: usize, out: &mut String) {
    const SPACES: &str = "                                ";
    let mut n = 2 * levels;
    while n > 0 {
        let run = n.min(SPACES.len());
        out.push_str(&SPACES[..run]);
        n -= run;
    }
}

/// Formats a slice of `f64`s as a single-line JSON array fragment
/// (`[0.0, 0.5, 1.0]`) via [`number_into`] — the shared renderer for
/// every rates array in the analytics JSON.
pub(crate) fn number_array(values: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        number_into(v, &mut out);
    }
    out.push(']');
    out
}

/// Builder for one JSON object at a given indentation level.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    indent: usize,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object.
    pub fn new(out: &'a mut String, indent: usize) -> Self {
        out.push('{');
        ObjectWriter {
            out,
            indent,
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('\n');
        indent_into(self.indent + 1, self.out);
        escape_into(name, self.out);
        self.out.push_str(": ");
    }

    /// Emits a pre-rendered JSON fragment under `name`.
    pub fn raw(&mut self, name: &str, fragment: &str) -> &mut Self {
        self.key(name);
        self.out.push_str(fragment);
        self
    }

    /// Emits a string field.
    pub(crate) fn string(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        escape_into(value, self.out);
        self
    }

    /// Emits a float field.
    pub(crate) fn float(&mut self, name: &str, value: f64) -> &mut Self {
        self.key(name);
        number_into(value, self.out);
        self
    }

    /// Emits an integer field.
    pub(crate) fn int(&mut self, name: &str, value: i128) -> &mut Self {
        self.key(name);
        int_into(value, self.out);
        self
    }

    /// Emits an integer array field on one line (`[1, -2, 3]`).
    pub(crate) fn ints(&mut self, name: &str, values: &[i64]) -> &mut Self {
        self.key(name);
        self.out.push('[');
        for (i, value) in values.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            int_into(i128::from(*value), self.out);
        }
        self.out.push(']');
        self
    }

    /// Emits a boolean field.
    pub fn bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.key(name);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Emits a nested [`ToJson`] value.
    pub fn value<T: ToJson>(&mut self, name: &str, value: &T) -> &mut Self {
        self.key(name);
        value.write_json(self.out, self.indent + 1);
        self
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('\n');
        indent_into(self.indent, self.out);
        self.out.push('}');
    }
}

/// A parsed JSON value, borrowing from the text it was parsed from.
///
/// Objects keep their key order (a `Vec` of pairs, not a map) so a
/// parse → re-render pipeline is deterministic; numbers keep their raw
/// lexeme so integers beyond 2⁵³ and shortest-round-trip floats are
/// exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source lexeme (e.g. `"1.0"`, `"-3e8"`).
    Num(&'a str),
    /// A string (unescaped; borrowed unless it held an escape).
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object, in source key order.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// Looks up a key in an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array.
    // detlint: allow(D7) -- tests/verdict_suite.rs
    pub fn as_array(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A number as `f64` (possibly rounded for huge integers).
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// A number as an exact integer; `None` for floats or non-numbers.
    pub(crate) fn as_i128(&self) -> Option<i128> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// A number as `u64`; `None` for negatives, floats or non-numbers.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (one value, surrounded by optional
/// whitespace).
///
/// # Errors
///
/// Reports the byte offset and nature of the first syntax error,
/// trailing non-whitespace input, or nesting deeper than
/// [`MAX_DEPTH`] containers.
///
/// # Example
///
/// ```
/// use offramps_bench::json::{parse, Value};
///
/// let v = parse(r#"{"seed": 18446744073709551615, "ok": true}"#).unwrap();
/// assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
/// assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
/// assert!(parse("{oops").is_err());
/// ```
pub fn parse(text: &str) -> Result<Value<'_>, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(text, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

/// The deepest container nesting [`parse`] accepts. Artifacts nest a
/// handful of levels; the cap keeps a hostile store record from
/// overflowing the stack through the parser's recursion.
pub const MAX_DEPTH: usize = 128;

/// Parses one value inside `depth` enclosing containers.
fn parse_value<'a>(
    text: &'a str,
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Result<Value<'a>, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(text, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => parse_string(text, bytes, pos).map(Value::Str),
        Some(b't') if text[*pos..].starts_with("true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if text[*pos..].starts_with("false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if text[*pos..].starts_with("null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(b'-' | b'0'..=b'9') => parse_number(text, bytes, pos),
        Some(&c) => Err(format!("unexpected {:?} at byte {}", c as char, *pos)),
    }
}

fn parse_number<'a>(text: &'a str, bytes: &[u8], pos: &mut usize) -> Result<Value<'a>, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_from = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if *pos == digits_from {
        return Err(format!("bad number at byte {start}"));
    }
    // JSON forbids leading zeros: "01" is two tokens, not a number.
    if *pos - digits_from > 1 && bytes[digits_from] == b'0' {
        return Err(format!("leading zero in number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == frac_from {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == exp_from {
            return Err(format!("bad number at byte {start}"));
        }
    }
    Ok(Value::Num(&text[start..*pos]))
}

/// Parses a string literal. The bytes up to the closing quote are
/// borrowed as they stand; the first backslash or control byte (or the
/// end of input) hands over to the unescaping loop, which owns its
/// output and reports every malformed literal. None of those bytes can
/// occur inside a multi-byte UTF-8 sequence, so each slice point is a
/// char boundary.
fn parse_string<'a>(text: &'a str, bytes: &[u8], pos: &mut usize) -> Result<Cow<'a, str>, String> {
    expect(bytes, pos, b'"')?;
    let start = *pos;
    *pos += bytes[start..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(bytes.len() - start);
    if bytes.get(*pos) == Some(&b'"') {
        *pos += 1;
        return Ok(Cow::Borrowed(&text[start..*pos - 1]));
    }
    let mut out = text[start..*pos].to_string();
    loop {
        let rest = &text[*pos..];
        let Some(c) = rest.chars().next() else {
            return Err("unterminated string".into());
        };
        *pos += c.len_utf8();
        match c {
            '"' => return Ok(Cow::Owned(out)),
            '\\' => {
                let Some(esc) = text[*pos..].chars().next() else {
                    return Err("dangling escape".into());
                };
                *pos += esc.len_utf8();
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let unit = parse_hex4(bytes, pos)?;
                        // Surrogate pairs: 😀 and friends.
                        let c = if (0xd800..0xdc00).contains(&unit) {
                            if !text[*pos..].starts_with("\\u") {
                                return Err("lone high surrogate".into());
                            }
                            *pos += 2;
                            let low = parse_hex4(bytes, pos)?;
                            if !(0xdc00..0xe000).contains(&low) {
                                return Err("bad low surrogate".into());
                            }
                            let code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                            char::from_u32(code).ok_or("bad surrogate pair")?
                        } else if (0xdc00..0xe000).contains(&unit) {
                            return Err("lone low surrogate".into());
                        } else {
                            char::from_u32(unit).ok_or("bad \\u escape")?
                        };
                        out.push(c);
                    }
                    other => return Err(format!("unknown escape \\{other}")),
                }
            }
            c if (c as u32) < 0x20 => {
                return Err(format!("raw control character {:#04x} in string", c as u32))
            }
            c => out.push(c),
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let end = *pos + 4;
    if end > bytes.len() {
        return Err("truncated \\u escape".into());
    }
    let hex = std::str::from_utf8(&bytes[*pos..end]).map_err(|_| "bad \\u escape")?;
    let unit = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
    *pos = end;
    Ok(unit)
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, indent: usize) {
        if self.is_empty() {
            out.push_str("[]");
            return;
        }
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            for _ in 0..=indent {
                out.push_str("  ");
            }
            item.write_json(out, indent + 1);
        }
        out.push('\n');
        for _ in 0..indent {
            out.push_str("  ");
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        self.as_slice().write_json(out, indent);
    }
}

impl ToJson for offramps::Mismatch {
    fn write_json(&self, out: &mut String, indent: usize) {
        let mut w = ObjectWriter::new(out, indent);
        w.int("index", self.index as i128)
            .int("axis", self.axis as i128)
            .int("golden", self.golden as i128)
            .int("observed", self.observed as i128)
            .float("percent", self.percent);
        w.finish();
    }
}

impl ToJson for offramps::Evidence {
    /// One detector's sufficient statistics. Partial shapes are part of
    /// the schema: `alarmed` is `null` and `threshold` absent for
    /// unjudged evidence, `final_totals_match` and `peak` appear only
    /// when the detector produced them (see
    /// [`crate::cache::decode_result`] for the strict reader).
    fn write_json(&self, out: &mut String, indent: usize) {
        let mut w = ObjectWriter::new(out, indent);
        w.string("detector", &self.detector);
        match self.alarmed {
            Some(a) => w.bool("alarmed", a),
            None => w.raw("alarmed", "null"),
        };
        w.int("flagged", self.flagged as i128)
            .int("flagged_values", self.flagged_values as i128)
            .int("compared", self.compared as i128);
        if let Some(threshold) = self.threshold {
            w.float("threshold", threshold);
        }
        if self.judged() {
            w.float("peak", self.peak);
        }
        if let Some(totals) = self.final_totals_match {
            w.bool("final_totals_match", totals);
        }
        w.finish();
    }
}

impl ToJson for offramps::DetectionReport {
    fn write_json(&self, out: &mut String, indent: usize) {
        let mut w = ObjectWriter::new(out, indent);
        w.bool("trojan_suspected", self.suspected())
            .float("largest_percent", self.evidence.peak)
            .int("transactions_compared", self.evidence.compared as i128)
            .int("length_difference", self.length_difference as i128);
        match self.evidence.final_totals_match {
            Some(v) => w.bool("final_totals_match", v),
            None => w.raw("final_totals_match", "null"),
        };
        w.value("mismatches", &self.mismatches);
        w.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Point {
        x: f64,
        label: String,
    }

    impl ToJson for Point {
        fn write_json(&self, out: &mut String, indent: usize) {
            let mut w = ObjectWriter::new(out, indent);
            w.float("x", self.x).string("label", &self.label);
            w.finish();
        }
    }

    /// The char-by-char escaper the run scan replaced, kept as the
    /// reference the scan must match byte for byte.
    fn escape_reference(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Every ASCII byte at every offset of fillers 0–24 bytes long (so
    /// each position of the scan's 8-byte words), multibyte UTF-8 at
    /// every offset, and runs of adjacent escapes, all match the
    /// reference and parse back.
    #[test]
    fn run_scan_escaping_matches_the_char_by_char_reference() {
        const SPECIALS: &str = "\"\\\n\r\t\u{1}\u{1f}";
        let mut probes = vec![String::new()];
        for len in 1..=24 {
            for at in 0..len {
                for b in 0u8..0x80 {
                    let mut s = "a".repeat(len);
                    s.replace_range(at..=at, char::from(b).encode_utf8(&mut [0; 4]));
                    probes.push(s);
                }
                for c in ['é', '𝄞', '\u{2028}'] {
                    let mut s = "a".repeat(len);
                    s.insert(at, c);
                    probes.push(s.clone());
                    s.push(c);
                    probes.push(s);
                }
                let mut s = "a".repeat(len);
                s.insert_str(at, &SPECIALS.repeat(3));
                probes.push(s);
            }
        }
        probes.push(SPECIALS.repeat(40));
        probes.push(format!("é{SPECIALS}𝄞\u{2028}{SPECIALS}é").repeat(9));
        let mut out = String::from("prefix");
        for probe in probes {
            out.truncate("prefix".len());
            escape_into(&probe, &mut out);
            let escaped = &out["prefix".len()..];
            assert_eq!(escaped, escape_reference(&probe), "{probe:?}");
            assert_eq!(parse(escaped).unwrap().as_str(), Some(probe.as_str()));
        }
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn escapes_every_control_char() {
        // All of C0 must come out as an escape, never raw.
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let escaped = escape(&c.to_string());
            assert!(
                !escaped.chars().any(char::is_control),
                "U+{code:04X} leaked raw: {escaped:?}"
            );
            // And parse back to the original character.
            let parsed = parse(&escaped).unwrap();
            assert_eq!(
                parsed.as_str(),
                Some(c.to_string().as_str()),
                "U+{code:04X}"
            );
        }
        assert_eq!(escape("\u{7}"), "\"\\u0007\"");
        assert_eq!(escape("\t\r\n"), "\"\\t\\r\\n\"");
    }

    #[test]
    fn non_bmp_codepoints_pass_through_and_parse() {
        // Non-BMP text is emitted as raw UTF-8 (valid JSON) …
        let s = "emoji 😀 and math 𝕫";
        let escaped = escape(s);
        assert_eq!(escaped, format!("\"{s}\""));
        assert_eq!(parse(&escaped).unwrap().as_str(), Some(s));
        // … and the surrogate-pair escape form decodes to the same
        // character.
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
        assert!(parse("\"\\ud83d\"").is_err(), "lone high surrogate");
        assert!(parse("\"\\ude00\"").is_err(), "lone low surrogate");
        assert!(parse("\"\\ud83dx\"").is_err(), "high surrogate then text");
    }

    #[test]
    fn escape_free_strings_borrow_and_escaped_ones_own() {
        let text = r#"{"plain": "abc é 😀", "key\"q": "tab\there \"q\" back\\slash", "u": "\u00e9\ud83d\ude00\/", "n": -2.5e3}"#;
        let v = parse(text).unwrap();
        let Value::Obj(pairs) = &v else {
            panic!("expected object, got {v:?}")
        };
        let within = |s: &str| text.as_bytes().as_ptr_range().contains(&s.as_ptr());
        assert!(matches!(&pairs[0].0, Cow::Borrowed(k) if *k == "plain" && within(k)));
        assert!(
            matches!(&pairs[0].1, Value::Str(Cow::Borrowed(s)) if *s == "abc é 😀" && within(s))
        );
        assert!(matches!(&pairs[3].1, Value::Num(n) if *n == "-2.5e3" && within(n)));
        // Escaped text is unescaped into owned strings, as before.
        assert!(matches!(&pairs[1].0, Cow::Owned(k) if k == "key\"q"));
        assert!(
            matches!(&pairs[1].1, Value::Str(Cow::Owned(s)) if s == "tab\there \"q\" back\\slash")
        );
        assert!(matches!(&pairs[2].1, Value::Str(Cow::Owned(s)) if s == "é😀/"));
        assert_eq!(
            v.get("key\"q").and_then(Value::as_str),
            Some("tab\there \"q\" back\\slash")
        );
    }

    #[test]
    fn escape_round_trips_awkward_strings() {
        for s in [
            "",
            "say \"hi\"",
            "back\\slash\\",
            "tab\tend",
            "\u{1}",
            "naïve café",
            "emoji 😀",
            "\"\\\t\u{1}é😀 all at once",
        ] {
            let escaped = escape(s);
            assert_eq!(parse(&escaped).unwrap().as_str(), Some(s), "{escaped}");
        }
    }

    #[test]
    fn malformed_strings_keep_their_error_messages() {
        // The messages the unescaping loop has always reported: the
        // borrowing scan hands every malformed literal over to it.
        for (bad, err) in [
            ("\"a\u{1}b\\n\"", "raw control character 0x01 in string"),
            ("\"a\\nb\u{1f}\"", "raw control character 0x1f in string"),
            ("{\"a\u{1}\": 1}", "raw control character 0x01 in string"),
            ("\"abc", "unterminated string"),
            ("\"a\\nbc", "unterminated string"),
            ("\"abc\\", "dangling escape"),
            ("{\"k\\", "dangling escape"),
            ("\"\\ud83d\"", "lone high surrogate"),
            ("\"\\ude00\"", "lone low surrogate"),
        ] {
            assert_eq!(parse(bad), Err(err.to_string()), "{bad:?}");
        }
    }

    #[test]
    fn numbers_render_json_safe() {
        assert_eq!(number(1.0), "1.0");
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(-3.0), "-3.0");
        assert_eq!(number(0.0), "0.0");
        // Non-finite values have no JSON number form: they become null
        // rather than emitting `NaN`/`inf` and corrupting the document.
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
        // Large magnitudes switch off the ".0" integral rendering but
        // stay parseable.
        let big = number(1e300);
        assert_eq!(parse(&big).unwrap().as_f64(), Some(1e300));
    }

    #[test]
    fn parser_handles_scalars_nesting_and_rejects_garbage() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(vec![]));
        let v = parse(r#"{"a": [1, -2.5, 3e8], "b": {"c": null}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_i128(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(3e8));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        for bad in [
            "",
            "tru",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{a: 1}",
            "1 2",
            "0x10",
            "01x",
            "01",
            "-007.5",
            "\"\u{1}\"",
            "\"\\q\"",
            "- 1",
            "1.",
            ".5",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_capped_without_recursing_past_the_cap() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "0" + &"}".repeat(n);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for deep in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
        }
        // Far past the cap, unterminated: an error, not a stack overflow.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(200_000)).is_err());
    }

    #[test]
    fn numbers_keep_raw_lexemes_for_exactness() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.as_i128(), Some(u64::MAX as i128));
        let v = parse("-170141183460469231731687303715884105728").unwrap();
        assert_eq!(v.as_i128(), Some(i128::MIN));
        assert_eq!(
            parse("2.5").unwrap().as_i128(),
            None,
            "floats are not integers"
        );
        assert_eq!(
            parse("\"2\"").unwrap().as_u64(),
            None,
            "strings are not numbers"
        );
    }

    #[test]
    fn writer_output_round_trips_through_the_parser() {
        // The report writer's own output — nested objects, arrays,
        // floats, escapes — must be readable by the parser with nothing
        // lost: the scenario store depends on this.
        let pts = vec![
            Point {
                x: -0.125,
                label: "tab\there \"and\" emoji 😀".into(),
            },
            Point {
                x: 3.0,
                label: String::new(),
            },
        ];
        let json = to_string_pretty(&pts);
        let v = parse(&json).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("x").unwrap().as_f64(), Some(-0.125));
        assert_eq!(
            arr[0].get("label").unwrap().as_str(),
            Some("tab\there \"and\" emoji 😀")
        );
        assert_eq!(arr[1].get("x").unwrap().as_f64(), Some(3.0));
        assert_eq!(arr[1].get("label").unwrap().as_str(), Some(""));
        // Key order survives (objects are ordered pairs, not maps).
        match &arr[0] {
            Value::Obj(pairs) => {
                let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_ref()).collect();
                assert_eq!(keys, vec!["x", "label"]);
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn objects_and_arrays_nest() {
        let pts = vec![
            Point {
                x: 1.0,
                label: "a".into(),
            },
            Point {
                x: 2.5,
                label: "b \"q\"".into(),
            },
        ];
        let json = to_string_pretty(&pts);
        assert!(json.starts_with("[\n  {\n"));
        assert!(json.contains("\"x\": 1.0"));
        assert!(json.contains("\"label\": \"b \\\"q\\\"\""));
        assert!(json.ends_with("\n]"));
    }

    /// The digit loop renders every integer the way `format!` does:
    /// zero, ±1, the `i64`/`u64` extremes, the `i128` extremes and the
    /// chunk and power-of-ten edges around them.
    #[test]
    fn int_into_matches_format() {
        let mut probes: Vec<i128> = vec![
            0,
            1,
            -1,
            i64::MIN.into(),
            i64::MAX.into(),
            u64::MAX.into(),
            i128::from(u64::MAX) + 1,
            i128::MIN,
            i128::MAX,
            i128::MIN + 1,
        ];
        for p in 0..39 {
            let ten = 10i128.pow(p);
            probes.extend([ten - 1, ten, ten + 1]);
            probes.extend(ten.checked_mul(3));
            probes.extend([1 - ten, -ten, -ten - 1]);
        }
        for v in probes {
            let mut out = String::from("x");
            int_into(v, &mut out);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn empty_vec_is_compact() {
        let v: Vec<Point> = Vec::new();
        assert_eq!(to_string_pretty(&v), "[]");
    }
}
