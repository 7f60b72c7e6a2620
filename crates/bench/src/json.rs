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
//! [`Value`] tree. Numbers keep their **raw source text** ([`Value`]
//! stores the lexeme, not an eager `f64`), so 64-bit seeds and exactly
//! rendered floats survive a write → parse → reuse round trip without
//! precision loss.

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

/// Formats an `f64` the way JSON expects (finite; NaN/inf become null).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{:.1}", v)
        } else {
            format!("{v}")
        }
    } else {
        "null".into()
    }
}

/// Formats a slice of `f64`s as a single-line JSON array fragment
/// (`[0.0, 0.5, 1.0]`) via [`number`] — the shared renderer for every
/// rates array in the analytics JSON.
pub fn number_array(values: &[f64]) -> String {
    let rendered: Vec<String> = values.iter().map(|v| number(*v)).collect();
    format!("[{}]", rendered.join(", "))
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
        for _ in 0..=self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(&escape(name));
        self.out.push_str(": ");
    }

    /// Emits a pre-rendered JSON fragment under `name`.
    pub fn raw(&mut self, name: &str, fragment: &str) -> &mut Self {
        self.key(name);
        self.out.push_str(fragment);
        self
    }

    /// Emits a string field.
    pub fn string(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        let escaped = escape(value);
        self.out.push_str(&escaped);
        self
    }

    /// Emits a float field.
    pub fn float(&mut self, name: &str, value: f64) -> &mut Self {
        self.key(name);
        let rendered = number(value);
        self.out.push_str(&rendered);
        self
    }

    /// Emits an integer field.
    pub fn int(&mut self, name: &str, value: i128) -> &mut Self {
        self.key(name);
        let _ = write!(self.out, "{value}");
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
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push('}');
    }
}

/// A parsed JSON value.
///
/// Objects keep their key order (a `Vec` of pairs, not a map) so a
/// parse → re-render pipeline is deterministic; numbers keep their raw
/// lexeme so integers beyond 2⁵³ and shortest-round-trip floats are
/// exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source lexeme (e.g. `"1.0"`, `"-3e8"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
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
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// A number as an exact integer; `None` for floats or non-numbers.
    pub fn as_i128(&self) -> Option<i128> {
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
pub fn parse(text: &str) -> Result<Value, String> {
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
fn parse_value(text: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
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
                let Value::Str(key) = parse_string(text, bytes, pos)? else {
                    unreachable!("parse_string returns Str")
                };
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
        Some(b'"') => parse_string(text, bytes, pos),
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

fn parse_number(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
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
    Ok(Value::Num(text[start..*pos].to_string()))
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let rest = &text[*pos..];
        let Some(c) = rest.chars().next() else {
            return Err("unterminated string".into());
        };
        *pos += c.len_utf8();
        match c {
            '"' => return Ok(Value::Str(out)),
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
                let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
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

    #[test]
    fn empty_vec_is_compact() {
        let v: Vec<Point> = Vec::new();
        assert_eq!(to_string_pretty(&v), "[]");
    }
}
