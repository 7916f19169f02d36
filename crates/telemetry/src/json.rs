//! A hand-rolled JSON emitter and a small parser.
//!
//! The workspace is offline (no serde); telemetry reports, STATS and
//! TRACE documents and the figure bins' `BENCH_<figure>.json` are written
//! through [`JsonWriter`], which preserves insertion order so output is
//! byte-stable for golden tests, and read back through
//! [`JsonValue::parse`] in round-trip tests and by the in-tree clients.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An order-preserving JSON document builder.
///
/// The writer is a state machine over a single output string: `begin_*` /
/// `end_*` nest, `key` names the next value inside an object, and the
/// scalar methods emit values. Commas and quoting are handled internally.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the current container already has an element.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn pad(&mut self) {
        if let Some(last) = self.needs_comma.last_mut() {
            if *last {
                self.out.push(',');
            }
            *last = true;
        }
    }

    /// Opens the root or a nested object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.pad();
        self.out.push('{');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.out.push('}');
        self
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.pad();
        self.out.push('[');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.out.push(']');
        self
    }

    /// Emits an object key; the next emitted value belongs to it.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.pad();
        write_escaped(&mut self.out, k);
        self.out.push(':');
        // The value after a key must not emit another comma.
        if let Some(last) = self.needs_comma.last_mut() {
            *last = false;
        }
        self
    }

    /// Emits a string value.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.pad();
        write_escaped(&mut self.out, v);
        self
    }

    /// Emits an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.pad();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Emits a signed integer.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.pad();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Emits a float with a stable short representation (3 decimal places
    /// — enough for ns/op and percentages, and byte-stable across runs of
    /// identical inputs). Non-finite values become `null`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.pad();
        if v.is_finite() {
            let _ = write!(self.out, "{v:.3}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Emits a boolean.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.pad();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Emits a `null` — the convention for "no value", e.g. a statistic
    /// over an empty set (as opposed to a zero, which reads as measured).
    pub fn null(&mut self) -> &mut Self {
        self.pad();
        self.out.push_str("null");
        self
    }

    /// Splices an already-rendered JSON document in as a value — how the
    /// server nests a [`crate::TelemetryReport`]'s JSON inside its own
    /// stats document without re-parsing it. The caller owns the claim
    /// that `json` is well-formed; garbage in, garbage out.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.pad();
        self.out.push_str(json);
        self
    }

    /// Convenience: `key` + `u64`.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).u64(v)
    }

    /// Convenience: `key` + `f64`.
    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k).f64(v)
    }

    /// Convenience: `key` + `string`.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).string(v)
    }

    /// Convenience: `key` + `bool`.
    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k).bool(v)
    }

    /// Convenience: `key` + `raw`.
    pub fn field_raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k).raw(json)
    }

    /// Finishes and returns the document.
    #[must_use]
    pub fn finish(self) -> String {
        debug_assert!(self.needs_comma.is_empty(), "unclosed container");
        self.out
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
}

/// A parsed JSON value (for round-trip tests and in-tree consumers).
///
/// Objects are stored in a `BTreeMap`, so structural equality ignores key
/// order — exactly the equivalence round-trip tests want.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as f64.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses a JSON document. Returns an error message with a byte
    /// offset on malformed input.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object member lookup; `None` for non-objects or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Array contents, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Number)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always on a boundary).
                let rest = &bytes[*pos..];
                let s = unsafe { std::str::from_utf8_unchecked(rest) };
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_values_round_trip() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("missing")
            .null()
            .key("list")
            .begin_array()
            .null()
            .u64(1)
            .end_array()
            .end_object();
        let s = w.finish();
        assert_eq!(s, r#"{"missing":null,"list":[null,1]}"#);
        let v = JsonValue::parse(&s).expect("parses");
        assert_eq!(v.get("missing").unwrap(), &JsonValue::Null);
        assert_eq!(
            v.get("list").unwrap().as_array().unwrap()[0],
            JsonValue::Null
        );
    }

    #[test]
    fn writer_emits_stable_order() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_str("name", "x")
            .field_u64("count", 3)
            .key("nested")
            .begin_object()
            .field_f64("ratio", 0.5)
            .end_object()
            .key("list")
            .begin_array()
            .u64(1)
            .u64(2)
            .end_array()
            .end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"x","count":3,"nested":{"ratio":0.500},"list":[1,2]}"#
        );
    }

    #[test]
    fn escaping() {
        let mut w = JsonWriter::new();
        w.begin_object().field_str("k", "a\"b\\c\nd").end_object();
        let text = w.finish();
        assert_eq!(text, "{\"k\":\"a\\\"b\\\\c\\nd\"}");
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(parsed.get("k").unwrap().as_str().unwrap(), "a\"b\\c\nd");
    }

    #[test]
    fn parse_roundtrip() {
        let text = r#"{"a":1,"b":[true,false,null],"c":{"d":"e"},"f":-2.5}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64().unwrap(), 1.0);
        assert_eq!(v.get("b").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str().unwrap(), "e");
        assert_eq!(v.get("f").unwrap().as_f64().unwrap(), -2.5);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{} extra").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn raw_splices_nested_documents() {
        let mut inner = JsonWriter::new();
        inner.begin_object().field_u64("sites", 3).end_object();
        let inner = inner.finish();
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_str("mode", "gocc")
            .field_raw("telemetry", &inner)
            .key("list")
            .begin_array()
            .raw("1")
            .raw("2")
            .end_array()
            .end_object();
        let text = w.finish();
        assert_eq!(
            text,
            r#"{"mode":"gocc","telemetry":{"sites":3},"list":[1,2]}"#
        );
        let v = JsonValue::parse(&text).unwrap();
        assert_eq!(
            v.get("telemetry").unwrap().get("sites").unwrap().as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_object().field_f64("x", f64::NAN).end_object();
        assert_eq!(w.finish(), r#"{"x":null}"#);
    }
}
