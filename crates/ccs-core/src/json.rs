//! Minimal JSON support used for (de)serialising instances and the
//! `ccs-wire/1` frames.
//!
//! The build environment of this workspace is fully offline, so `serde` /
//! `serde_json` are not available; this module provides the small subset of
//! JSON actually needed, in two parts:
//!
//! * [`parse`], a recursive-descent parser into a [`JsonValue`] tree.  All
//!   numbers appearing in serialised instances are unsigned integers, which
//!   are kept exact as `i128` (floats are parsed but only needed for
//!   forward compatibility).
//! * [`JsonWriter`], a streaming writer of compact JSON.  The instance,
//!   error and wire-frame encoders write through it, straight from typed
//!   values, and so does [`JsonValue::to_json`].  Objects must be written in
//!   ascending key order — the order a `BTreeMap` tree emits — and debug
//!   builds assert it.

use crate::error::{CcsError, Result};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number (no exponent, no fraction), kept exact.
    Int(i128),
    /// A non-integral number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; key order is not preserved.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as `u64` if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `f64`; integers are widened (exact up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Member lookup on an object (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|map| map.get(key))
    }

    /// An empty object, ready for [`JsonValue::set`] chaining.
    pub fn object() -> JsonValue {
        JsonValue::Object(BTreeMap::new())
    }

    /// Inserts a member into an object value (no-op on non-objects).
    pub fn set(&mut self, key: &str, value: impl Into<JsonValue>) {
        if let JsonValue::Object(map) = self {
            map.insert(key.to_string(), value.into());
        }
    }

    /// Serialises the value to a compact JSON string.
    pub fn to_json(&self) -> String {
        JsonWriter::line(|w| {
            w.value(self);
        })
        .into_string()
    }

    /// Serialises the value to an indented, diff-friendly JSON string
    /// (used for committed artifacts such as bench baselines).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(map) if !map.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_string(key, out);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => out.push_str(&other.to_json()),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Int(v as i128)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v as i128)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Int(v as i128)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        // JSON has no NaN/Infinity literal — `{v}` would emit invalid JSON
        // that the parser then rejects on read-back, so map them to null.
        if !v.is_finite() {
            JsonValue::Null
        // Keep integral floats exact (and the output valid JSON: `{v}` on an
        // integral f64 would print without a dot and re-parse as Int anyway).
        } else if v.fract() == 0.0 && v.abs() < 1e15 {
            JsonValue::Int(v as i128)
        } else {
            JsonValue::Float(v)
        }
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

/// A compact JSON document as [`JsonWriter`] wrote it: one NDJSON line,
/// without its newline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonLine(String);

impl JsonLine {
    /// The document as a new string; [`JsonLine::into_string`] moves it
    /// out instead.
    pub fn to_json(&self) -> String {
        self.0.clone()
    }

    /// The document.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The document, moved out.
    pub fn into_string(self) -> String {
        self.0
    }
}

/// A streaming writer of compact JSON into one string.
///
/// Containers are written by closures, so every `{` and `[` is closed:
///
/// ```
/// use ccs_core::json::JsonWriter;
/// let line = JsonWriter::line(|w| {
///     w.object(|w| {
///         w.key("d").int(3);
///         w.key("n").int(-43);
///     });
/// });
/// assert_eq!(line.as_str(), r#"{"d":3,"n":-43}"#);
/// ```
///
/// Members of an object must be written in ascending key order, the order
/// a [`JsonValue`] tree emits, so one value has one encoding whichever way
/// it is written.  Debug builds assert it, duplicate keys included.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// The innermost open container already holds a value, so the next
    /// value or key needs a comma.
    comma: bool,
    /// The last key of each open object (debug builds only).
    #[cfg(debug_assertions)]
    keys: Vec<Option<String>>,
}

impl JsonWriter {
    /// Writes one document with `body` and returns it.
    pub fn line(body: impl FnOnce(&mut JsonWriter)) -> JsonLine {
        let mut w = JsonWriter::default();
        body(&mut w);
        JsonLine(w.out)
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut JsonWriter)) -> &mut Self {
        self.separate();
        self.out.push('{');
        self.comma = false;
        #[cfg(debug_assertions)]
        self.keys.push(None);
        body(self);
        #[cfg(debug_assertions)]
        self.keys.pop();
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Writes an array whose items `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut JsonWriter)) -> &mut Self {
        self.separate();
        self.out.push('[');
        self.comma = false;
        body(self);
        self.out.push(']');
        self.comma = true;
        self
    }

    /// Writes the key of the next member of the innermost object; the
    /// member's value follows.
    pub fn key(&mut self, key: &str) -> &mut Self {
        #[cfg(debug_assertions)]
        {
            let last = self
                .keys
                .last_mut()
                .expect("a key is written inside an object");
            if let Some(last) = last {
                debug_assert!(
                    last.as_str() < key,
                    "object keys out of order: '{key}' after '{last}'"
                );
            }
            *last = Some(key.to_string());
        }
        self.separate();
        write_string(key, &mut self.out);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes one scalar value with `write`.
    fn scalar(&mut self, write: impl FnOnce(&mut String)) -> &mut Self {
        self.separate();
        write(&mut self.out);
        self.comma = true;
        self
    }

    fn raw(&mut self, text: &str) -> &mut Self {
        self.scalar(|out| out.push_str(text))
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.scalar(|out| push_u64(out, v))
    }

    /// Writes an integer; values that fit in a `u64` skip the formatter.
    pub fn int(&mut self, v: i128) -> &mut Self {
        match u64::try_from(v) {
            Ok(v) => self.u64(v),
            Err(_) => self.raw(&v.to_string()),
        }
    }

    /// Writes a float as `JsonValue::from(v)` would hold it: `null` when
    /// not finite, an integer when integral and below 10¹⁵ in magnitude.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if !v.is_finite() {
            self.raw("null")
        } else if v.fract() == 0.0 && v.abs() < 1e15 {
            self.int(v as i128)
        } else {
            self.raw(&v.to_string())
        }
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.scalar(|out| write_string(s, out))
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.raw(if b { "true" } else { "false" })
    }

    /// Writes a parsed tree.
    pub fn value(&mut self, value: &JsonValue) -> &mut Self {
        match value {
            JsonValue::Null => self.raw("null"),
            JsonValue::Bool(b) => self.bool(*b),
            JsonValue::Int(v) => self.int(*v),
            JsonValue::Float(v) => self.raw(&v.to_string()),
            JsonValue::Str(s) => self.str(s),
            JsonValue::Array(items) => self.array(|w| {
                for item in items {
                    w.value(item);
                }
            }),
            JsonValue::Object(map) => self.object(|w| {
                for (key, value) in map {
                    w.key(key).value(value);
                }
            }),
        }
    }
}

fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `s` as a JSON string: `"` and `\` escaped, `\n`, `\r` and `\t`
/// by name and other control characters as `\u00XX`; everything else,
/// non-ASCII included, verbatim.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut verbatim = 0;
    for (at, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[verbatim..at]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        verbatim = at + 1;
    }
    out.push_str(&s[verbatim..]);
    out.push('"');
}

/// Writes a [`CcsError`] for the `ccs-wire/1` protocol: an object with a
/// stable `kind` discriminant and, for message-carrying variants, a
/// `message` member.
pub fn write_error(w: &mut JsonWriter, err: &CcsError) {
    // The unsupported-model frame carries the verbatim model string under
    // `model` (not `message`): clients match on it for forward-compat
    // negotiation, so it must stay machine-readable rather than prose.
    if let CcsError::UnsupportedModel(model) = err {
        w.object(|w| {
            w.key("kind").str("unsupported-model");
            w.key("model").str(model);
        });
        return;
    }
    let (kind, message) = match err {
        CcsError::InvalidInstance(m) => ("invalid_instance", Some(m)),
        CcsError::InvalidSchedule(m) => ("invalid_schedule", Some(m)),
        CcsError::Infeasible(m) => ("infeasible", Some(m)),
        CcsError::Internal(m) => ("internal", Some(m)),
        CcsError::InvalidParameter(m) => ("invalid_parameter", Some(m)),
        CcsError::DeadlineExceeded => ("deadline_exceeded", None),
        CcsError::Cancelled => ("cancelled", None),
        CcsError::Overloaded(m) => ("overloaded", Some(m)),
        CcsError::UnsupportedModel(_) => unreachable!("handled above"),
    };
    w.object(|w| {
        w.key("kind").str(kind);
        if let Some(message) = message {
            w.key("message").str(message);
        }
    });
}

/// Parses a [`CcsError`] from its [`write_error`] form.
pub fn error_from_json(value: &JsonValue) -> Result<CcsError> {
    let kind = value
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err("error payload needs a string 'kind'"))?;
    let message = || {
        value
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string()
    };
    match kind {
        "invalid_instance" => Ok(CcsError::InvalidInstance(message())),
        "invalid_schedule" => Ok(CcsError::InvalidSchedule(message())),
        "infeasible" => Ok(CcsError::Infeasible(message())),
        "internal" => Ok(CcsError::Internal(message())),
        "invalid_parameter" => Ok(CcsError::InvalidParameter(message())),
        "deadline_exceeded" => Ok(CcsError::DeadlineExceeded),
        "cancelled" => Ok(CcsError::Cancelled),
        "overloaded" => Ok(CcsError::Overloaded(message())),
        "unsupported-model" => Ok(CcsError::UnsupportedModel(
            value
                .get("model")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
        )),
        other => Err(err(&format!("unknown error kind '{other}'"))),
    }
}

/// Deepest array/object nesting [`parse`] accepts.  The parser recurses once
/// per level, so an unbounded depth would let one line of a few hundred
/// thousand `[` overflow the thread's stack and abort the process — which
/// no `catch_unwind` can stop.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document; trailing non-whitespace input is an error, and so
/// is nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(err("trailing characters after JSON value"));
    }
    Ok(value)
}

fn err(msg: &str) -> CcsError {
    CcsError::invalid_instance(format!("JSON: {msg}"))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(err(&format!("invalid literal, expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", JsonValue::Null),
            Some(b't') => self.eat_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(err("unexpected character")),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<JsonValue>) -> Result<JsonValue> {
        if self.depth == MAX_DEPTH {
            return Err(err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<JsonValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(err("truncated \\u escape"));
                            }
                            let code = self
                                .hex4(self.pos + 1)
                                .ok_or_else(|| err("invalid \\u escape"))?;
                            self.pos += 4;
                            // A high surrogate followed by an escaped low one
                            // is a UTF-16 pair: one character outside the
                            // BMP.  An unpaired surrogate stays U+FFFD.
                            let low = match code {
                                0xD800..=0xDBFF
                                    if self.bytes.get(self.pos + 1..self.pos + 3)
                                        == Some(b"\\u") =>
                                {
                                    self.hex4(self.pos + 3)
                                        .filter(|low| (0xDC00..=0xDFFF).contains(low))
                                }
                                _ => None,
                            };
                            let ch = match low {
                                Some(low) => {
                                    self.pos += 6;
                                    char::from_u32(
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                                    )
                                }
                                None => char::from_u32(code),
                            };
                            out.push(ch.unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 character (input is a &str, so
                    // the byte stream is valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b & 0b1100_0000 == 0b1000_0000)
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    /// The code unit spelled by the four hex digits at `at`, if they are
    /// four hex digits.
    fn hex4(&self, at: usize) -> Option<u32> {
        self.bytes
            .get(at..at + 4)?
            .iter()
            .try_fold(0, |code, &b| Some(code << 4 | char::from(b).to_digit(16)?))
    }

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral {
            text.parse::<i128>()
                .map(JsonValue::Int)
                .map_err(|_| err("integer out of range"))
        } else {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| err("malformed number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let src = r#"{"a":[1,2,3],"b":"x\ny","c":true,"d":null}"#;
        let v = parse(src).unwrap();
        let back = parse(&v.to_json()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn big_integers_are_exact() {
        let v = parse(&format!("{}", u64::MAX)).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn floats_parse() {
        assert_eq!(parse("1.5").unwrap(), JsonValue::Float(1.5));
        assert_eq!(parse("-2e3").unwrap(), JsonValue::Float(-2000.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"abc").is_err());
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""aA\t\"""#).unwrap();
        assert_eq!(v, JsonValue::Str("aA\t\"".to_string()));
        let out = v.to_json();
        assert_eq!(parse(&out).unwrap(), v);
    }

    #[test]
    fn nested_arrays() {
        let v = parse("[[1],[2,[3]]]").unwrap();
        assert_eq!(v.as_array().unwrap().len(), 2);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let deep = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            deep,
            CcsError::invalid_instance("JSON: nesting deeper than 128 levels")
        );
        // Objects count too, and a bomb far past any stack's reach is an
        // ordinary error rather than an abort.
        assert!(parse(&format!("{}1{}", "{\"a\":".repeat(129), "}".repeat(129))).is_err());
        assert_eq!(parse(&"[".repeat(1_000_000)).unwrap_err(), deep);
    }

    #[test]
    fn builder_and_accessors() {
        let mut obj = JsonValue::object();
        obj.set("name", "lpt");
        obj.set("iters", 42u64);
        obj.set("ratio", 1.25);
        obj.set("quick", true);
        obj.set("sizes", vec![50u64, 100]);
        assert_eq!(obj.get("name").and_then(JsonValue::as_str), Some("lpt"));
        assert_eq!(obj.get("iters").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(obj.get("ratio").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(obj.get("quick").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            obj.get("sizes")
                .and_then(JsonValue::as_array)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn integral_floats_serialise_as_ints() {
        // `From<f64>` must not emit `2` as `Float(2.0)` -> "2" -> reparse Int
        // asymmetry; the round trip below relies on it.
        let v: JsonValue = JsonValue::from(2.0f64);
        assert_eq!(v, JsonValue::Int(2));
        let w: JsonValue = JsonValue::from(2.5f64);
        assert_eq!(parse(&w.to_json()).unwrap(), w);
    }

    #[test]
    fn non_finite_floats_become_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let j = JsonValue::from(v);
            assert_eq!(j, JsonValue::Null);
            assert_eq!(parse(&j.to_json()).unwrap(), JsonValue::Null);
        }
    }

    #[test]
    fn errors_roundtrip_through_json() {
        let cases = [
            CcsError::invalid_instance("no jobs"),
            CcsError::invalid_schedule("machine 3"),
            CcsError::infeasible("C > c*m"),
            CcsError::internal("broken \"invariant\""),
            CcsError::invalid_parameter("eps <= 0"),
            CcsError::DeadlineExceeded,
            CcsError::Cancelled,
            CcsError::overloaded("queue depth 8 at budget 8"),
            CcsError::unsupported_model("quantum"),
        ];
        for case in cases {
            let json = JsonWriter::line(|w| write_error(w, &case)).to_json();
            let back = error_from_json(&parse(&json).unwrap()).unwrap();
            assert_eq!(back, case);
        }
        // The unsupported-model frame is pinned: `kind` is the hyphenated
        // wire id and the offending string rides under `model`.
        assert_eq!(
            JsonWriter::line(|w| write_error(w, &CcsError::unsupported_model("quantum"))).as_str(),
            r#"{"kind":"unsupported-model","model":"quantum"}"#
        );
        assert!(error_from_json(&parse("{}").unwrap()).is_err());
        assert!(error_from_json(&parse(r#"{"kind":"nope"}"#).unwrap()).is_err());
    }

    #[test]
    fn pretty_output_reparses_identically() {
        let src = r#"{"a":[1,2,{"b":[]}],"c":{"d":1.5,"e":[{"f":"g"}]}}"#;
        let v = parse(src).unwrap();
        let pretty = v.to_json_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn escaped_surrogate_pairs_decode_to_one_character() {
        // Python's `json.dumps("x😀y")` with the default `ensure_ascii`.
        assert_eq!(
            parse(r#""x\ud83d\ude00y""#).unwrap(),
            JsonValue::Str("x😀y".to_string())
        );
        assert_eq!(
            parse(r#""\uD834\uDD1E""#).unwrap(),
            JsonValue::Str("\u{1d11e}".to_string())
        );
        // Unpaired halves stay U+FFFD, and the escape after a lone high
        // surrogate is decoded on its own.
        for (src, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00x""#, "\u{fffd}x"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}😀"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
        ] {
            assert_eq!(
                parse(src).unwrap(),
                JsonValue::Str(want.to_string()),
                "{src}"
            );
        }
        // A broken second escape is reported as before, not swallowed.
        assert_eq!(
            parse(r#""\ud83d\uZZZZ""#).unwrap_err(),
            err("invalid \\u escape")
        );
        assert_eq!(
            parse(r#""\ud83d\ude0""#).unwrap_err(),
            err("invalid \\u escape")
        );
    }

    #[test]
    fn unicode_escapes_need_exactly_four_hex_digits() {
        assert_eq!(
            parse(r#""\u00e9""#).unwrap(),
            JsonValue::Str("é".to_string())
        );
        assert_eq!(
            parse(r#""\u00E9""#).unwrap(),
            JsonValue::Str("é".to_string())
        );
        for bad in [
            r#""\u+0e9""#,
            r#""\u-0e9""#,
            r#""\u 0e9""#,
            r#""\u0g00""#,
            r#""\u00é""#,
        ] {
            assert_eq!(parse(bad).unwrap_err(), err("invalid \\u escape"), "{bad}");
        }
        assert_eq!(parse(r#""\u00""#).unwrap_err(), err("truncated \\u escape"));
    }

    #[test]
    fn writer_matches_the_tree_encoding() {
        let mut obj = JsonValue::object();
        obj.set("big", JsonValue::Int(i128::MAX));
        obj.set("small", JsonValue::Int(i128::MIN));
        obj.set("neg", JsonValue::Int(i64::MIN as i128));
        obj.set("max", u64::MAX);
        obj.set("zero", 0u64);
        obj.set("text", "a\"b\\c\n\r\t\u{1}\u{1f}é日😀");
        obj.set("list", vec![1.5, 2.0, -0.25]);
        obj.set("empty", JsonValue::Array(Vec::new()));
        obj.set("nested", JsonValue::object());
        let line = JsonWriter::line(|w| {
            w.object(|w| {
                w.key("big").int(i128::MAX);
                w.key("empty").array(|_| {});
                w.key("list").array(|w| {
                    w.f64(1.5).f64(2.0).f64(-0.25);
                });
                w.key("max").u64(u64::MAX);
                w.key("neg").int(i64::MIN as i128);
                w.key("nested").object(|_| {});
                w.key("small").int(i128::MIN);
                w.key("text").str("a\"b\\c\n\r\t\u{1}\u{1f}é日😀");
                w.key("zero").u64(0);
            });
        });
        assert_eq!(line.as_str(), obj.to_json());
        assert_eq!(parse(line.as_str()).unwrap(), obj);
        assert_eq!(
            line.as_str(),
            concat!(
                r#"{"big":170141183460469231731687303715884105727,"empty":[],"#,
                r#""list":[1.5,2,-0.25],"max":18446744073709551615,"#,
                r#""neg":-9223372036854775808,"nested":{},"#,
                r#""small":-170141183460469231731687303715884105728,"#,
                r#""text":"a\"b\\c\n\r\t\u0001\u001fé日😀","zero":0}"#
            )
        );
        // Floats follow `From<f64>`: null when not finite, integers when
        // integral below 1e15.
        for v in [f64::NAN, f64::INFINITY, 3.0, -7.0, 1e15, 2.5e-7, -0.0] {
            let line = JsonWriter::line(|w| {
                w.f64(v);
            });
            assert_eq!(line.as_str(), JsonValue::from(v).to_json(), "{v}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys out of order")]
    fn writer_asserts_sorted_keys() {
        JsonWriter::line(|w| {
            w.object(|w| {
                w.key("b").u64(1);
                w.key("a").u64(2);
            });
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys out of order")]
    fn writer_asserts_distinct_keys() {
        JsonWriter::line(|w| {
            w.object(|w| {
                w.key("a").u64(1);
                w.key("a").u64(2);
            });
        });
    }
}
