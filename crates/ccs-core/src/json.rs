//! Minimal JSON support used for (de)serialising instances.
//!
//! The build environment of this workspace is fully offline, so `serde` /
//! `serde_json` are not available; this module provides the small subset of
//! JSON actually needed — objects, arrays, strings and (integer) numbers —
//! with a hand-rolled recursive-descent parser.  All numbers appearing in
//! serialised instances are unsigned integers, which are kept exact as
//! `i128` (floats are parsed but only needed for forward compatibility).

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
        let mut out = String::new();
        self.write(&mut out);
        out
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
            other => other.write(out),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Float(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Str(s) => write_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
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

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Serialises a [`CcsError`] for the `ccs-wire/1` protocol: an object with a
/// stable `kind` discriminant and, for message-carrying variants, a
/// `message` member.
pub fn error_to_json(err: &CcsError) -> JsonValue {
    // The unsupported-model frame carries the verbatim model string under
    // `model` (not `message`): clients match on it for forward-compat
    // negotiation, so it must stay machine-readable rather than prose.
    if let CcsError::UnsupportedModel(model) = err {
        let mut obj = JsonValue::object();
        obj.set("kind", "unsupported-model");
        obj.set("model", model.as_str());
        return obj;
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
    let mut obj = JsonValue::object();
    obj.set("kind", kind);
    if let Some(message) = message {
        obj.set("message", message.as_str());
    }
    obj
}

/// Parses a [`CcsError`] from its [`error_to_json`] form.
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
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
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
            let json = error_to_json(&case).to_json();
            let back = error_from_json(&parse(&json).unwrap()).unwrap();
            assert_eq!(back, case);
        }
        // The unsupported-model frame is pinned: `kind` is the hyphenated
        // wire id and the offending string rides under `model`.
        assert_eq!(
            error_to_json(&CcsError::unsupported_model("quantum")).to_json(),
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
}
