//! A minimal JSON reader/writer for the dialect this workspace emits.
//!
//! There is intentionally no serde_json in-tree (the vendored `serde` is a
//! marker shim). Every `ftclos --json` report is built as one [`Json`] value
//! (with [`obj!`](crate::obj)) and written by [`Json::write`]; tooling that
//! reads JSON back — `ftclos stats` summarizing a trace, snapshot tests
//! normalizing volatile timing fields — parses with this module. It handles
//! exactly what our writers produce: objects, arrays, strings with the
//! common escapes, finite numbers, bools, and null. Object key order is
//! preserved on parse and re-emit, so a parse→write round trip of an
//! already-normalized document is stable.

use std::fmt;

/// A parsed JSON value. Object entries keep their source order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number as parsed (an f64: raw nanosecond fields may lose
    /// precision, which tooling scrubs before comparing anyway), written in
    /// shortest form (`1`, `0.25`).
    Num(f64),
    /// A number in a pinned written form (never produced by [`Json::parse`]).
    Number(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, entries in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON document. Returns a message with byte offset on error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (None for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as u64, if a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as &str, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object of `entries` in order; what [`obj!`](crate::obj) builds.
    pub fn object(entries: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Compact canonical re-emission (no whitespace, preserved key order).
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = fmt::Write::write_fmt(out, format_args!("{}", *n as i64));
                } else {
                    let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
                }
            }
            Json::Number(n) => out.push_str(&n.to_string()),
            Json::Str(s) => out.push_str(&quote(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&quote(k));
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Recursively zero every numeric field whose key ends in `suffix`
    /// (e.g. `_ns`). Snapshot tests scrub timing fields this way before
    /// comparing a trace against its golden file: the *shape* (keys, span
    /// paths, counts, counters) is pinned; wall-clock values are not.
    pub fn scrub_keys_ending(&mut self, suffix: &str) {
        match self {
            Json::Obj(entries) => {
                for (k, v) in entries.iter_mut() {
                    if k.ends_with(suffix) && matches!(v, Json::Num(_)) {
                        *v = Json::Num(0.0);
                    } else {
                        v.scrub_keys_ending(suffix);
                    }
                }
            }
            Json::Arr(items) => {
                for v in items.iter_mut() {
                    v.scrub_keys_ending(suffix);
                }
            }
            _ => {}
        }
    }
}

/// A number written in the exact form a report pins, which [`Json::Num`]
/// cannot give: an integer past 2^53, a fixed count of decimals, or a float
/// that keeps its `.0`. A non-finite float is written `null`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Number(Form);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Form {
    Int(u128),
    Fixed(f64, usize),
    Float(f64),
}

impl Number {
    /// `v`, every digit (`18446744073709551615`).
    pub fn int(v: u128) -> Self {
        Self(Form::Int(v))
    }

    /// `v` with `decimals` digits after the point (`0.500000`).
    pub fn fixed(v: f64, decimals: usize) -> Self {
        Self(Form::Fixed(v, decimals))
    }

    /// `v` in shortest round-trip form, whole numbers with a `.0` (`10.0`).
    pub fn float(v: f64) -> Self {
        Self(Form::Float(v))
    }
}

/// Formatted when written, so building a report allocates no digits.
impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Form::Int(v) => write!(f, "{v}"),
            Form::Fixed(v, _) | Form::Float(v) if !v.is_finite() => f.write_str("null"),
            Form::Fixed(v, decimals) => write!(f, "{v:.decimals$}"),
            Form::Float(v) if v.fract() == 0.0 => write!(f, "{v:.1}"),
            Form::Float(v) => write!(f, "{v}"),
        }
    }
}

/// `impl From<$t> for Json` for each `$t => |$v| $json`.
macro_rules! json_from {
    ($($t:ty => |$v:ident| $json:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Self {
                $json
            }
        })*
    };
}

json_from! {
    Number => |n| Json::Number(n),
    u128 => |v| Json::Number(Number::int(v)),
    u64 => |v| Json::from(u128::from(v)),
    u32 => |v| Json::from(u128::from(v)),
    usize => |v| Json::from(v as u128),
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// An array of the items.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// `obj! { "key" => value, ... }`: a [`Json::Obj`] with the entries in the
/// order written, each value converted by `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::json::Json::object(vec![$(($key, $crate::json::Json::from($value))),*])
    };
}

/// `s` as a quoted JSON string literal: the workspace's one string escaper,
/// used by [`Json::write`] and the trace writer.
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
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

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            // Surrogate pairs never appear in our writers;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // on char boundaries is safe via chars()).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let ch = s.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_workspace_dialect() {
        let doc = r#"{
  "trace_version": 1,
  "meta": {"command":"verify","args":"--hosts 4"},
  "spans": [
    {"path":"cmd.verify;engine.build","count":1,"total_ns":12345}
  ],
  "ok": true,
  "missing": null,
  "ratio": -0.5
}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("trace_version").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("meta")
                .and_then(|m| m.get("command"))
                .and_then(Json::as_str),
            Some("verify")
        );
        let spans = v.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(
            spans[0].get("path").and_then(Json::as_str),
            Some("cmd.verify;engine.build")
        );
        assert_eq!(spans[0].get("total_ns").and_then(Json::as_u64), Some(12345));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("missing"), Some(&Json::Null));
        assert_eq!(v.get("ratio").and_then(Json::as_f64), Some(-0.5));
    }

    #[test]
    fn roundtrip_is_stable() {
        let doc = r#"{"b":1,"a":[2,3,{"x":"y \"quoted\"\n"}],"n":null}"#;
        let v = Json::parse(doc).unwrap();
        let emitted = v.write();
        let v2 = Json::parse(&emitted).unwrap();
        assert_eq!(v, v2);
        assert_eq!(emitted, v2.write());
        // Key order preserved, not sorted.
        assert!(emitted.find("\"b\"").unwrap() < emitted.find("\"a\"").unwrap());
    }

    #[test]
    fn quote_round_trips_escapes_controls_and_non_ascii() {
        for s in [
            "",
            "plain",
            "a\"b",
            "back\\slash",
            "line\nbreak",
            "tab\there",
        ] {
            assert_eq!(
                Json::parse(&quote(s)),
                Ok(Json::Str(s.to_string())),
                "{s:?}"
            );
        }
        let s = "ctl\u{1} \r naïve → 𝄞 \"q\" \\ \n\t";
        assert_eq!(Json::parse(&quote(s)), Ok(Json::Str(s.to_string())));
        assert_eq!(quote("a\"b\\c\nd\te\u{1}"), r#""a\"b\\c\nd\te\u0001""#);
        assert_eq!(quote("naïve"), "\"naïve\"", "non-ASCII passes through raw");
    }

    #[test]
    fn scrub_zeroes_timing_keys_recursively() {
        let doc = r#"{"wall_ns":987,"spans":[{"path":"a","total_ns":55,"self_ns":44,"count":3}],"counters":{"x_ns_like":1}}"#;
        let mut v = Json::parse(doc).unwrap();
        v.scrub_keys_ending("_ns");
        assert_eq!(v.get("wall_ns").and_then(Json::as_u64), Some(0));
        let span = &v.get("spans").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(span.get("total_ns").and_then(Json::as_u64), Some(0));
        assert_eq!(span.get("self_ns").and_then(Json::as_u64), Some(0));
        assert_eq!(span.get("count").and_then(Json::as_u64), Some(3));
        // Key merely *containing* _ns is untouched.
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("x_ns_like"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn numbers_keep_their_pinned_form() {
        let w = |n: Number| Json::Number(n).write();
        assert_eq!(w(Number::int(u64::MAX.into())), "18446744073709551615");
        assert_eq!(w(Number::int(u128::MAX)), u128::MAX.to_string());
        assert_eq!(w(Number::fixed(0.5, 6)), "0.500000");
        assert_eq!(w(Number::fixed(2.0 / 3.0, 3)), "0.667");
        assert_eq!(w(Number::fixed(f64::NAN, 3)), "null");
        assert_eq!(w(Number::float(0.5)), "0.5");
        assert_eq!(w(Number::float(1.0)), "1.0");
        assert_eq!(w(Number::float(10.0)), "10.0");
        assert_eq!(w(Number::float(f64::NAN)), "null");
        assert_eq!(w(Number::float(f64::INFINITY)), "null");
        let doc = crate::obj! {
            "seed" => u64::MAX,
            "rate" => Number::fixed(1.0, 6),
            "name" => "a\"b",
            "missing" => None::<u64>,
            "ids" => [1u32, 2].into_iter().collect::<Json>(),
        };
        let text = doc.write();
        assert_eq!(
            text,
            r#"{"seed":18446744073709551615,"rate":1.000000,"name":"a\"b","missing":null,"ids":[1,2]}"#
        );
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn integers_reemit_without_decimal_point() {
        let v = Json::parse("{\"n\":12345678,\"f\":1.5}").unwrap();
        let out = v.write();
        assert!(out.contains("\"n\":12345678"));
        assert!(out.contains("\"f\":1.5"));
    }
}
