//! Hand-rolled JSON emission and parsing shared by every report exporter.
//!
//! The workspace builds offline (no `serde`), so every report —
//! [`SimReport::to_json`](crate::SimReport::to_json),
//! `coordl::LoaderReport::to_json` and the `dstool figures` document — builds
//! a [`Value`] tree with [`object`] / [`num`] / [`int`] / [`text`] and writes
//! it through the one emitter, [`write_value`].  That emitter owns the two
//! things that are easy to get subtly wrong when several emitters each roll
//! their own:
//!
//! * **escaping** — [`escape`] / [`write_string`] guarantee that scenario
//!   names and figure labels containing quotes, backslashes or control
//!   characters serialise to *valid* JSON strings, and
//! * **numbers** — [`write_f64`] maps the non-finite values JSON cannot
//!   represent to `null` instead of emitting bare `NaN`/`inf` tokens.
//!
//! Object keys come out sorted (a [`Value::Object`] is a [`BTreeMap`]), so
//! every document is in one canonical form.  A minimal recursive-descent
//! [`parse`] (returning a [`Value`] tree) is also provided so tests and the
//! CI gates can *read* these documents back without external dependencies.
//! It supports the full JSON grammar except `\u` surrogate pairs, which none
//! of our emitters produce.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape `s` for inclusion in a JSON string literal (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string literal.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Append `v` to `out` as a JSON number; non-finite values become `null`
/// (JSON has no `NaN`/`Infinity`).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest round-trip formatting is valid JSON for all finite
        // values.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append `value` to `out` in canonical form: object keys sorted (the
/// [`BTreeMap`] guarantees this), no whitespace, numbers in Rust's shortest
/// round-trip formatting.  Re-serialising a [`parse`]d document through this
/// writer normalises it, so a committed document (`FIGURES.json`) diffs only
/// where a value moved.
pub fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_f64(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// `value` as compact JSON text (see [`write_value`]).
pub fn compact(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

/// A JSON number.
pub fn num(v: f64) -> Value {
    Value::Number(v)
}

/// A JSON integer: every count a report emits is far below 2^53, where
/// `f64` stops being exact.
pub fn int(v: u64) -> Value {
    Value::Number(v as f64)
}

/// A JSON string.
pub fn text(v: &str) -> Value {
    Value::String(v.to_string())
}

/// A JSON object from `(key, value)` pairs (a repeated key keeps the last).
pub fn object<'k>(fields: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
    let entries = fields.into_iter().map(|(k, v)| (k.to_string(), v));
    Value::Object(entries.collect())
}

/// A JSON array of numbers.
pub fn nums(values: impl IntoIterator<Item = f64>) -> Value {
    Value::Array(values.into_iter().map(num).collect())
}

/// A parsed JSON document.
///
/// Object keys are kept in a [`BTreeMap`]: none of our documents rely on key
/// order, and sorted keys make test assertions deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also what [`write_f64`] emits for non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse a JSON document.  Returns a human-readable error (with byte offset)
/// on malformed input or trailing garbage.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
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

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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

    fn eat_literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        // Collect raw bytes between escapes so multi-byte UTF-8 passes
        // through untouched.
        let mut run_start = self.pos;
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    out.push_str(self.raw_run(run_start)?);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(self.raw_run(run_start)?);
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or("\\u escape outside the BMP is unsupported")?,
                            );
                        }
                        other => {
                            return Err(format!("unknown escape \\{} ", other as char));
                        }
                    }
                    run_start = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn raw_run(&self, start: usize) -> Result<&'a str, String> {
        std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "invalid UTF-8".to_string())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = self.raw_run(start)?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
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
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_through_the_parser() {
        let nasty = "a\"quote\\back\\\\slash\nnew\tline\r\u{1}ctl\u{e9}accent";
        let mut doc = String::new();
        doc.push_str("{\"label\":");
        write_string(&mut doc, nasty);
        doc.push('}');
        let parsed = parse(&doc).expect("escaped output must be valid JSON");
        assert_eq!(parsed.get("label").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn escape_covers_quotes_and_backslashes() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("\u{0}"), "\\u0000");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        out.push(',');
        write_f64(&mut out, f64::INFINITY);
        out.push(',');
        write_f64(&mut out, 1.5);
        assert_eq!(out, "null,null,1.5");
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true},"e":"x"}"#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Value::Null));
        assert_eq!(v.get("e").and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1}trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn write_value_canonicalises_key_order_and_whitespace() {
        let messy = "  {\"zeta\" : 1 ,\n \"alpha\": [true, null, \"x\\\"y\"],\
                     \"mid\": {\"b\":2,\"a\":-3.5}}  ";
        let parsed = parse(messy).unwrap();
        let mut out = String::new();
        write_value(&mut out, &parsed);
        assert_eq!(
            out,
            r#"{"alpha":[true,null,"x\"y"],"mid":{"a":-3.5,"b":2},"zeta":1}"#
        );
        // Canonical form is a fixed point: parse -> write -> parse -> write
        // is byte-identical.
        let mut again = String::new();
        write_value(&mut again, &parse(&out).unwrap());
        assert_eq!(out, again);
    }

    #[test]
    fn u64_arrays_and_strings_compose() {
        let doc = object([
            ("xs", nums([1.0, 2.0, 30.0])),
            ("name", text("a\"b")),
            ("n", int(7)),
        ]);
        let out = compact(&doc);
        assert_eq!(out, r#"{"n":7,"name":"a\"b","xs":[1,2,30]}"#);
        let v = parse(&out).unwrap();
        let xs = v.get("xs").and_then(Value::as_array).unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].as_f64(), Some(30.0));
        assert_eq!(v, doc, "the builders emit what the parser reads back");
    }
}
