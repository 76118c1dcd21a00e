//! JSON for the in-tree serde stand-in.
//!
//! Renders and parses the full JSON grammar over [`serde::Value`]. Floats
//! are printed with Rust's shortest round-trip formatting, so
//! `from_str(&to_string(&v))` reproduces `v` bit-for-bit for every value the
//! workspace serializes.
//!
//! # Examples
//!
//! ```
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! struct Sample { id: u64, label: String }
//!
//! let s = Sample { id: 7, label: "pf".to_string() };
//! let json = serde_json::to_string(&s);
//! let back: Sample = serde_json::from_str(&json).unwrap();
//! assert_eq!(back, s);
//! ```

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};

pub use serde::Error;

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    out
}

/// Serializes a value to indented JSON (two spaces per level).
pub fn to_string_pretty<T: Serialize>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    out
}

/// Parses JSON text into a typed value.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value_str(text)?;
    T::from_value(&value)
}

/// Parses JSON text into an untyped [`Value`] tree.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON.
pub fn parse_value_str(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {} of JSON document",
            p.pos
        )));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_json_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push(']');
        }
        Value::Map(pairs) => {
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_json_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            if !pairs.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let text = format!("{x:?}");
        out.push_str(&text);
    } else {
        // JSON has no Inf/NaN; null matches serde_json's lossy default.
        out.push_str("null");
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {} of JSON document",
                byte as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.map(),
            Some(b'[') => self.seq(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') | Some(b'f') => self.boolean(),
            Some(b'n') => {
                self.keyword("null")?;
                Ok(Value::Null)
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {} of JSON document",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn keyword(&mut self, word: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{word}` at byte {} of JSON document",
                self.pos
            )))
        }
    }

    fn boolean(&mut self) -> Result<Value, Error> {
        if self.peek() == Some(b't') {
            self.keyword("true")?;
            Ok(Value::Bool(true))
        } else {
            self.keyword("false")?;
            Ok(Value::Bool(false))
        }
    }

    fn map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(pairs));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated JSON string")),
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
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::new(format!(
                                "unknown escape {:?} in JSON string",
                                other.map(|b| b as char)
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest)
                        .map_err(|_| Error::new("invalid UTF-8 in JSON string"))?;
                    let c = text.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v = parse_value_str(text).unwrap();
            let mut out = String::new();
            write_value(&mut out, &v, None, 0);
            assert_eq!(out, text);
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let text = r#"{"a":[1,2,{"b":true}],"c":"x\ny"}"#;
        let v = parse_value_str(text).unwrap();
        let mut out = String::new();
        write_value(&mut out, &v, None, 0);
        assert_eq!(out, text);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = parse_value_str(r#"{"a":[1,2],"b":{"c":1.25}}"#).unwrap();
        let mut pretty = String::new();
        write_value(&mut pretty, &v, Some(2), 0);
        assert!(pretty.contains('\n'));
        assert_eq!(parse_value_str(&pretty).unwrap(), v);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [0.1f64, 1.0 / 3.0, 1e-12, 123456.789, f64::MAX] {
            let mut out = String::new();
            write_f64(&mut out, x);
            let Value::F64(back) = parse_value_str(&out).unwrap() else {
                panic!("expected float for {out}");
            };
            assert_eq!(back, x, "{out}");
        }
    }

    #[test]
    fn errors_on_garbage() {
        assert!(parse_value_str("{").is_err());
        assert!(parse_value_str("[1,]").is_err());
        assert!(parse_value_str("12 34").is_err());
        assert!(parse_value_str("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v = parse_value_str(r#""Aé""#).unwrap();
        assert_eq!(v, Value::Str("Aé".to_string()));
    }
}
