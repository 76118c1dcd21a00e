//! TOML for the in-tree serde stand-in.
//!
//! Implements the TOML subset the workspace's configuration documents need,
//! over [`serde::Value`]:
//!
//! * tables and dotted `[section.subsection]` headers;
//! * basic (`"..."`) and literal (`'...'`) strings;
//! * integers (with `_` separators), floats, `inf`/`nan`, booleans;
//! * inline arrays (single- or multi-line) and inline tables `{ k = v }`;
//! * `#` comments.
//!
//! Not supported (not produced by the writer, rejected by the parser):
//! dates, array-of-tables headers (`[[x]]`), and multi-line strings.
//!
//! # Examples
//!
//! ```
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! struct Pf { coverage_kb: u64, ways: u32 }
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! struct Cfg { name: String, pf: Pf }
//!
//! let cfg = Cfg { name: "table1".into(), pf: Pf { coverage_kb: 512, ways: 8 } };
//! let text = toml::to_string(&cfg).unwrap();
//! assert!(text.contains("[pf]"));
//! let back: Cfg = toml::from_str(&text).unwrap();
//! assert_eq!(back, cfg);
//! ```

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};

pub use serde::Error;

/// Serializes a value to a TOML document.
///
/// # Errors
///
/// Returns an [`Error`] if the value's root is not a map (TOML documents are
/// tables) or if it contains `Inf`/`NaN`-free unsupported shapes.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    match value.to_value() {
        Value::Map(pairs) => {
            let mut out = String::new();
            write_table(&mut out, &pairs, &mut Vec::new());
            Ok(out)
        }
        other => Err(Error::new(format!(
            "a TOML document must be a table, got {}",
            other.kind()
        ))),
    }
}

/// Parses a TOML document into a typed value.
///
/// # Errors
///
/// Returns an [`Error`] on malformed TOML or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_document(text)?;
    T::from_value(&value)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Writes `pairs` as a TOML table: scalar/array keys first, then one
/// `[section]` per nested table, depth first. `path` is the section prefix.
fn write_table(out: &mut String, pairs: &[(String, Value)], path: &mut Vec<String>) {
    for (key, value) in pairs {
        match value {
            Value::Map(_) | Value::Null => {}
            other => {
                out.push_str(&bare_or_quoted(key));
                out.push_str(" = ");
                write_inline(out, other);
                out.push('\n');
            }
        }
    }
    for (key, value) in pairs {
        if let Value::Map(inner) = value {
            path.push(key.clone());
            if !out.is_empty() {
                out.push('\n');
            }
            out.push('[');
            out.push_str(
                &path
                    .iter()
                    .map(|p| bare_or_quoted(p))
                    .collect::<Vec<_>>()
                    .join("."),
            );
            out.push_str("]\n");
            write_table(out, inner, path);
            path.pop();
        }
    }
}

fn write_inline(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("{}"), // unreachable from write_table; defensive
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => write_float(out, *x),
        Value::Str(s) => write_basic_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_inline(out, item);
            }
            out.push(']');
        }
        Value::Map(pairs) => {
            out.push_str("{ ");
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&bare_or_quoted(key));
                out.push_str(" = ");
                write_inline(out, item);
            }
            out.push_str(" }");
        }
    }
}

fn write_float(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("nan");
    } else if x.is_infinite() {
        out.push_str(if x > 0.0 { "inf" } else { "-inf" });
    } else {
        // Rust's Debug formatting always includes a `.` or an exponent, both
        // of which make the token a float in TOML.
        out.push_str(&format!("{x:?}"));
    }
}

fn write_basic_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04X}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn is_bare_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn bare_or_quoted(key: &str) -> String {
    if is_bare_key(key) {
        key.to_string()
    } else {
        let mut out = String::new();
        write_basic_string(&mut out, key);
        out
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parses a whole document into a [`Value::Map`].
fn parse_document(text: &str) -> Result<Value, Error> {
    let mut root: Vec<(String, Value)> = Vec::new();
    let mut section: Vec<String> = Vec::new();

    let mut lines = text.lines().enumerate().peekable();
    while let Some((line_no, raw)) = lines.next() {
        let line = strip_comment(raw);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(header) = trimmed.strip_prefix('[') {
            if header.starts_with('[') {
                return Err(Error::new(format!(
                    "line {}: array-of-tables headers are not supported",
                    line_no + 1
                )));
            }
            let header = header.strip_suffix(']').ok_or_else(|| {
                Error::new(format!("line {}: unterminated table header", line_no + 1))
            })?;
            section = parse_key_path(header).map_err(|e| e.at(&format!("line {}", line_no + 1)))?;
            // Materialize the (possibly empty) table.
            ensure_table(&mut root, &section)
                .map_err(|e| e.at(&format!("line {}", line_no + 1)))?;
            continue;
        }

        // A key/value pair; join following lines while brackets are open
        // (multi-line arrays).
        let mut logical = line.to_string();
        while open_brackets(&logical) > 0 {
            match lines.next() {
                Some((_, next)) => {
                    logical.push(' ');
                    logical.push_str(strip_comment(next));
                }
                None => {
                    return Err(Error::new(format!(
                        "line {}: unterminated array or inline table",
                        line_no + 1
                    )))
                }
            }
        }

        let (key_part, value_part) = logical
            .split_once('=')
            .ok_or_else(|| Error::new(format!("line {}: expected `key = value`", line_no + 1)))?;
        let keys =
            parse_key_path(key_part.trim()).map_err(|e| e.at(&format!("line {}", line_no + 1)))?;
        let mut cursor = Cursor::new(value_part.trim());
        let value = cursor
            .value()
            .map_err(|e| e.at(&format!("line {}", line_no + 1)))?;
        cursor.skip_ws();
        if !cursor.at_end() {
            return Err(Error::new(format!(
                "line {}: trailing characters after value",
                line_no + 1
            )));
        }

        let mut path = section.clone();
        path.extend(keys);
        insert(&mut root, &path, value).map_err(|e| e.at(&format!("line {}", line_no + 1)))?;
    }

    Ok(Value::Map(root))
}

/// Strips a `#` comment, respecting quotes.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_basic = false;
    let mut in_literal = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_basic => i += 1,
            b'"' if !in_literal => in_basic = !in_basic,
            b'\'' if !in_basic => in_literal = !in_literal,
            b'#' if !in_basic && !in_literal => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// Net count of unclosed `[`/`{` outside strings.
fn open_brackets(text: &str) -> i32 {
    let bytes = text.as_bytes();
    let mut depth = 0i32;
    let mut in_basic = false;
    let mut in_literal = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_basic => i += 1,
            b'"' if !in_literal => in_basic = !in_basic,
            b'\'' if !in_basic => in_literal = !in_literal,
            b'[' | b'{' if !in_basic && !in_literal => depth += 1,
            b']' | b'}' if !in_basic && !in_literal => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    depth
}

/// Parses a dotted key path: `a.b."quoted key"`.
fn parse_key_path(text: &str) -> Result<Vec<String>, Error> {
    let mut keys = Vec::new();
    let mut cursor = Cursor::new(text);
    loop {
        cursor.skip_ws();
        let key = match cursor.peek() {
            Some('"') | Some('\'') => cursor.string()?,
            _ => {
                let word = cursor.take_while(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
                if word.is_empty() {
                    return Err(Error::new(format!("invalid key in `{text}`")));
                }
                word
            }
        };
        keys.push(key);
        cursor.skip_ws();
        match cursor.peek() {
            Some('.') => {
                cursor.advance();
            }
            None => return Ok(keys),
            Some(c) => return Err(Error::new(format!("unexpected `{c}` in key `{text}`"))),
        }
    }
}

fn ensure_table<'t>(
    table: &'t mut Vec<(String, Value)>,
    path: &[String],
) -> Result<&'t mut Vec<(String, Value)>, Error> {
    let mut current = table;
    for key in path {
        let idx = match current.iter().position(|(k, _)| k == key) {
            Some(i) => i,
            None => {
                current.push((key.clone(), Value::Map(Vec::new())));
                current.len() - 1
            }
        };
        match &mut current[idx].1 {
            Value::Map(inner) => current = inner,
            other => {
                return Err(Error::new(format!(
                    "key `{key}` already holds a {}, cannot use it as a table",
                    other.kind()
                )))
            }
        }
    }
    Ok(current)
}

fn insert(table: &mut Vec<(String, Value)>, path: &[String], value: Value) -> Result<(), Error> {
    let (last, parents) = path.split_last().expect("key path is never empty");
    let target = ensure_table(table, parents)?;
    if target.iter().any(|(k, _)| k == last) {
        return Err(Error::new(format!("duplicate key `{last}`")));
    }
    target.push((last.clone(), value));
    Ok(())
}

/// A character cursor over one logical value.
struct Cursor<'a> {
    chars: Vec<char>,
    pos: usize,
    _text: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor {
            chars: text.chars().collect(),
            pos: 0,
            _text: text,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn advance(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.pos += 1;
        }
    }

    fn take_while(&mut self, pred: impl Fn(char) -> bool) -> String {
        let mut out = String::new();
        while let Some(c) = self.peek() {
            if pred(c) {
                out.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        out
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some('"') | Some('\'') => Ok(Value::Str(self.string()?)),
            Some('[') => self.array(),
            Some('{') => self.inline_table(),
            Some('t') | Some('f') => {
                let word = self.take_while(|c| c.is_ascii_alphabetic());
                match word.as_str() {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    other => Err(Error::new(format!("unknown keyword `{other}`"))),
                }
            }
            Some(c) if c == '-' || c == '+' || c.is_ascii_digit() || c == 'i' || c == 'n' => {
                self.number()
            }
            other => Err(Error::new(format!("unexpected {other:?} in value"))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        let quote = self.advance().expect("caller peeked a quote");
        let mut out = String::new();
        loop {
            match self.advance() {
                None => return Err(Error::new("unterminated string")),
                Some(c) if c == quote => return Ok(out),
                Some('\\') if quote == '"' => match self.advance() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') | Some('U') => {
                        let len = if self.chars[self.pos - 1] == 'u' {
                            4
                        } else {
                            8
                        };
                        let hex: String =
                            (0..len).map(|_| self.advance().unwrap_or('\0')).collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| Error::new(format!("invalid unicode escape `{hex}`")))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error::new("invalid unicode code point"))?,
                        );
                    }
                    other => return Err(Error::new(format!("unknown string escape {other:?}"))),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.advance(); // '['
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(']') {
                self.advance();
                return Ok(Value::Seq(items));
            }
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.advance();
                }
                Some(']') => {
                    self.advance();
                    return Ok(Value::Seq(items));
                }
                other => return Err(Error::new(format!("expected `,` or `]`, got {other:?}"))),
            }
        }
    }

    fn inline_table(&mut self) -> Result<Value, Error> {
        self.advance(); // '{'
        let mut pairs: Vec<(String, Value)> = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some('}') {
                self.advance();
                return Ok(Value::Map(pairs));
            }
            let key = match self.peek() {
                Some('"') | Some('\'') => self.string()?,
                _ => {
                    let word =
                        self.take_while(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
                    if word.is_empty() {
                        return Err(Error::new("invalid key in inline table"));
                    }
                    word
                }
            };
            self.skip_ws();
            if self.advance() != Some('=') {
                return Err(Error::new("expected `=` in inline table"));
            }
            let value = self.value()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(Error::new(format!("duplicate key `{key}` in inline table")));
            }
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.advance();
                }
                Some('}') => {
                    self.advance();
                    return Ok(Value::Map(pairs));
                }
                other => return Err(Error::new(format!("expected `,` or `}}`, got {other:?}"))),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let raw = self.take_while(|c| {
            c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '+' || c == '-'
        });
        let text: String = raw.chars().filter(|&c| c != '_').collect();
        match text.trim_start_matches(['+', '-']) {
            "inf" => {
                return Ok(Value::F64(if text.starts_with('-') {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }))
            }
            "nan" => return Ok(Value::F64(f64::NAN)),
            _ => {}
        }
        if text.contains('.') || text.contains('e') || text.contains('E') {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::new(format!("invalid float `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| Error::new(format!("invalid integer `{text}`")))
        } else {
            let unsigned = text.strip_prefix('+').unwrap_or(&text);
            unsigned
                .parse::<u64>()
                .map(Value::U64)
                .map_err(|_| Error::new(format!("invalid integer `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Value {
        parse_document(text).unwrap()
    }

    #[test]
    fn scalars_and_sections() {
        let v = doc("a = 1\nb = -2\nc = 1.5\nd = true\ne = \"hi\"\n\n[t]\nx = 2\n\n[t.u]\ny = 3\n");
        assert_eq!(v.get("a"), Some(&Value::U64(1)));
        assert_eq!(v.get("b"), Some(&Value::I64(-2)));
        assert_eq!(v.get("c"), Some(&Value::F64(1.5)));
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e"), Some(&Value::Str("hi".into())));
        assert_eq!(v.get("t").unwrap().get("x"), Some(&Value::U64(2)));
        assert_eq!(
            v.get("t").unwrap().get("u").unwrap().get("y"),
            Some(&Value::U64(3))
        );
    }

    #[test]
    fn arrays_and_inline_tables() {
        let v = doc("xs = [1, 2, 3]\nys = [\"a\", \"b\"]\npolicy = { Fixed = 3 }\n");
        assert_eq!(
            v.get("xs"),
            Some(&Value::Seq(vec![
                Value::U64(1),
                Value::U64(2),
                Value::U64(3)
            ]))
        );
        assert_eq!(
            v.get("policy"),
            Some(&Value::Map(vec![("Fixed".into(), Value::U64(3))]))
        );
    }

    #[test]
    fn multiline_arrays_and_comments() {
        let v = doc("# header\nxs = [\n  1, # one\n  2,\n]\n");
        assert_eq!(
            v.get("xs"),
            Some(&Value::Seq(vec![Value::U64(1), Value::U64(2)]))
        );
    }

    #[test]
    fn writer_roundtrips_nested_documents() {
        let original = Value::Map(vec![
            ("name".into(), Value::Str("fig3".into())),
            ("seed".into(), Value::U64(2014)),
            (
                "axes".into(),
                Value::Map(vec![
                    (
                        "coverages".into(),
                        Value::Seq(vec![Value::U64(524288), Value::U64(262144)]),
                    ),
                    (
                        "policies".into(),
                        Value::Seq(vec![
                            Value::Str("Baseline".into()),
                            Value::Str("Allarm".into()),
                        ]),
                    ),
                ]),
            ),
            (
                "machine".into(),
                Value::Map(vec![(
                    "l2".into(),
                    Value::Map(vec![
                        ("size_bytes".into(), Value::U64(262144)),
                        ("ratio".into(), Value::F64(0.25)),
                    ]),
                )]),
            ),
        ]);
        let mut out = String::new();
        if let Value::Map(pairs) = &original {
            write_table(&mut out, pairs, &mut Vec::new());
        }
        assert!(out.contains("[axes]"));
        assert!(out.contains("[machine.l2]"));
        assert_eq!(doc(&out), original);
    }

    #[test]
    fn duplicate_keys_rejected() {
        assert!(parse_document("a = 1\na = 2\n").is_err());
    }

    #[test]
    fn strings_with_hash_and_quotes() {
        let v = doc("s = \"a # not a comment\" # real comment\n");
        assert_eq!(v.get("s"), Some(&Value::Str("a # not a comment".into())));
    }

    #[test]
    fn unsupported_constructs_error() {
        assert!(parse_document("[[points]]\nx = 1\n").is_err());
        assert!(parse_document("just a line\n").is_err());
    }

    #[test]
    fn root_must_be_a_table() {
        assert!(to_string(&42u64).is_err());
    }
}
