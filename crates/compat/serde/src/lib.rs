//! Offline stand-in for the `serde` crate.
//!
//! This workspace builds in environments with no access to crates.io, so the
//! external `serde` dependency is replaced by this small in-tree crate with a
//! compatible *surface*: `serde::Serialize` / `serde::Deserialize` traits and
//! `#[derive(Serialize, Deserialize)]` macros (provided by the sibling
//! `serde_derive` proc-macro crate).
//!
//! The design is a **value model** rather than the real serde's
//! visitor/streaming model: serialization converts a Rust value into a
//! self-describing [`Value`] tree, and the format crates (`serde_json`,
//! `toml`) render or parse that tree. This is a deliberate simplification —
//! the simulator (de)serializes small configuration documents (scenarios,
//! reports), never bulk data, so the intermediate tree costs nothing
//! measurable and keeps the whole stack ~1k lines and dependency-free.
//!
//! Supported shapes (everything the workspace derives):
//!
//! * structs with named fields → [`Value::Map`];
//! * newtype structs (`struct Nanos(u64)`) → the inner value, transparently;
//! * enums with unit variants → [`Value::Str`] of the variant name;
//! * enums with newtype or struct variants → externally tagged, as in real
//!   serde: `{"Variant": <inner>}`.
//!
//! # Examples
//!
//! ```
//! use serde::{Deserialize, Serialize, Value};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! struct Point { x: u64, y: u64 }
//!
//! let v = Point { x: 1, y: 2 }.to_value();
//! assert!(matches!(v, Value::Map(_)));
//! assert_eq!(Point::from_value(&v).unwrap(), Point { x: 1, y: 2 });
//! ```

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;

/// A self-describing tree of (de)serialized data, the interchange point
/// between typed Rust values and the text formats.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / null (`Option::None`).
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (positive integers parse as [`Value::U64`]).
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// A sequence.
    Seq(Vec<Value>),
    /// A map with insertion-ordered keys (field order is preserved so the
    /// text formats render documents in declaration order).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in a [`Value::Map`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A short name of the value's kind, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) => "integer",
            Value::F64(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// A (de)serialization error: a human-readable message, optionally prefixed
/// with the path of the field that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }

    /// Creates a "missing field" error.
    pub fn missing_field(name: &str) -> Self {
        Error::new(format!("missing field `{name}`"))
    }

    /// Returns a copy of this error with `context` (a field or variant name)
    /// prepended to the message.
    pub fn at(self, context: &str) -> Self {
        Error::new(format!("{context}: {}", self.msg))
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a value tree.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] describing the first mismatch between the tree
    /// and the expected shape.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

fn type_error(expected: &str, got: &Value) -> Error {
    Error::new(format!("expected {expected}, got {}", got.kind()))
}

/// Extracts and deserializes field `name` from a [`Value::Map`].
///
/// Used by derived `Deserialize` impls. A missing field is an error unless
/// the target type accepts [`Value::Null`] (i.e. `Option<T>`).
///
/// # Errors
///
/// Returns an [`Error`] if the field is absent (and required) or fails to
/// deserialize.
pub fn get_field<T: Deserialize>(value: &Value, name: &str) -> Result<T, Error> {
    match value.get(name) {
        Some(v) => T::from_value(v).map_err(|e| e.at(name)),
        None => T::from_value(&Value::Null).map_err(|_| Error::missing_field(name)),
    }
}

/// Extracts and deserializes field `name` from a [`Value::Map`], falling
/// back to `T::default()` when the field is absent.
///
/// Used by derived `Deserialize` impls for fields marked
/// `#[serde(default)]`. A *present* field that fails to deserialize is
/// still an error — only absence triggers the default.
///
/// # Errors
///
/// Returns an [`Error`] if the field is present but malformed.
pub fn get_field_or_default<T: Deserialize + Default>(
    value: &Value,
    name: &str,
) -> Result<T, Error> {
    match value.get(name) {
        Some(v) => T::from_value(v).map_err(|e| e.at(name)),
        None => Ok(T::default()),
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = match value {
                    Value::U64(n) => *n,
                    Value::I64(n) if *n >= 0 => *n as u64,
                    other => return Err(type_error("an unsigned integer", other)),
                };
                <$t>::try_from(raw).map_err(|_| {
                    Error::new(format!("{raw} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::U64(v as u64) } else { Value::I64(v) }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw: i64 = match value {
                    Value::U64(n) => i64::try_from(*n)
                        .map_err(|_| Error::new(format!("{n} out of range for i64")))?,
                    Value::I64(n) => *n,
                    other => return Err(type_error("an integer", other)),
                };
                <$t>::try_from(raw).map_err(|_| {
                    Error::new(format!("{raw} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::F64(x) => Ok(*x),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            other => Err(type_error("a number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        f64::from_value(value).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(type_error("a bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(type_error("a string", other)),
        }
    }
}

impl Serialize for &str {
    fn to_value(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

/// `&'static str` deserialization leaks the parsed string. The workspace
/// only hits this path for benchmark-profile names in tests; configuration
/// documents are parsed a handful of times per process, so the leak is
/// bounded and harmless.
impl Deserialize for &'static str {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            other => Err(type_error("a string", other)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) => items
                .iter()
                .enumerate()
                .map(|(i, v)| T::from_value(v).map_err(|e| e.at(&format!("[{i}]"))))
                .collect(),
            other => Err(type_error("a sequence", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            v => T::from_value(v).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(u16::from_value(&Value::U64(9)).unwrap(), 9);
        assert_eq!(i64::from_value(&Value::I64(-3)).unwrap(), -3);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(f64::from_value(&Value::U64(3)).unwrap(), 3.0);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn out_of_range_integers_are_rejected() {
        assert!(u8::from_value(&Value::U64(300)).is_err());
        assert!(u64::from_value(&Value::I64(-1)).is_err());
        assert!(u64::from_value(&Value::Str("x".into())).is_err());
    }

    #[test]
    fn vec_and_option_roundtrip() {
        let xs = vec![1u64, 2, 3];
        assert_eq!(Vec::<u64>::from_value(&xs.to_value()).unwrap(), xs);
        let some: Option<u64> = Some(7);
        let none: Option<u64> = None;
        assert_eq!(Option::<u64>::from_value(&some.to_value()).unwrap(), some);
        assert_eq!(Option::<u64>::from_value(&none.to_value()).unwrap(), none);
    }

    #[test]
    fn get_field_distinguishes_missing_from_optional() {
        let map = Value::Map(vec![("x".into(), Value::U64(1))]);
        assert_eq!(get_field::<u64>(&map, "x").unwrap(), 1);
        assert!(get_field::<u64>(&map, "y").is_err());
        assert_eq!(get_field::<Option<u64>>(&map, "y").unwrap(), None);
    }

    #[test]
    fn errors_carry_context() {
        let map = Value::Map(vec![("x".into(), Value::Str("no".into()))]);
        let err = get_field::<u64>(&map, "x").unwrap_err();
        assert!(err.to_string().contains("x:"), "{err}");
    }

    #[test]
    fn static_str_deserializes_by_leaking() {
        let v = Value::Str("barnes".into());
        let s: &'static str = <&'static str>::from_value(&v).unwrap();
        assert_eq!(s, "barnes");
    }
}
