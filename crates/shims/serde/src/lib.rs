//! Vendored, dependency-free JSON data model.
//!
//! The build environment resolves crates offline, so the workspace ships
//! one self-describing tree, [`Value`], in place of the real serde. Its
//! readers walk it with [`Value::field`] and [`Value::as_array`], and
//! `serde_json` (also vendored) renders it as JSON text and parses text
//! back into it. Every JSONL writer formats its records by hand, so the
//! tree is the whole data model, with no serialization traits. Upstream
//! serde has no `Value` type, so moving to the real crates means
//! rewriting these readers against `serde_json::Value`.

use std::fmt;

/// A self-describing tree — the shim's entire data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (non-negative integers parse as [`Value::U64`]).
    I64(i64),
    /// A float; `serde_json` writes a non-finite one as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered map (insertion order is preserved, keeping JSON output
    /// deterministic field-by-field).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object, erroring on non-objects and missing
    /// keys.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error(format!("missing field `{name}`"))),
            _ => Err(Error(format!("expected object with field `{name}`"))),
        }
    }

    /// The elements of an array value.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(Error("value does not match the expected shape".to_string())),
        }
    }
}

/// A lookup failure: a shape mismatch between the tree and what its
/// reader expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_lookup() {
        let obj = Value::Object(vec![("a".to_string(), Value::U64(1))]);
        assert_eq!(obj.field("a"), Ok(&Value::U64(1)));
        assert!(obj.field("b").is_err());
        assert!(Value::Null.field("a").is_err());
    }

    #[test]
    fn array_access() {
        let arr = Value::Array(vec![Value::Bool(true), Value::Null]);
        assert_eq!(arr.as_array(), Ok(&[Value::Bool(true), Value::Null][..]));
        assert!(Value::Object(Vec::new()).as_array().is_err());
    }
}
