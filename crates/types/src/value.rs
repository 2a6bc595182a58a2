//! Dynamically-typed cell values.

use std::fmt;

/// A single cell value as seen at the API boundary (query literals, row accessors).
///
/// Inside columns, data stays in its packed native representation; `Value` is only
/// materialised for literals, row inspection and test assertions.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer (also used for timestamps, stored as epoch seconds).
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Categorical value (dictionary string).
    Str(String),
    /// SQL NULL.
    Null,
}

impl Value {
    /// Numeric view of the value, if it has one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            // SQL-escape embedded quotes so Display output reparses (found by
            // the sql fuzz suite: `'it''s'` printed as `'it's'` and broke the
            // Display/parse round trip the plan-cache fingerprint relies on).
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_f64_conversions() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Str("ab".into()).to_string(), "'ab'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
