//! Error type shared by the data-model layer.

use std::fmt;

/// Errors raised while constructing or manipulating complex object values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A tuple field was looked up that does not exist.
    NoSuchField {
        /// The missing field label.
        field: String,
        /// Labels that are present, for diagnostics.
        available: Vec<String>,
    },
    /// An operation expected a value of one kind but found another,
    /// e.g. set union applied to an integer.
    KindMismatch {
        /// What the operation required ("set", "tuple", ...).
        expected: &'static str,
        /// Rendering of what was found.
        found: String,
    },
    /// Two values participating in one operation had incompatible types.
    TypeMismatch {
        /// Description of the operation.
        context: String,
    },
    /// Concatenation would duplicate a top-level label
    /// (the paper requires the nest join label "not occurring on the top
    /// level of X", Section 6).
    DuplicateField(String),
    /// A table, index, or extension name was redefined or missing, or a
    /// catalog request was refused.
    SchemaError(String),
    /// Arithmetic error (division by zero, overflow).
    Arithmetic(String),
    /// I/O failure in a spill file or other on-disk structure. Carries the
    /// rendered `std::io::Error` (the cause is not kept: `ModelError` is
    /// `Clone + PartialEq`, which `io::Error` is not).
    Io(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NoSuchField { field, available } => {
                write!(
                    f,
                    "no such field `{field}` (available: {})",
                    available.join(", ")
                )
            }
            ModelError::KindMismatch { expected, found } => {
                write!(f, "expected a {expected}, found {found}")
            }
            ModelError::TypeMismatch { context } => write!(f, "type mismatch: {context}"),
            ModelError::DuplicateField(l) => write!(f, "duplicate top-level label `{l}`"),
            ModelError::SchemaError(m) => write!(f, "schema error: {m}"),
            ModelError::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            ModelError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_no_such_field() {
        let e = ModelError::NoSuchField {
            field: "x".into(),
            available: vec!["a".into(), "b".into()],
        };
        assert_eq!(e.to_string(), "no such field `x` (available: a, b)");
    }

    #[test]
    fn display_kind_mismatch() {
        let e = ModelError::KindMismatch {
            expected: "set",
            found: "42".into(),
        };
        assert_eq!(e.to_string(), "expected a set, found 42");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&ModelError::Arithmetic("div by zero".into()));
    }
}
