//! The TM type language.
//!
//! Types mirror the value constructors: basic types plus tuple and set
//! constructors, arbitrarily nested (Section 3.1: "attribute types may be
//! arbitrarily complex ... type constructors may be arbitrarily nested").
//! A class extension's type is its stored table's: a set of tuples over
//! the table's columns.

use std::fmt;

use crate::value::Value;

/// A structural TM type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ty {
    /// `BOOL`.
    Bool,
    /// `INT`.
    Int,
    /// `REAL`.
    Float,
    /// `STRING`.
    Str,
    /// Tuple type `(a : INT, b : P STRING)`; field order is significant for
    /// display but not for compatibility.
    Tuple(Vec<(String, Ty)>),
    /// Set type `P t` (the paper's ℙ constructor).
    Set(Box<Ty>),
    /// Top type: compatible with everything. Used for the element type of
    /// the empty set literal and for NULL in relational baselines.
    Any,
}

impl Ty {
    /// Field type of a tuple type, if present.
    pub fn field(&self, label: &str) -> Option<&Ty> {
        match self {
            Ty::Tuple(fs) => fs.iter().find(|(l, _)| l == label).map(|(_, t)| t),
            _ => None,
        }
    }

    /// Structural compatibility: `Any` unifies with everything; tuples are
    /// compatible when they have the same label set with compatible field
    /// types (order-insensitive); numeric types are mutually compatible so
    /// that `INT`/`REAL` comparisons type-check, as in SQL.
    pub fn compatible(&self, other: &Ty) -> bool {
        use Ty::*;
        match (self, other) {
            (Any, _) | (_, Any) => true,
            (Bool, Bool) | (Str, Str) => true,
            (Int | Float, Int | Float) => true,
            (Set(a), Set(b)) => a.compatible(b),
            (Tuple(a), Tuple(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .all(|(l, t)| b.iter().any(|(l2, t2)| l == l2 && t.compatible(t2)))
            }
            _ => false,
        }
    }

    /// Least upper bound of two compatible types. `Any` is the top type,
    /// so anything joined with `Any` is `Any` (an earlier version returned
    /// the more specific side, which let heterogeneous nested containers
    /// re-specialize after widening — caught by the property tests).
    /// `Int`/`Float` mixes widen to `Float`.
    pub fn join(&self, other: &Ty) -> Option<Ty> {
        use Ty::*;
        match (self, other) {
            (Any, _) | (_, Any) => Some(Any),
            (Int, Float) | (Float, Int) => Some(Float),
            (Set(a), Set(b)) => a.join(b).map(|t| Set(Box::new(t))),
            (a, b) if a.compatible(b) => Some(a.clone()),
            _ => None,
        }
    }

    /// True iff `value` inhabits this type (with `Any` admitting anything
    /// and NULL admitted everywhere, for the relational baseline).
    pub fn admits(&self, value: &Value) -> bool {
        if matches!(self, Ty::Any) || value.is_null() {
            return true;
        }
        match (self, value) {
            (Ty::Bool, Value::Bool(_)) => true,
            (Ty::Int, Value::Int(_)) => true,
            (Ty::Float, Value::Float(_) | Value::Int(_)) => true,
            (Ty::Str, Value::Str(_)) => true,
            (Ty::Set(t), Value::Set(s)) => s.iter().all(|v| t.admits(v)),
            (Ty::Tuple(fs), Value::Tuple(r)) => {
                fs.len() == r.len()
                    && fs
                        .iter()
                        .all(|(l, t)| r.get(l).map(|v| t.admits(v)).unwrap_or(false))
            }
            _ => false,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Bool => write!(f, "BOOL"),
            Ty::Int => write!(f, "INT"),
            Ty::Float => write!(f, "REAL"),
            Ty::Str => write!(f, "STRING"),
            Ty::Tuple(fs) => {
                write!(f, "(")?;
                for (i, (l, t)) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l} : {t}")?;
                }
                write!(f, ")")
            }
            Ty::Set(t) => write!(f, "P {t}"),
            Ty::Any => write!(f, "ANY"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(t: Ty) -> Ty {
        Ty::Set(Box::new(t))
    }

    #[test]
    fn infer_nested_value_type() {
        let v = Value::tuple([
            ("name", Value::str("Smith")),
            (
                "children",
                Value::set([Value::tuple([("age", Value::Int(7))])]),
            ),
        ]);
        let t = Ty::Tuple(vec![
            ("name".into(), Ty::Str),
            (
                "children".into(),
                set(Ty::Tuple(vec![("age".into(), Ty::Int)])),
            ),
        ]);
        assert!(t.admits(&v));
        // A nested field of another type, a missing field and an extra one
        // are each refused.
        let wrong_age = Value::tuple([
            ("name", Value::str("Smith")),
            (
                "children",
                Value::set([Value::tuple([("age", Value::str("7"))])]),
            ),
        ]);
        assert!(!t.admits(&wrong_age));
        assert!(!t.admits(&Value::tuple([("name", Value::str("Smith"))])));
        let extra = Value::tuple([
            ("name", Value::str("Smith")),
            ("children", Value::empty_set()),
            ("age", Value::Int(40)),
        ]);
        assert!(!t.admits(&extra));
    }

    #[test]
    fn compatibility_is_order_insensitive_for_tuples() {
        let a = Ty::Tuple(vec![("x".into(), Ty::Int), ("y".into(), Ty::Str)]);
        let b = Ty::Tuple(vec![("y".into(), Ty::Str), ("x".into(), Ty::Int)]);
        assert!(a.compatible(&b));
    }

    #[test]
    fn numeric_compatibility() {
        assert!(Ty::Int.compatible(&Ty::Float));
        assert_eq!(Ty::Int.join(&Ty::Float), Some(Ty::Float));
        assert!(!Ty::Int.compatible(&Ty::Str));
    }

    #[test]
    fn any_is_top() {
        let set_any = set(Ty::Any);
        let set_int = set(Ty::Int);
        assert!(set_any.compatible(&set_int));
        // Any is the top type: joining widens, never specializes.
        assert_eq!(set_any.join(&set_int), Some(set_any.clone()));
        assert_eq!(Ty::Any.join(&Ty::Bool), Some(Ty::Any));
    }

    #[test]
    fn admits_checks_structure() {
        let t = set(Ty::Tuple(vec![("a".into(), Ty::Int)]));
        let good = Value::set([Value::tuple([("a", Value::Int(1))])]);
        let bad = Value::set([Value::tuple([("a", Value::str("x"))])]);
        assert!(t.admits(&good));
        assert!(!t.admits(&bad));
        // NULL inhabits every type, `ANY` admits every value, and a `REAL`
        // admits an `INT` but not the reverse.
        assert!(t.admits(&Value::Null) && Ty::Any.admits(&good));
        assert!(Ty::Float.admits(&Value::Int(1)) && !Ty::Int.admits(&Value::Float(1.0)));
        assert!(set(Ty::Float).admits(&Value::set([Value::Int(1), Value::Float(2.5)])));
        assert!(!t.admits(&Value::tuple([("a", Value::Int(1))])));
    }

    #[test]
    fn display_round_trip_forms() {
        let t = set(Ty::Tuple(vec![(
            "emps".into(),
            set(Ty::Tuple(vec![("name".into(), Ty::Str)])),
        )]));
        assert_eq!(t.to_string(), "P (emps : P (name : STRING))");
    }
}
