//! Set-theoretic operations on [`Value`] sets.
//!
//! These implement the operators the paper's predicates range over
//! (Section 4.1 and Table 2): membership `∈`/`∉`, the four containments
//! `⊆ ⊂ ⊇ ⊃`, equality, intersection tests `∩ = ∅` / `∩ ≠ ∅`, and the
//! UNNEST collapse `⋃{s | s ∈ S}` of Section 5.

use crate::error::ModelError;
use crate::value::Value;
use crate::Result;

/// `a ∈ s`.
pub fn member(a: &Value, s: &Value) -> Result<bool> {
    Ok(s.as_set()?.contains(a))
}

/// `a ⊆ b`.
pub fn subseteq(a: &Value, b: &Value) -> Result<bool> {
    Ok(a.as_set()?.is_subset(b.as_set()?))
}

/// `a ⊂ b` (proper subset).
pub fn subset(a: &Value, b: &Value) -> Result<bool> {
    let (sa, sb) = (a.as_set()?, b.as_set()?);
    Ok(sa.is_subset(sb) && sa.len() < sb.len())
}

/// `a ⊇ b`.
pub fn superseteq(a: &Value, b: &Value) -> Result<bool> {
    let (sa, sb) = (a.as_set()?, b.as_set()?);
    Ok(sb.is_subset(sa))
}

/// `a ⊃ b` (proper superset).
pub fn superset(a: &Value, b: &Value) -> Result<bool> {
    let (sa, sb) = (a.as_set()?, b.as_set()?);
    Ok(sb.is_subset(sa) && sa.len() > sb.len())
}

/// `a ∩ b = ∅` (disjointness).
pub fn disjoint(a: &Value, b: &Value) -> Result<bool> {
    Ok(a.as_set()?.is_disjoint(b.as_set()?))
}

/// `a ∪ b`.
pub fn union(a: &Value, b: &Value) -> Result<Value> {
    Ok(Value::Set(a.as_set()?.union(b.as_set()?)))
}

/// `a ∩ b`.
pub fn intersect(a: &Value, b: &Value) -> Result<Value> {
    Ok(Value::Set(a.as_set()?.intersection(b.as_set()?)))
}

/// `a \ b`.
pub fn difference(a: &Value, b: &Value) -> Result<Value> {
    Ok(Value::Set(a.as_set()?.difference(b.as_set()?)))
}

/// Cardinality `count(s)` — the aggregate at the heart of the COUNT bug.
pub fn count(s: &Value) -> Result<i64> {
    Ok(s.as_set()?.len() as i64)
}

/// `UNNEST(S) = ⋃{s | s ∈ S}` (Section 5): collapse a set of sets.
pub fn unnest(s: &Value) -> Result<Value> {
    let mut out = Vec::new();
    for inner in s.as_set()? {
        match inner {
            Value::Set(items) => out.extend_from_slice(items),
            other => {
                return Err(ModelError::KindMismatch {
                    expected: "set",
                    found: other.to_string(),
                })
            }
        }
    }
    Ok(Value::set(out))
}

/// Numeric aggregates over a set, used by predicates of the form
/// `x.a OP H(z)` (Section 4.1).
pub mod aggregate {
    use super::*;

    /// `SUM` over an all-numeric set. Empty sum is `Int(0)`.
    pub fn sum(s: &Value) -> Result<Value> {
        let mut acc = Value::Int(0);
        for v in s.as_set()? {
            acc = acc.add(v)?;
        }
        Ok(acc)
    }

    /// `MIN`; `None` on the empty set (the paper's aggregates other than
    /// COUNT are undefined on ∅, which is precisely why COUNT is the
    /// bug-prone one — COUNT(∅) = 0 is a real value).
    pub fn min(s: &Value) -> Result<Option<Value>> {
        Ok(s.as_set()?.first().cloned())
    }

    /// `MAX`; `None` on the empty set.
    pub fn max(s: &Value) -> Result<Option<Value>> {
        Ok(s.as_set()?.last().cloned())
    }

    /// `AVG`; `None` on the empty set.
    pub fn avg(s: &Value) -> Result<Option<Value>> {
        let set = s.as_set()?;
        if set.is_empty() {
            return Ok(None);
        }
        let total = sum(s)?;
        Ok(Some(total.div(&Value::Float(set.len() as f64))?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(items: &[i64]) -> Value {
        Value::set(items.iter().copied().map(Value::Int))
    }

    #[test]
    fn membership() {
        assert!(member(&Value::Int(2), &s(&[1, 2])).unwrap());
        assert!(!member(&Value::Int(3), &s(&[1, 2])).unwrap());
        assert!(member(&Value::Int(3), &Value::Int(3)).is_err());
    }

    #[test]
    fn containments() {
        assert!(subseteq(&s(&[]), &s(&[])).unwrap());
        assert!(subseteq(&s(&[1]), &s(&[1, 2])).unwrap());
        assert!(subset(&s(&[1]), &s(&[1, 2])).unwrap());
        assert!(!subset(&s(&[1, 2]), &s(&[1, 2])).unwrap());
        assert!(superseteq(&s(&[1, 2]), &s(&[2])).unwrap());
        assert!(superset(&s(&[1, 2]), &s(&[2])).unwrap());
        assert!(!superset(&s(&[1, 2]), &s(&[1, 2])).unwrap());
    }

    #[test]
    fn empty_set_is_subset_of_everything() {
        // The SUBSETEQ bug hinges on ∅ ⊆ z being true for every z.
        assert!(subseteq(&s(&[]), &s(&[7, 9])).unwrap());
        assert!(subseteq(&s(&[]), &s(&[])).unwrap());
    }

    #[test]
    fn disjointness_and_algebra() {
        assert!(disjoint(&s(&[1]), &s(&[2])).unwrap());
        assert!(!disjoint(&s(&[1, 2]), &s(&[2, 3])).unwrap());
        assert_eq!(union(&s(&[1]), &s(&[2])).unwrap(), s(&[1, 2]));
        assert_eq!(intersect(&s(&[1, 2]), &s(&[2, 3])).unwrap(), s(&[2]));
        assert_eq!(difference(&s(&[1, 2]), &s(&[2])).unwrap(), s(&[1]));
    }

    #[test]
    fn count_of_empty_is_zero() {
        assert_eq!(count(&s(&[])).unwrap(), 0);
        assert_eq!(count(&s(&[5, 5, 6])).unwrap(), 2);
    }

    #[test]
    fn unnest_collapses() {
        let nested = Value::set([s(&[1, 2]), s(&[2, 3]), s(&[])]);
        assert_eq!(unnest(&nested).unwrap(), s(&[1, 2, 3]));
        assert_eq!(unnest(&s(&[])).unwrap(), s(&[]));
        assert!(unnest(&Value::set([Value::Int(1)])).is_err());
    }

    #[test]
    fn aggregates() {
        assert_eq!(aggregate::sum(&s(&[1, 2, 3])).unwrap(), Value::Int(6));
        assert_eq!(aggregate::sum(&s(&[])).unwrap(), Value::Int(0));
        assert_eq!(aggregate::min(&s(&[3, 1])).unwrap(), Some(Value::Int(1)));
        assert_eq!(aggregate::max(&s(&[3, 1])).unwrap(), Some(Value::Int(3)));
        assert_eq!(aggregate::min(&s(&[])).unwrap(), None);
        assert_eq!(
            aggregate::avg(&s(&[1, 2])).unwrap(),
            Some(Value::Float(1.5))
        );
        assert_eq!(aggregate::avg(&s(&[])).unwrap(), None);
    }
}
