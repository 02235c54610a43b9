//! The scan pre-test: a selection's leading comparisons, decided on a
//! stored row before a [`Record`] of it exists.
//!
//! A [`RowTest`] is a list of `label ⟨cmp⟩ key` conjuncts, the keys
//! already evaluated. [`crate::Table::batch_where`] shows every row it
//! visits to the test first — an in-memory row by reference, before the
//! clone; a disk row as the encoded bytes in its latched page, before the
//! decode — and materializes only the rows the test does not reject.
//!
//! # The superset contract
//!
//! The survivors are a **candidate superset**, as an index probe's are:
//! the caller re-evaluates its whole predicate on each. The test may
//! reject a row only when that predicate would evaluate to `Ok(false)` on
//! it. Conjuncts are tried left to right, each through [`CmpOp::test`] —
//! the comparison `eval` itself calls, so there is no second definition to
//! drift — and the first one that cannot be decided here (the label is
//! absent, or on page bytes the field is a container, a string that is not
//! UTF-8, or the payload is malformed) **admits the row at once**:
//! whatever `eval` would have raised for it, it still raises.
//!
//! # On page bytes
//!
//! A tested field is found by one skip-scan of the encoded fields before
//! it, which steps over NULLs, booleans, integers and floats inline. An
//! `Int` field against an `Int` key is one `i64` comparison, read through
//! the operator's table ([`CmpOp::holds`]); a string is compared where it
//! lies, in byte order against a string key and by rank against any other
//! ([`str_cmp`]). Both are what [`CmpOp::test`] answers on the decoded
//! value, and neither allocates. The in-memory path takes the same
//! `Int`/`Int` shortcut.

use std::sync::Arc;

use tmql_model::value::str_cmp;
use tmql_model::{CmpOp, Record, Value};

use crate::spill::{stored_field, Stored};

/// Leading `label ⟨cmp⟩ key` conjuncts of a selection over one stored
/// table (see the [module docs](self)). The empty test rejects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowTest {
    conjuncts: Vec<(Arc<str>, CmpOp, Value)>,
}

impl RowTest {
    /// A test of `row.label ⟨op⟩ key` conjuncts, in predicate order.
    pub fn new(conjuncts: Vec<(Arc<str>, CmpOp, Value)>) -> RowTest {
        RowTest { conjuncts }
    }

    /// True iff the test has no conjunct, and so rejects no row.
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// True iff some conjunct is decided false by `holds` — `None` when it
    /// cannot decide — every conjunct before it having been decided true.
    #[inline]
    fn rejects(&self, mut holds: impl FnMut(&str, CmpOp, &Value) -> Option<bool>) -> bool {
        for (label, op, key) in &self.conjuncts {
            match holds(label, *op, key) {
                Some(true) => {}
                Some(false) => return true,
                None => return false,
            }
        }
        false
    }

    /// Does the test reject this materialized row? (Comparisons of any
    /// field kind are decided: the value is at hand.)
    pub fn rejects_row(&self, row: &Record) -> bool {
        self.rejects(|label, op, key| {
            Some(match (row.find(label)?, key) {
                (Value::Int(i), Value::Int(k)) => op.holds(i.cmp(k)),
                (v, key) => op.test(v, key),
            })
        })
    }

    /// Does the test reject this row, given in the page/spill codec? Each
    /// tested field is compared where it lies (see the
    /// [module docs](self)). Never panics, never allocates and never
    /// reads out of bounds, whatever the bytes.
    pub fn rejects_bytes(&self, payload: &[u8]) -> bool {
        self.rejects(|label, op, key| {
            Some(match (stored_field(payload, label)?, key) {
                (Stored::Int(i), Value::Int(k)) => op.holds(i.cmp(k)),
                (Stored::Int(i), key) => op.test(&Value::Int(i), key),
                (Stored::Str(s), key) => !key.is_null() && op.holds(str_cmp(s, key)),
                (Stored::Scalar(v), key) => op.test(&v, key),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::encode_record;

    fn row(b: i64, n: Value) -> Record {
        Record::new([("b".to_string(), Value::Int(b)), ("n".to_string(), n)]).unwrap()
    }

    fn test(conjuncts: &[(&str, CmpOp, Value)]) -> RowTest {
        RowTest::new(
            conjuncts
                .iter()
                .map(|(l, op, k)| (Arc::from(*l), *op, k.clone()))
                .collect(),
        )
    }

    #[test]
    fn rejects_only_decided_false_conjuncts() {
        let r = row(3, Value::Int(7));
        let bytes = encode_record(&r);
        for (t, want) in [
            (test(&[]), false),
            (test(&[("n", CmpOp::Lt, Value::Int(0))]), true),
            (test(&[("n", CmpOp::Gt, Value::Int(0))]), false),
            // Decided true, then decided false.
            (
                test(&[
                    ("b", CmpOp::Eq, Value::Int(3)),
                    ("n", CmpOp::Eq, Value::Int(8)),
                ]),
                true,
            ),
            // An absent label admits at once, whatever follows it.
            (
                test(&[
                    ("zz", CmpOp::Eq, Value::Int(3)),
                    ("n", CmpOp::Lt, Value::Int(0)),
                ]),
                false,
            ),
            // NULL keys make every comparison false: rejected.
            (test(&[("n", CmpOp::Ne, Value::Null)]), true),
            // Int and Float are one numeric kind to `CmpOp::test`.
            (test(&[("n", CmpOp::Eq, Value::Float(7.0))]), false),
        ] {
            assert_eq!(t.rejects_row(&r), want, "{t:?} on the row");
            assert_eq!(t.rejects_bytes(&bytes), want, "{t:?} on its bytes");
        }
    }

    #[test]
    fn strings_are_decided_on_bytes_and_containers_are_not() {
        let eq_one = test(&[("n", CmpOp::Eq, Value::Int(1))]);
        let r = row(1, Value::set([Value::Int(1)]));
        assert!(eq_one.rejects_row(&r), "a materialized value is comparable");
        assert!(
            !eq_one.rejects_bytes(&encode_record(&r)),
            "its bytes are not"
        );
        // A string against a string in byte order, against anything else
        // by rank; NULL compares with nothing.
        let r = row(1, Value::str("héllo"));
        let bytes = encode_record(&r);
        for (t, want) in [
            (eq_one, true),
            (test(&[("n", CmpOp::Gt, Value::Int(1))]), false),
            (test(&[("n", CmpOp::Lt, Value::set([]))]), false),
            (test(&[("n", CmpOp::Eq, Value::str("héllo"))]), false),
            (test(&[("n", CmpOp::Lt, Value::str("i"))]), false),
            // UTF-8 byte order is code point order: `é` is above `z`.
            (test(&[("n", CmpOp::Lt, Value::str("hz"))]), true),
            (test(&[("n", CmpOp::Le, Value::str("h"))]), true),
            (test(&[("n", CmpOp::Ne, Value::Null)]), true),
        ] {
            assert_eq!(t.rejects_row(&r), want, "{t:?} on the row");
            assert_eq!(t.rejects_bytes(&bytes), want, "{t:?} on its bytes");
        }
        // Bytes that are not UTF-8 cannot be decided: admitted.
        let at = bytes.len() - 1;
        let mut broken = bytes.clone();
        broken[at] = 0xFF;
        assert!(!test(&[("n", CmpOp::Eq, Value::Int(1))]).rejects_bytes(&broken));
    }

    #[test]
    fn malformed_bytes_admit() {
        let t = test(&[("n", CmpOp::Lt, Value::Int(0))]);
        let bytes = encode_record(&row(1, Value::Int(5)));
        assert!(t.rejects_bytes(&bytes));
        for cut in 0..bytes.len() {
            assert!(!t.rejects_bytes(&bytes[..cut]), "truncated at {cut}");
        }
        assert!(!t.rejects_bytes(&[0xFF; 64]));
    }
}
