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
//! absent, or on page bytes the field is a string or a container, or the
//! payload is malformed) **admits the row at once**: whatever `eval`
//! would have raised for it, it still raises.

use std::borrow::Borrow;
use std::sync::Arc;

use tmql_model::{CmpOp, Record, Value};

use crate::spill::scalar_field;

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

    /// True iff some conjunct is false on the row whose fields `field`
    /// looks up, every conjunct before it having been decided true.
    fn rejects<V: Borrow<Value>>(&self, field: impl Fn(&str) -> Option<V>) -> bool {
        for (label, op, key) in &self.conjuncts {
            match field(label) {
                Some(v) if op.test(v.borrow(), key) => {}
                Some(_) => return true,
                None => return false,
            }
        }
        false
    }

    /// Does the test reject this materialized row? (Comparisons of any
    /// field kind are decided: the value is at hand.)
    pub fn rejects_row(&self, row: &Record) -> bool {
        self.rejects(|label| row.find(label))
    }

    /// Does the test reject this row, given in the page/spill codec? Each
    /// tested field is found by skipping over the encoded fields before it
    /// and compared as a scalar decoded on the stack. Never panics and
    /// never reads out of bounds, whatever the bytes.
    pub fn rejects_bytes(&self, payload: &[u8]) -> bool {
        self.rejects(|label| scalar_field(payload, label))
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
    fn strings_and_containers_are_undecided_on_bytes() {
        let t = test(&[("n", CmpOp::Eq, Value::Int(1))]);
        for n in [Value::str("s"), Value::set([Value::Int(1)])] {
            let r = row(1, n);
            assert!(t.rejects_row(&r), "a materialized value is comparable");
            assert!(!t.rejects_bytes(&encode_record(&r)), "its bytes are not");
        }
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
