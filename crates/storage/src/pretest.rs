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
//! A row is stored as a whole record or, as pages are written now, as a
//! frame against the table's column labels. In a record, and in a frame
//! that holds one (a row whose labels differ from the columns), a tested
//! field is found by label, in one skip-scan of the encoded fields before
//! it. In a frame that holds only values, it is the value at the label's
//! column position, which [`Table::batch_where`](crate::Table::batch_where)
//! resolves once per call, not per row, and is stepped to over the values
//! before it. Either skip-scan steps over NULLs, booleans, integers and
//! floats inline. An `Int` field against an `Int` key is one `i64`
//! comparison, read through the operator's table ([`CmpOp::holds`]); a
//! string is compared where it lies, in byte order against a string key
//! and by rank against any other ([`str_cmp`]). Both are what
//! [`CmpOp::test`] answers on the decoded value, and neither allocates.
//! The in-memory path takes the same `Int`/`Int` shortcut.

use std::sync::Arc;

use tmql_model::value::str_cmp;
use tmql_model::{name, CmpOp, Record, Value};

use crate::spill::{stored_field, stored_frame_field, Stored, StoredRow};

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

    /// True iff some conjunct is decided false by `holds` — given the
    /// conjunct's position, `None` when it cannot decide — every conjunct
    /// before it having been decided true.
    #[inline]
    fn rejects(&self, mut holds: impl FnMut(usize, &str, CmpOp, &Value) -> Option<bool>) -> bool {
        for (at, (label, op, key)) in self.conjuncts.iter().enumerate() {
            match holds(at, label, *op, key) {
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
        self.rejects(|_, label, op, key| {
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
        self.rejects(|_, label, op, key| Some(holds(stored_field(payload, label)?, op, key)))
    }

    /// [`RowTest::rejects_bytes`] on a frame's payload written against a
    /// table's column `labels` (`tmql_storage::spill::encode_frame`).
    pub fn rejects_frame(&self, payload: &[u8], labels: &[Arc<str>]) -> bool {
        self.rejects_stored(StoredRow::Frame(payload), &self.columns(labels))
    }

    /// Where each conjunct's label is among a table's column `labels`:
    /// the position at which a frame of values holds the field (`None`:
    /// no column has it).
    pub(crate) fn columns(&self, labels: &[Arc<str>]) -> Vec<Option<usize>> {
        let at = |label: &str| labels.iter().position(|l| name::same(l, label));
        self.conjuncts.iter().map(|(label, ..)| at(label)).collect()
    }

    /// Does the test reject this stored row — a frame's fields found at
    /// [`RowTest::columns`]?
    #[inline]
    pub(crate) fn rejects_stored(&self, row: StoredRow<'_>, columns: &[Option<usize>]) -> bool {
        match row {
            StoredRow::Record(payload) => self.rejects_bytes(payload),
            StoredRow::Frame(payload) => self.rejects(|at, label, op, key| {
                Some(holds(
                    stored_frame_field(payload, label, *columns.get(at)?)?,
                    op,
                    key,
                ))
            }),
        }
    }
}

/// `field ⟨op⟩ key` on a field read where it lies: what [`CmpOp::test`]
/// answers on the decoded value.
#[inline(always)]
fn holds(field: Stored<'_>, op: CmpOp, key: &Value) -> bool {
    match (field, key) {
        (Stored::Int(i), Value::Int(k)) => op.holds(i.cmp(k)),
        (Stored::Int(i), key) => op.test(&Value::Int(i), key),
        (Stored::Str(s), key) => !key.is_null() && op.holds(str_cmp(s, key)),
        (Stored::Scalar(v), key) => op.test(&v, key),
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
