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
//! frame against the table's column labels. [`Table::batch_where`]
//! resolves the test once per call against those labels
//! (`RowTest::resolve`): each conjunct becomes its column position, its
//! operator and its key, an `Int` key as an `i64`. In a frame that holds
//! only values (a
//! shaped frame), a tested field is then the value at its column, reached
//! by a walk over the slice (`spill::shaped_field`) that steps over
//! scalars inline and reads an integer's varint where it lies, and that
//! gives up (`None`, so the row is admitted) instead of building an error.
//! In a record, and in a frame that holds one (a row whose labels differ
//! from the columns), a tested field is found by label, in one skip-scan
//! of the encoded fields before it. An `Int` field against an `Int` key is
//! one `i64` comparison, read through the operator's table
//! ([`CmpOp::holds`]); a string is compared where it lies, in byte order
//! against a string key and by rank against any other ([`str_cmp`]). Both
//! are what [`CmpOp::test`] answers on the decoded value, and neither
//! allocates. The in-memory path takes the same `Int`/`Int` shortcut.
//!
//! [`Table::batch_where`]: crate::Table::batch_where

use std::sync::Arc;

use tmql_model::value::str_cmp;
use tmql_model::{name, CmpOp, Record, Value};

use crate::spill::{frame, shaped_field, stored_field, Stored, StoredRow};

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
        self.rejects(|label, op, key| Some(holds(stored_field(payload, label)?, op, key)))
    }

    /// [`RowTest::rejects_bytes`] on a frame's payload written against a
    /// table's column `labels` (`tmql_storage::spill::encode_frame`).
    pub fn rejects_frame(&self, payload: &[u8], labels: &[Arc<str>]) -> bool {
        self.resolve(labels).rejects(StoredRow::Frame(payload))
    }

    /// The test resolved against a table's column `labels`: what one scan
    /// call decides its stored rows with.
    pub(crate) fn resolve(&self, labels: &[Arc<str>]) -> Resolved<'_> {
        let column = |label: &str| labels.iter().position(|l| name::same(l, label));
        let conjuncts = (self.conjuncts.iter())
            .map(|(label, op, key)| Conjunct {
                label,
                column: column(label),
                op: *op,
                key: match key {
                    Value::Int(k) => Key::Int(*k),
                    key => Key::Value(key),
                },
            })
            .collect();
        Resolved { conjuncts }
    }
}

/// A [`RowTest`] resolved against a table's columns (see the
/// [module docs](self)): per conjunct, the column that holds its field
/// in a shaped frame, its operator and its key.
#[derive(Debug)]
pub(crate) struct Resolved<'t> {
    conjuncts: Vec<Conjunct<'t>>,
}

#[derive(Debug)]
struct Conjunct<'t> {
    /// The tested label, for rows found by label.
    label: &'t str,
    /// Its position among the columns (`None`: no column has it).
    column: Option<usize>,
    op: CmpOp,
    key: Key<'t>,
}

/// A conjunct's key: an `Int` as the `i64` it compares as.
#[derive(Debug, Clone, Copy)]
enum Key<'t> {
    Int(i64),
    Value(&'t Value),
}

impl Resolved<'_> {
    /// Does the test reject this stored row? Its conjuncts are tried in
    /// order, the first that cannot be decided admitting the row; a
    /// shaped frame's fields are read at their columns, a full frame's and
    /// a record's by label.
    #[inline]
    pub(crate) fn rejects(&self, row: StoredRow<'_>) -> bool {
        match row {
            StoredRow::Record(payload) => self.decide(|c| stored_field(payload, c.label)),
            StoredRow::Frame(payload) => match payload.split_first() {
                Some((&frame::SHAPED, values)) => self.decide(|c| shaped_field(values, c.column?)),
                Some((&frame::FULL, record)) => self.decide(|c| stored_field(record, c.label)),
                _ => false,
            },
        }
    }

    /// True iff some conjunct's `field` is there and fails it, every
    /// conjunct before it having been there and held.
    #[inline(always)]
    fn decide<'a>(&self, mut field: impl FnMut(&Conjunct<'_>) -> Option<Stored<'a>>) -> bool {
        for c in &self.conjuncts {
            let Some(field) = field(c) else {
                return false;
            };
            let held = match (field, c.key) {
                (Stored::Int(i), Key::Int(k)) => c.op.holds(i.cmp(&k)),
                (field, Key::Int(k)) => holds(field, c.op, &Value::Int(k)),
                (field, Key::Value(key)) => holds(field, c.op, key),
            };
            if !held {
                return true;
            }
        }
        false
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
    use crate::bytes::{put_len, put_str, put_uvarint};
    use crate::format_tests::arb_value;
    use crate::spill::{encode_record, encode_value, reference};
    use proptest::prelude::*;

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

    /// One encoded value as a frame or a record may hold it: any value as
    /// the codec writes it; an integer under tag 10 at every varint
    /// length, and spelled as no writer spells one (a non-canonical
    /// trailing zero group, eleven bytes, a tenth byte past 64 bits); an
    /// integer in version 1's eight bytes; a string that is not UTF-8; a
    /// few bytes of noise.
    fn arb_piece() -> BoxedStrategy<Vec<u8>> {
        let encoded = |v: &Value| {
            let mut out = Vec::new();
            encode_value(&mut out, v);
            out
        };
        let value = arb_value().prop_map(move |v| encoded(&v));
        let varint = (any::<u64>(), 0u32..64, 0u8..4).prop_map(|(v, shift, spelling)| {
            let mut out = vec![10u8];
            put_uvarint(&mut out, v >> shift);
            match spelling {
                1 => {
                    *out.last_mut().unwrap() |= 0x80;
                    out.push(0);
                }
                2 => out
                    .splice(1.., [0x80; 10].into_iter().chain([0]))
                    .for_each(drop),
                3 => out
                    .splice(1.., [0xff; 9].into_iter().chain([2]))
                    .for_each(drop),
                _ => {}
            }
            out
        });
        let fixed = any::<i64>().prop_map(|i| [&[3u8][..], &i.to_le_bytes()].concat());
        let not_utf8 = prop::collection::vec(0x80u8..=0xff, 1..3).prop_map(|bytes| {
            let mut out = vec![5u8];
            put_len(&mut out, bytes.len());
            out.extend(bytes);
            out
        });
        let noise = prop::collection::vec(any::<u8>(), 0..4);
        let varint = varint.boxed();
        prop_oneof![value, varint.clone(), varint, fixed, not_utf8, noise].boxed()
    }

    const COLUMNS: [&str; 3] = ["a", "b", "c"];
    /// The columns and a label that is none of them.
    const LABELS: [&str; 4] = ["a", "b", "c", "zz"];

    /// A frame's payload against [`COLUMNS`]: shaped (0–4 values), full
    /// (a record of 0–4 fields under any of [`LABELS`], in any order) or
    /// of a kind no writer writes; whole or cut short.
    fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
        let pieces = prop::collection::vec((0usize..4, arb_piece()), 0..5);
        (0u8..6, pieces, any::<usize>(), any::<bool>()).prop_map(|(kind, pieces, cut, whole)| {
            let mut out = Vec::new();
            match kind {
                0..=2 => {
                    out.push(frame::SHAPED);
                    pieces.iter().for_each(|(_, piece)| out.extend(piece));
                }
                3 | 4 => {
                    out.push(frame::FULL);
                    put_len(&mut out, pieces.len());
                    for (label, piece) in &pieces {
                        put_str(&mut out, LABELS[*label]);
                        out.extend(piece);
                    }
                }
                _ => out.push(2),
            }
            if !whole {
                out.truncate(cut % (out.len() + 1));
            }
            out
        })
    }

    /// One to three conjuncts over [`LABELS`], every operator, `Int` keys
    /// often and every other kind of key (NULL, floats, strings,
    /// containers) too.
    fn arb_test() -> impl Strategy<Value = RowTest> {
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let key = prop_oneof![
            (-3i64..4).prop_map(Value::Int),
            any::<i64>().prop_map(Value::Int),
            arb_value(),
        ];
        let conjunct = (0usize..4, 0usize..6, key)
            .prop_map(|(label, op, key)| (Arc::from(LABELS[label]), OPS[op], key));
        prop::collection::vec(conjunct, 1..4).prop_map(RowTest::new)
    }

    /// What the test decided on a stored row before it was resolved: each
    /// conjunct's field read by [`reference`], a frame's at the label's
    /// column.
    fn reference_rejects(test: &RowTest, row: StoredRow<'_>) -> bool {
        test.rejects(|label, op, key| {
            let column = COLUMNS.iter().position(|c| *c == label);
            let field = match row {
                StoredRow::Record(payload) => reference::stored_field(payload, label),
                StoredRow::Frame(payload) => reference::stored_frame_field(payload, label, column),
            };
            Some(holds(field?, op, key))
        })
    }

    /// A field read where it lies, as bytes that tell every reading apart
    /// (a float by its bits).
    fn spelled(field: Option<Stored<'_>>) -> Option<Vec<u8>> {
        Some(match field? {
            Stored::Int(i) => [&[0u8][..], &i.to_le_bytes()].concat(),
            Stored::Str(s) => [&[1u8][..], s.as_bytes()].concat(),
            Stored::Scalar(v) => {
                [vec![2u8], encode_record(&Record::single("v".into(), v))].concat()
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The resolved test decides every stored row as the reader-based
        /// field readers did, and a shaped frame's walk reads at every
        /// column what the reader read there.
        #[test]
        fn the_resolved_test_decides_what_the_reader_decided(
            frame in arb_frame(),
            test in arb_test(),
        ) {
            let columns = COLUMNS.map(Arc::from);
            let resolved = test.resolve(&columns);
            let on_frame = StoredRow::Frame(&frame);
            prop_assert_eq!(resolved.rejects(on_frame), reference_rejects(&test, on_frame));
            prop_assert_eq!(test.rejects_frame(&frame, &columns), reference_rejects(&test, on_frame));
            if let Some((&frame::FULL, record)) = frame.split_first() {
                let on_record = StoredRow::Record(record);
                prop_assert_eq!(resolved.rejects(on_record), reference_rejects(&test, on_record));
                prop_assert_eq!(test.rejects_bytes(record), reference_rejects(&test, on_record));
            }
            if let Some((&frame::SHAPED, values)) = frame.split_first() {
                for column in 0..5 {
                    prop_assert_eq!(
                        spelled(shaped_field(values, column)),
                        spelled(reference::stored_frame_field(&frame, "", Some(column))),
                        "column {}", column
                    );
                }
            }
        }
    }
}
