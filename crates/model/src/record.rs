//! Labelled tuples (records).
//!
//! A [`Record`] is a sequence of `(label, value)` pairs in declaration order.
//! Order is preserved (schemas are positional for display) but equality,
//! ordering, and hashing are **label-insensitive to permutation**: two
//! records with the same label→value mapping are equal regardless of field
//! order, matching TM's structural tuple semantics.
//!
//! The fields live in one shared immutable body (`Arc<[(Arc<str>, Value)]>`):
//! cloning a record — scanning it out of a table, binding it in an
//! environment, keeping it in a dedup set — is a reference-count bump that
//! copies no value and allocates no label. Every mutator builds a new body
//! and leaves other handles to the old one untouched.
//!
//! Records support the paper's tuple concatenation `x ++ (a = z)`
//! (Section 6) via [`Record::concat`] and [`Record::extend_field`], which
//! reject duplicate top-level labels.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use crate::error::ModelError;
use crate::value::Value;
use crate::Result;

/// One `(label, value)` pair of a record body.
pub type Field = (Arc<str>, Value);

/// A membership-only set of rows (dedup state, a table's seen-set). It
/// holds handles to the rows' shared bodies, not copies, and hashes under
/// a fixed key: whatever iterates it — a dedup set spilling itself — sees
/// the same order in every run and at every thread count.
pub type RecordSet = HashSet<Record, BuildHasherDefault<DefaultHasher>>;

/// A labelled tuple value `(a = 1, b = {2, 3})`.
#[derive(Debug, Clone)]
pub struct Record {
    fields: Arc<[Field]>,
}

impl Record {
    /// Build a record from `(label, value)` pairs, rejecting duplicates.
    pub fn new<L: Into<Arc<str>>>(fields: impl IntoIterator<Item = (L, Value)>) -> Result<Record> {
        let fields: Vec<Field> = fields.into_iter().map(|(l, v)| (l.into(), v)).collect();
        for (i, (label, _)) in fields.iter().enumerate() {
            if fields[..i].iter().any(|(l, _)| l == label) {
                return Err(ModelError::DuplicateField(label.to_string()));
            }
        }
        Ok(Record {
            fields: fields.into(),
        })
    }

    /// The one-field record `(label = value)` — the shape of every scan
    /// binding; a single allocation, and one field cannot collide.
    pub fn single(label: Arc<str>, value: Value) -> Record {
        Record {
            fields: Arc::new([(label, value)]),
        }
    }

    /// The empty record `()`.
    pub fn empty() -> Record {
        Record::default()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True iff the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The `(label, value)` pairs in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Append one field, rejecting a duplicate label.
    pub fn push(&mut self, label: impl Into<Arc<str>>, value: Value) -> Result<()> {
        *self = self.extend_field(label, value)?;
        Ok(())
    }

    /// True iff a field with this label exists.
    pub fn has(&self, label: &str) -> bool {
        self.find(label).is_some()
    }

    /// Look up a field value by label; `None` when absent.
    pub fn find(&self, label: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find(|(l, _)| &**l == label)
            .map(|(_, v)| v)
    }

    /// Look up a field value by label.
    pub fn get(&self, label: &str) -> Result<&Value> {
        self.find(label).ok_or_else(|| self.no_such_field(label))
    }

    fn no_such_field(&self, label: &str) -> ModelError {
        ModelError::NoSuchField {
            field: label.to_string(),
            available: self.labels().map(str::to_string).collect(),
        }
    }

    /// Iterate `(label, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(l, v)| (&**l, v))
    }

    /// Iterate the labels in declaration order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(l, _)| &**l)
    }

    /// Iterate the values in declaration order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.fields.iter().map(|(_, v)| v)
    }

    /// Tuple concatenation `x ++ y` (Section 6). Fails if the operands share
    /// a top-level label.
    pub fn concat(&self, other: &Record) -> Result<Record> {
        Record::new(self.fields.iter().chain(other.fields.iter()).cloned())
    }

    /// The paper's `x ++ (a = z)`: extend with a single unary tuple.
    /// Fails if `a` already occurs on the top level of `x`.
    pub fn extend_field(&self, label: impl Into<Arc<str>>, value: Value) -> Result<Record> {
        Record::new(self.fields.iter().cloned().chain([(label.into(), value)]))
    }

    /// Projection onto a list of labels (in the order given).
    pub fn project(&self, labels: &[&str]) -> Result<Record> {
        let mut out = Vec::with_capacity(labels.len());
        for label in labels {
            let field = self.fields.iter().find(|(l, _)| &**l == *label);
            out.push(field.ok_or_else(|| self.no_such_field(label))?.clone());
        }
        Record::new(out)
    }

    /// Remove a field, returning the remainder. Fails if absent.
    pub fn without(&self, label: &str) -> Result<Record> {
        if !self.has(label) {
            return Err(self.no_such_field(label));
        }
        Ok(Record {
            fields: self
                .fields
                .iter()
                .filter(|(l, _)| &**l != label)
                .cloned()
                .collect(),
        })
    }
}

impl Default for Record {
    fn default() -> Record {
        Record {
            fields: Arc::new([]),
        }
    }
}

/// Records up to this wide order their labels in a stack buffer.
const INLINE_ORDER: usize = 16;

/// The indices of `fields` sorted by label — the canonical form used for
/// ordering and hashing — written into `stack` (or `heap` for records
/// wider than [`INLINE_ORDER`]); no allocation for the narrow common case.
fn canonical_order<'a>(
    fields: &[Field],
    stack: &'a mut [usize; INLINE_ORDER],
    heap: &'a mut Vec<usize>,
) -> &'a [usize] {
    let order = match stack.get_mut(..fields.len()) {
        Some(order) => order,
        None => {
            heap.resize(fields.len(), 0);
            &mut heap[..]
        }
    };
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i;
    }
    order.sort_unstable_by(|&a, &b| fields[a].0.cmp(&fields[b].0));
    order
}

impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.fields, &other.fields) {
            return true;
        }
        // Labels are distinct within a record, so equal widths plus every
        // field of `self` matched in `other` is equality of the mappings.
        // Rows of one schema line up positionally; permuted ones search.
        self.len() == other.len()
            && self
                .fields
                .iter()
                .zip(other.fields.iter())
                .all(|((l, v), (ol, ov))| {
                    if l == ol {
                        v == ov
                    } else {
                        other.find(l) == Some(v)
                    }
                })
    }
}

impl Eq for Record {}

impl PartialOrd for Record {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Record {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.fields, &other.fields) {
            return Ordering::Equal;
        }
        let (mut sa, mut sb) = ([0; INLINE_ORDER], [0; INLINE_ORDER]);
        let (mut ha, mut hb) = (Vec::new(), Vec::new());
        let a = canonical_order(&self.fields, &mut sa, &mut ha);
        let b = canonical_order(&other.fields, &mut sb, &mut hb);
        let (a, b) = (
            a.iter().map(|&i| &self.fields[i]),
            b.iter().map(|&i| &other.fields[i]),
        );
        a.cmp(b)
    }
}

impl Hash for Record {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut stack = [0; INLINE_ORDER];
        let mut heap = Vec::new();
        for &i in canonical_order(&self.fields, &mut stack, &mut heap) {
            let (l, v) = &self.fields[i];
            l.hash(state);
            v.hash(state);
        }
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (l, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l} = {v}")?;
        }
        write!(f, ")")
    }
}

impl<L: Into<Arc<str>>> FromIterator<(L, Value)> for Record {
    /// Collects pairs, silently overwriting nothing: panics on duplicates.
    /// Intended for internal construction where labels are known distinct.
    fn from_iter<T: IntoIterator<Item = (L, Value)>>(iter: T) -> Self {
        Record::new(iter).expect("duplicate label collecting Record")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pairs: &[(&str, i64)]) -> Record {
        Record::new(pairs.iter().map(|(l, v)| (l.to_string(), Value::Int(*v)))).unwrap()
    }

    #[test]
    fn equality_ignores_field_order() {
        let a = rec(&[("x", 1), ("y", 2)]);
        let b = rec(&[("y", 2), ("x", 1)]);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn duplicate_labels_rejected() {
        let r = Record::new([
            ("a".to_string(), Value::Int(1)),
            ("a".to_string(), Value::Int(2)),
        ]);
        assert!(matches!(r, Err(ModelError::DuplicateField(_))));
    }

    #[test]
    fn concat_rejects_shared_labels() {
        let a = rec(&[("x", 1)]);
        let b = rec(&[("x", 2)]);
        assert!(a.concat(&b).is_err());
        let c = rec(&[("y", 2)]);
        let joined = a.concat(&c).unwrap();
        assert_eq!(joined.len(), 2);
    }

    #[test]
    fn extend_field_is_paper_concat() {
        // x ++ (a = ∅) from the nest join definition.
        let x = rec(&[("e", 2), ("d", 1)]);
        let extended = x.extend_field("s", Value::empty_set()).unwrap();
        assert_eq!(extended.get("s").unwrap(), &Value::empty_set());
        assert!(x.extend_field("e", Value::Int(9)).is_err());
    }

    #[test]
    fn project_and_without() {
        let r = rec(&[("a", 1), ("b", 2), ("c", 3)]);
        let p = r.project(&["c", "a"]).unwrap();
        assert_eq!(p.labels().collect::<Vec<_>>(), vec!["c", "a"]);
        let w = r.without("b").unwrap();
        assert!(!w.has("b"));
        assert!(r.without("zz").is_err());
    }

    #[test]
    fn display_preserves_declaration_order() {
        let r = rec(&[("b", 2), ("a", 1)]);
        assert_eq!(r.to_string(), "(b = 2, a = 1)");
    }

    #[test]
    fn ordering_is_canonical() {
        let a = rec(&[("x", 1), ("y", 2)]);
        let b = rec(&[("y", 3), ("x", 1)]);
        assert!(a < b);
    }
}
