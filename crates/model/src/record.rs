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
//! (`concat` and `extend_field` in one exact-size allocation) and leaves
//! other handles to the old one untouched.
//!
//! Beside the body a handle carries one word of memo: whether the labels
//! are already in canonical (ascending) order — then comparing two rows is
//! a positional walk with no sort — and, once somebody asked, the
//! [structural hash](Record::structural_hash). Clones carry the word, so a
//! stored row is hashed once in its life.
//!
//! Records support the paper's tuple concatenation `x ++ (a = z)`
//! (Section 6) via [`Record::concat`] and [`Record::extend_field`], which
//! reject duplicate top-level labels.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::error::ModelError;
use crate::hash::ValueHasher;
use crate::name;
use crate::value::Value;
use crate::Result;

/// One `(label, value)` pair of a record body.
pub type Field = (Arc<str>, Value);

/// Memo bit: the labels are strictly ascending. Fixed at construction.
const CANONICAL: u64 = 1;
/// Memo bit: the bits above hold the structural hash.
const HASHED: u64 = 2;

/// A labelled tuple value `(a = 1, b = {2, 3})`.
#[derive(Debug)]
pub struct Record {
    fields: Arc<[Field]>,
    /// [`CANONICAL`] | [`HASHED`] | `hash << 2`. The one writer after
    /// construction stores a pure function of `fields`, so `Eq`, `Ord`
    /// and `Hash` cannot observe it change; `Relaxed` because the word
    /// publishes no other data.
    memo: AtomicU64,
}

impl Clone for Record {
    fn clone(&self) -> Record {
        Record {
            fields: self.fields.clone(),
            memo: AtomicU64::new(self.memo.load(Relaxed)),
        }
    }
}

impl Record {
    /// Build a record from `(label, value)` pairs, rejecting duplicates.
    /// The body is one exact-size allocation when the iterator knows its
    /// length (slices, arrays, options, and chains and maps of them).
    pub fn new<L: Into<Arc<str>>>(fields: impl IntoIterator<Item = (L, Value)>) -> Result<Record> {
        Record::checked(fields.into_iter().map(|(l, v)| (l.into(), v)).collect())
    }

    /// [`Record::new`] over fields that may each fail to evaluate: the
    /// first error wins. The fields still go straight into the body, so
    /// the iterator is driven to its end even after an error.
    pub fn try_new<L: Into<Arc<str>>>(
        fields: impl IntoIterator<Item = Result<(L, Value)>>,
    ) -> Result<Record> {
        let mut failed = None;
        let fields = fields.into_iter().map(|f| match f {
            Ok((l, v)) => (l.into(), v),
            Err(e) => {
                failed.get_or_insert(e);
                (Arc::default(), Value::Null)
            }
        });
        let body = fields.collect();
        match failed {
            None => Record::checked(body),
            Some(e) => Err(e),
        }
    }

    /// Wrap a body, rejecting duplicate labels. One pass over adjacent
    /// labels decides the common cases: all ascending is canonical and
    /// distinct; an equal pair is a duplicate. Only a body of three or
    /// more fields out of order pays the pairwise check (with two, the
    /// adjacent pair was the only pair).
    fn checked(fields: Arc<[Field]>) -> Result<Record> {
        let duplicate = |l: &Arc<str>| Err(ModelError::DuplicateField(l.to_string()));
        let mut canonical = true;
        for w in fields.windows(2) {
            match name::order(&w[0].0, &w[1].0) {
                Ordering::Less => {}
                Ordering::Equal => return duplicate(&w[1].0),
                Ordering::Greater => canonical = false,
            }
        }
        if !canonical && fields.len() > 2 {
            for (i, (label, _)) in fields.iter().enumerate() {
                if fields[..i].iter().any(|(l, _)| same_label(l, label)) {
                    return duplicate(label);
                }
            }
        }
        Ok(Record {
            fields,
            memo: AtomicU64::new(if canonical { CANONICAL } else { 0 }),
        })
    }

    /// The one-field record `(label = value)` — the shape of every scan
    /// binding; a single allocation, and one field cannot collide.
    pub fn single(label: Arc<str>, value: Value) -> Record {
        Record {
            fields: Arc::new([(label, value)]),
            memo: AtomicU64::new(CANONICAL),
        }
    }

    /// The label-permutation-insensitive hash of this record under
    /// [`ValueHasher`], for in-memory hash tables: computed on first use,
    /// remembered in the handle and carried by its clones; nested tuples
    /// contribute their own remembered hash. Equal records hash equal.
    pub fn structural_hash(&self) -> u64 {
        let memo = self.memo.load(Relaxed);
        if memo & HASHED != 0 {
            return memo >> 2;
        }
        let mut h = ValueHasher::default();
        self.for_each_canonical(|l, v| {
            l.hash(&mut h);
            v.feed(&mut h, true);
        });
        let hash = h.finish() >> 2;
        self.memo.store(memo | HASHED | hash << 2, Relaxed);
        hash
    }

    /// Visit the fields in label order.
    pub(crate) fn for_each_canonical<'a>(&'a self, mut f: impl FnMut(&'a Arc<str>, &'a Value)) {
        if self.memo.load(Relaxed) & CANONICAL != 0 {
            return self.fields.iter().for_each(|(l, v)| f(l, v));
        }
        let mut stack = [0; INLINE_ORDER];
        let mut heap = Vec::new();
        for &i in canonical_order(&self.fields, &mut stack, &mut heap) {
            f(&self.fields[i].0, &self.fields[i].1);
        }
    }

    /// Both records have one label list in canonical order: rows of one
    /// schema.
    pub(crate) fn same_canonical_labels(&self, other: &Record) -> bool {
        self.memo.load(Relaxed) & other.memo.load(Relaxed) & CANONICAL != 0
            && self.len() == other.len()
            && (self.fields.iter().zip(other.fields.iter()))
                .all(|((a, _), (b, _))| same_label(a, b))
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

    /// This record with each top-level label that equals one of `labels`
    /// spelled by that `Arc` — a table passes its columns', so its rows
    /// share one label per column. Field order, the canonical bit and the
    /// remembered hash are kept (the strings do not change). A record
    /// that already carries them, in `labels`' order, is returned as it
    /// is; a body no other handle holds is relabelled in place, and only
    /// a shared one is copied.
    pub fn share_labels(mut self, labels: &[Arc<str>]) -> Record {
        let carried =
            |(i, (l, _)): (usize, &Field)| labels.get(i).is_some_and(|s| Arc::ptr_eq(s, l));
        if self.fields.iter().enumerate().all(carried) {
            return self;
        }
        let shared = |l: &Arc<str>| labels.iter().find(|s| *s == l).unwrap_or(l).clone();
        match Arc::get_mut(&mut self.fields) {
            Some(fields) => fields.iter_mut().for_each(|(l, _)| *l = shared(l)),
            None => {
                let body = self.fields.iter().map(|(l, v)| (shared(l), v.clone()));
                self.fields = body.collect();
            }
        }
        self
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
            .find(|(l, _)| name::same(l, label))
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
        Record::checked(
            self.fields
                .iter()
                .chain(other.fields.iter())
                .cloned()
                .collect(),
        )
    }

    /// The paper's `x ++ (a = z)`: extend with a single unary tuple.
    /// Fails if `a` already occurs on the top level of `x`.
    pub fn extend_field(&self, label: impl Into<Arc<str>>, value: Value) -> Result<Record> {
        let extra = [(label.into(), value)];
        Record::checked(self.fields.iter().cloned().chain(extra).collect())
    }

    /// Projection onto a list of labels (in the order given).
    pub fn project(&self, labels: &[&str]) -> Result<Record> {
        let mut out = Vec::with_capacity(labels.len());
        for label in labels {
            let field = self.fields.iter().find(|(l, _)| name::same(l, label));
            out.push(field.ok_or_else(|| self.no_such_field(label))?.clone());
        }
        Record::new(out)
    }

    /// Remove a field, returning the remainder. Fails if absent.
    pub fn without(&self, label: &str) -> Result<Record> {
        if !self.has(label) {
            return Err(self.no_such_field(label));
        }
        let rest = self.fields.iter().filter(|(l, _)| !name::same(l, label));
        Record::checked(rest.cloned().collect())
    }
}

impl Default for Record {
    fn default() -> Record {
        Record {
            fields: Arc::default(),
            memo: AtomicU64::new(CANONICAL),
        }
    }
}

/// Records up to this wide order their labels in a stack buffer.
const INLINE_ORDER: usize = 16;

/// The indices of `fields` sorted by label — the canonical form of a
/// record whose labels are not already ascending — written into `stack`
/// (or `heap` for records wider than [`INLINE_ORDER`]); no allocation for
/// the narrow common case.
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
    order.sort_unstable_by(|&a, &b| name::order(&fields[a].0, &fields[b].0));
    order
}

impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.fields, &other.fields) {
            return true;
        }
        let (ma, mb) = (self.memo.load(Relaxed), other.memo.load(Relaxed));
        if ma & mb & HASHED != 0 && ma >> 2 != mb >> 2 {
            return false;
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
                    if same_label(l, ol) {
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
        let by_field =
            |((la, va), (lb, vb)): (&Field, &Field)| label_order(la, lb).then_with(|| va.cmp(vb));
        let first_difference =
            if self.memo.load(Relaxed) & other.memo.load(Relaxed) & CANONICAL != 0 {
                // Both already in label order: the canonical comparison is the
                // positional one.
                let pairs = self.fields.iter().zip(other.fields.iter());
                pairs.map(by_field).find(|o| o.is_ne())
            } else {
                let (mut sa, mut sb) = ([0; INLINE_ORDER], [0; INLINE_ORDER]);
                let (mut ha, mut hb) = (Vec::new(), Vec::new());
                let a = canonical_order(&self.fields, &mut sa, &mut ha);
                let b = canonical_order(&other.fields, &mut sb, &mut hb);
                let pairs = a
                    .iter()
                    .zip(b)
                    .map(|(&i, &j)| (&self.fields[i], &other.fields[j]));
                pairs.map(by_field).find(|o| o.is_ne())
            };
        first_difference.unwrap_or_else(|| self.len().cmp(&other.len()))
    }
}

/// Two labels are one: the same `Arc` (rows of one table share theirs),
/// else the same bytes.
#[inline(always)]
fn same_label(a: &Arc<str>, b: &Arc<str>) -> bool {
    Arc::ptr_eq(a, b) || name::same(a, b)
}

/// The order of two labels, the same `Arc` being equal without a look.
#[inline(always)]
fn label_order(a: &Arc<str>, b: &Arc<str>) -> Ordering {
    match Arc::ptr_eq(a, b) {
        true => Ordering::Equal,
        false => name::order(a, b),
    }
}

impl Hash for Record {
    /// Feeds any hasher the fields in label order — a byte stream that is
    /// a function of the mapping alone and never of the memo, so a seeded
    /// hasher partitions spilled rows the same way in every run.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.for_each_canonical(|l, v| {
            l.hash(state);
            v.hash(state);
        });
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
        // Apart, out of order, and at the end of an ascending run.
        for labels in [["c", "a", "c"], ["b", "c", "b"], ["a", "b", "b"]] {
            let r = Record::new(labels.map(|l| (l, Value::Null)));
            assert!(
                matches!(r, Err(ModelError::DuplicateField(_))),
                "{labels:?}"
            );
        }
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
