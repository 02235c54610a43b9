//! Labelled tuples (records) and the shapes they share.
//!
//! A [`Record`] is a sequence of `(label, value)` pairs in declaration order.
//! Order is preserved (schemas are positional for display) but equality,
//! ordering, and hashing are **label-insensitive to permutation**: two
//! records with the same label→value mapping are equal regardless of field
//! order, matching TM's structural tuple semantics.
//!
//! A tuple's type fixes its labels, so the labels live apart from the
//! values, in a [`Shape`]: the labels in declaration order, with their
//! canonical (ascending) permutation and the duplicate check done once,
//! when the shape is made — a tuple descriptor kept apart from the
//! tuples, as a relation's is, and as the maps of SELF are shared by the
//! objects of one layout. A record is one allocation holding a handle to
//! its shape and its values (`Arc<Body<[Value]>>`): building a row of a
//! shape somebody holds — a table, a spill run, an operator's output —
//! bumps one count and checks nothing, and dropping one decrements one.
//! [`Record::new`] is the checked path, and makes a fresh shape.
//!
//! The body is sized at construction, without `unsafe`: an array of the
//! row's width unsized into a slice. Widths up to [`EXACT`] are built
//! exactly; wider rows are padded with NULLs up to the next bucket of a
//! ladder, which [`Record::values`] hides, and a shape wider than
//! [`MAX_WIDTH`] is refused with [`ModelError::TooWide`].
//!
//! Cloning a record — scanning it out of a table, binding it in an
//! environment, keeping it in a dedup set — is a reference-count bump that
//! copies no value. Every mutator builds a new body and leaves other
//! handles to the old one untouched.
//!
//! Rows of one shape (the same handle, or equal labels in the same order)
//! test equality by their values position by position, and compare and
//! hash by walking their values in the shape's canonical order. Rows of
//! two shapes compare field by field in label order. Beside the body a
//! handle carries one word of memo: once somebody asked, the
//! [structural hash](Record::structural_hash). Clones carry the word, so a
//! stored row is hashed once in its life.
//!
//! Records support the paper's tuple concatenation `x ++ (a = z)`
//! (Section 6) via [`Record::concat`] and [`Record::extend_field`], which
//! reject duplicate top-level labels.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, LazyLock};

use crate::error::ModelError;
use crate::hash::ValueHasher;
use crate::name;
use crate::value::Value;
use crate::Result;

/// The labels of a tuple, in declaration order — shared by every row
/// that has them. Made once ([`Shape::new`]): its labels are distinct and
/// at most [`MAX_WIDTH`], and their canonical order is known.
#[derive(Debug)]
pub struct Shape {
    labels: Box<[Arc<str>]>,
    /// The positions in label order (`order[k]` holds the `k`-th smallest
    /// label); empty when the labels already ascend.
    order: Box<[u32]>,
}

/// Widths up to this one are built exactly.
pub const EXACT: usize = 8;

/// The widest row a shape may describe: the last bucket of the ladder.
pub const MAX_WIDTH: usize = 1024;

/// The padded widths past [`EXACT`]: a row is built at the first bucket
/// at least as wide as it.
pub const BUCKETS: [usize; 10] = [12, 16, 24, 32, 48, 64, 128, 256, 512, MAX_WIDTH];

impl Shape {
    /// The shape of these labels, in this order. Fails on a repeated
    /// label and on more than [`MAX_WIDTH`] labels.
    pub fn new<L: Into<Arc<str>>>(labels: impl IntoIterator<Item = L>) -> Result<Arc<Shape>> {
        Shape::of(labels.into_iter().map(Into::into).collect())
    }

    fn of(labels: Box<[Arc<str>]>) -> Result<Arc<Shape>> {
        if labels.len() > MAX_WIDTH {
            return Err(ModelError::TooWide(labels.len()));
        }
        let duplicate = |l: &Arc<str>| Err(ModelError::DuplicateField(l.to_string()));
        // One pass over adjacent labels decides the common cases: all
        // ascending is canonical and distinct; an equal pair repeats.
        let mut canonical = true;
        for w in labels.windows(2) {
            match name::order(&w[0], &w[1]) {
                Ordering::Less => {}
                Ordering::Equal => return duplicate(&w[1]),
                Ordering::Greater => canonical = false,
            }
        }
        let order = match canonical {
            true => Box::default(),
            false => {
                let mut order: Vec<u32> = (0..labels.len() as u32).collect();
                order.sort_by(|&a, &b| name::order(&labels[a as usize], &labels[b as usize]));
                // Sorted, equal labels are neighbours; the later one is
                // reported, as the first pass reports it.
                for w in order.windows(2) {
                    let (a, b) = (w[0].max(w[1]) as usize, w[0].min(w[1]) as usize);
                    if name::same(&labels[a], &labels[b]) {
                        return duplicate(&labels[a]);
                    }
                }
                order.into()
            }
        };
        Ok(Arc::new(Shape { labels, order }))
    }

    /// The one-label shape `(label)`.
    pub fn single(label: Arc<str>) -> Arc<Shape> {
        Arc::new(Shape {
            labels: Box::new([label]),
            order: Box::default(),
        })
    }

    /// The shape with no labels, shared.
    pub fn empty() -> &'static Arc<Shape> {
        static EMPTY: LazyLock<Arc<Shape>> = LazyLock::new(|| {
            Arc::new(Shape {
                labels: Box::default(),
                order: Box::default(),
            })
        });
        &EMPTY
    }

    /// `self`'s labels then `other`'s: the shape of `x ++ y`. Fails if
    /// they share one.
    pub fn concat(&self, other: &Shape) -> Result<Arc<Shape>> {
        Shape::new(self.labels.iter().chain(other.labels.iter()).cloned())
    }

    /// `self`'s labels then `more`: the shape of `x ++ (a = z, …)`.
    pub fn extend<'l>(
        &'l self,
        more: impl IntoIterator<Item = &'l Arc<str>>,
    ) -> Result<Arc<Shape>> {
        Shape::new(self.labels.iter().chain(more).cloned())
    }

    /// The labels in declaration order.
    pub fn labels(&self) -> &[Arc<str>] {
        &self.labels
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True iff the shape has no labels.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// True iff the labels are declared in canonical (ascending) order.
    pub fn is_canonical(&self) -> bool {
        self.order.is_empty()
    }

    /// The position of `label`, if the shape has it.
    #[inline]
    pub fn position(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| name::same(l, label))
    }

    /// The position of the `k`-th label in canonical order.
    #[inline(always)]
    fn canonical(&self, k: usize) -> usize {
        match self.order.get(k) {
            Some(&i) => i as usize,
            None => k,
        }
    }

    /// Two shapes are one: the same handle (rows of one table, run or
    /// operator), else the same labels in the same order.
    #[inline]
    pub fn same(a: &Arc<Shape>, b: &Arc<Shape>) -> bool {
        Arc::ptr_eq(a, b)
            || (a.len() == b.len()
                && std::iter::zip(a.labels.iter(), b.labels.iter()).all(|(x, y)| same_label(x, y)))
    }
}

/// A record's one allocation: its shape and its values. The values of a
/// row wider than [`EXACT`] are padded up to a bucket of the width ladder.
#[derive(Debug)]
pub struct Body<V: ?Sized> {
    shape: Arc<Shape>,
    values: V,
}

/// The body of a row of `shape` whose values `next` yields, in order:
/// sized exactly up to [`EXACT`] and through the ladder past it.
#[inline(always)]
fn body(shape: Arc<Shape>, mut next: impl FnMut() -> Value) -> Arc<Body<[Value]>> {
    match shape.len() {
        0 => sized::<0>(shape, next),
        1 => sized::<1>(shape, next),
        2 => sized::<2>(shape, next),
        3 => sized::<3>(shape, next),
        4 => sized::<4>(shape, next),
        5 => sized::<5>(shape, next),
        6 => sized::<6>(shape, next),
        7 => sized::<7>(shape, next),
        8 => sized::<8>(shape, next),
        _ => wide(shape, &mut next),
    }
}

#[inline(always)]
fn sized<const N: usize>(shape: Arc<Shape>, mut next: impl FnMut() -> Value) -> Arc<Body<[Value]>> {
    Arc::new(Body {
        shape,
        values: std::array::from_fn::<Value, N, _>(|_| next()),
    })
}

/// [`body`] past [`EXACT`]: the next bucket of the ladder, padded with
/// NULLs. A shape is never wider than [`MAX_WIDTH`], the last bucket.
#[inline(never)]
fn wide(shape: Arc<Shape>, next: &mut dyn FnMut() -> Value) -> Arc<Body<[Value]>> {
    // The arms are `BUCKETS`, spelled as constants.
    let n = shape.len();
    let mut i = 0;
    let padded = move || {
        i += 1;
        match i <= n {
            true => next(),
            false => Value::Null,
        }
    };
    match n {
        0..=12 => sized::<12>(shape, padded),
        13..=16 => sized::<16>(shape, padded),
        17..=24 => sized::<24>(shape, padded),
        25..=32 => sized::<32>(shape, padded),
        33..=48 => sized::<48>(shape, padded),
        49..=64 => sized::<64>(shape, padded),
        65..=128 => sized::<128>(shape, padded),
        129..=256 => sized::<256>(shape, padded),
        257..=512 => sized::<512>(shape, padded),
        _ => sized::<MAX_WIDTH>(shape, padded),
    }
}

/// Memo bit: the bits above hold the structural hash.
const HASHED: u64 = 2;

/// A labelled tuple value `(a = 1, b = {2, 3})`.
#[derive(Debug)]
pub struct Record {
    body: Arc<Body<[Value]>>,
    /// [`HASHED`] | `hash << 2`. The one writer after construction stores
    /// a pure function of the body, so `Eq`, `Ord` and `Hash` cannot
    /// observe it change; `Relaxed` because the word publishes no other
    /// data.
    memo: AtomicU64,
}

impl Clone for Record {
    fn clone(&self) -> Record {
        Record {
            body: self.body.clone(),
            memo: AtomicU64::new(self.memo.load(Relaxed)),
        }
    }
}

impl Record {
    /// Build a record from `(label, value)` pairs, rejecting duplicates:
    /// the checked path, which makes a fresh [`Shape`].
    pub fn new<L: Into<Arc<str>>>(fields: impl IntoIterator<Item = (L, Value)>) -> Result<Record> {
        let (labels, values): (Vec<Arc<str>>, Vec<Value>) =
            fields.into_iter().map(|(l, v)| (l.into(), v)).unzip();
        Ok(Record::shaped(Shape::of(labels.into())?, values))
    }

    /// The row of `shape` holding `values`, one per label in the shape's
    /// order — nothing is checked, so building it allocates its body and
    /// nothing else. A missing value reads as NULL; extra ones are not
    /// taken.
    #[inline]
    pub fn shaped(shape: Arc<Shape>, values: impl IntoIterator<Item = Value>) -> Record {
        let mut values = values.into_iter();
        Record::of_body(body(shape, || values.next().unwrap_or(Value::Null)))
    }

    /// [`Record::shaped`] over values that may each fail: the first error
    /// wins, and no value is asked for after it.
    #[inline]
    pub fn try_shaped(
        shape: Arc<Shape>,
        values: impl IntoIterator<Item = Result<Value>>,
    ) -> Result<Record> {
        let mut values = values.into_iter();
        let mut failed = None;
        let body = body(shape, || match failed {
            Some(_) => Value::Null,
            None => match values.next() {
                Some(Ok(v)) => v,
                Some(Err(e)) => {
                    failed = Some(e);
                    Value::Null
                }
                None => Value::Null,
            },
        });
        match failed {
            None => Ok(Record::of_body(body)),
            Some(e) => Err(e),
        }
    }

    fn of_body(body: Arc<Body<[Value]>>) -> Record {
        Record {
            body,
            memo: AtomicU64::new(0),
        }
    }

    /// The one-field record `(label = value)`, under a fresh shape.
    pub fn single(label: Arc<str>, value: Value) -> Record {
        Record::shaped(Shape::single(label), [value])
    }

    /// This record under `shape`, when `shape` has its labels in its
    /// order: rows of a table then share the table's. A body no other
    /// handle holds is reshaped in place, and only a shared one is
    /// copied; a record of other labels is returned as it is. Values,
    /// field order and the remembered hash are kept.
    pub fn with_shape(mut self, shape: &Arc<Shape>) -> Record {
        if Arc::ptr_eq(&self.body.shape, shape) || !Shape::same(&self.body.shape, shape) {
            return self;
        }
        match Arc::get_mut(&mut self.body) {
            Some(body) => body.shape = shape.clone(),
            None => self.body = Record::shaped(shape.clone(), values_of(&self.body)).body,
        }
        self
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
        let (shape, values) = (self.shape(), self.values());
        match shape.is_canonical() {
            true => std::iter::zip(shape.labels(), values).for_each(|(l, v)| f(l, v)),
            false => (shape.order.iter()).for_each(|&i| {
                let i = i as usize;
                f(&shape.labels[i], &values[i])
            }),
        }
    }

    /// The record's shape: its labels, in declaration order.
    #[inline(always)]
    pub fn shape(&self) -> &Arc<Shape> {
        &self.body.shape
    }

    /// The empty record `()`.
    pub fn empty() -> Record {
        Record::default()
    }

    /// Number of fields.
    #[inline]
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// True iff the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The values in declaration order (a padded body's padding hidden).
    #[inline(always)]
    pub fn values(&self) -> &[Value] {
        let values = &self.body.values;
        match values.len() <= EXACT {
            true => values,
            false => &values[..self.body.shape.len()],
        }
    }

    /// The `(label, value)` pairs in declaration order.
    pub fn fields(
        &self,
    ) -> impl DoubleEndedIterator<Item = (&Arc<str>, &Value)> + ExactSizeIterator {
        std::iter::zip(self.shape().labels(), self.values())
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
    #[inline]
    pub fn find(&self, label: &str) -> Option<&Value> {
        let at = self.shape().position(label)?;
        self.values().get(at)
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
        self.fields().map(|(l, v)| (&**l, v))
    }

    /// Iterate the labels in declaration order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.shape().labels().iter().map(|l| &**l)
    }

    /// Tuple concatenation `x ++ y` (Section 6). Fails if the operands share
    /// a top-level label.
    pub fn concat(&self, other: &Record) -> Result<Record> {
        let shape = self.shape().concat(other.shape())?;
        Ok(Record::shaped(
            shape,
            values_of(&self.body).chain(values_of(&other.body)),
        ))
    }

    /// The paper's `x ++ (a = z)`: extend with a single unary tuple.
    /// Fails if `a` already occurs on the top level of `x`.
    pub fn extend_field(&self, label: impl Into<Arc<str>>, value: Value) -> Result<Record> {
        let shape = self.shape().extend([&label.into()])?;
        Ok(Record::shaped(
            shape,
            self.values().iter().cloned().chain([value]),
        ))
    }

    /// Projection onto a list of labels (in the order given).
    pub fn project(&self, labels: &[&str]) -> Result<Record> {
        let mut at = Vec::with_capacity(labels.len());
        for label in labels {
            at.push(
                self.shape()
                    .position(label)
                    .ok_or_else(|| self.no_such_field(label))?,
            );
        }
        let shape = Shape::new(at.iter().map(|&i| self.shape().labels[i].clone()))?;
        Ok(Record::shaped(
            shape,
            at.iter().map(|&i| self.values()[i].clone()),
        ))
    }

    /// Remove a field, returning the remainder. Fails if absent.
    pub fn without(&self, label: &str) -> Result<Record> {
        let gone = self
            .shape()
            .position(label)
            .ok_or_else(|| self.no_such_field(label))?;
        let kept = (0..self.len()).filter(|&i| i != gone);
        let shape = Shape::new(kept.clone().map(|i| self.shape().labels[i].clone()))?;
        Ok(Record::shaped(
            shape,
            kept.map(|i| self.values()[i].clone()),
        ))
    }

    /// Whether this row and `schema` have one shape whose labels are
    /// declared in canonical order: rows a sort prefix may key without
    /// their labels.
    pub(crate) fn keyed_like(&self, schema: &Record) -> bool {
        Shape::same(self.shape(), schema.shape()) && self.shape().is_canonical()
    }
}

/// The values of a body, cloned, in declaration order.
fn values_of(body: &Body<[Value]>) -> impl Iterator<Item = Value> + '_ {
    body.values[..body.shape.len()].iter().cloned()
}

impl Default for Record {
    fn default() -> Record {
        static EMPTY: LazyLock<Arc<Body<[Value]>>> =
            LazyLock::new(|| body(Shape::empty().clone(), || Value::Null));
        Record::of_body(EMPTY.clone())
    }
}

impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.body, &other.body) {
            return true;
        }
        let (ma, mb) = (self.memo.load(Relaxed), other.memo.load(Relaxed));
        if ma & mb & HASHED != 0 && ma >> 2 != mb >> 2 {
            return false;
        }
        if Shape::same(self.shape(), other.shape()) {
            return self.values() == other.values();
        }
        // Labels are distinct within a record, so equal widths plus every
        // field of `self` matched in `other` is equality of the mappings.
        // Fields at one position with one label line up; others search.
        let theirs = other.shape().labels();
        self.len() == other.len()
            && self
                .fields()
                .zip(other.values())
                .enumerate()
                .all(|(i, ((l, v), ov))| match same_label(l, &theirs[i]) {
                    true => v == ov,
                    false => other.find(l) == Some(v),
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
        if Arc::ptr_eq(&self.body, &other.body) {
            return Ordering::Equal;
        }
        let (sa, sb) = (self.shape(), other.shape());
        let (va, vb) = (self.values(), other.values());
        if Shape::same(sa, sb) {
            // One shape: the canonical comparison is a walk over the values
            // in the shape's label order.
            let first_difference = match sa.is_canonical() {
                true => std::iter::zip(va, vb)
                    .map(|(a, b)| a.cmp(b))
                    .find(|o| o.is_ne()),
                false => (sa.order.iter())
                    .map(|&i| va[i as usize].cmp(&vb[i as usize]))
                    .find(|o| o.is_ne()),
            };
            return first_difference.unwrap_or(Ordering::Equal);
        }
        let (la, lb) = (sa.labels(), sb.labels());
        let by_field = |k: usize| {
            let (i, j) = (sa.canonical(k), sb.canonical(k));
            label_order(&la[i], &lb[j]).then_with(|| va[i].cmp(&vb[j]))
        };
        let common = va.len().min(vb.len());
        (0..common)
            .map(by_field)
            .find(|o| o.is_ne())
            .unwrap_or_else(|| va.len().cmp(&vb.len()))
    }
}

/// Two labels are one: the same `Arc` (shapes share theirs), else the
/// same bytes.
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
    /// a function of the mapping alone and never of the memo or the
    /// shape's handle, so a seeded hasher partitions spilled rows the same
    /// way in every run.
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

/// The shape of the rows an operator builds from rows of one or two input
/// shapes — `x ++ y`, `x ++ (a = z)`, a NULL extension — remembered for
/// the last inputs, so that the rows it builds share one shape and each is
/// its body alone. Inputs of a remembered shape are found by
/// [`Shape::same`]; any other inputs derive and remember theirs.
#[derive(Debug, Clone, Default)]
pub struct ShapeMemo(RefCell<Option<Derived>>);

#[derive(Debug, Clone)]
struct Derived {
    from: (Arc<Shape>, Option<Arc<Shape>>),
    shape: Arc<Shape>,
}

impl ShapeMemo {
    /// The shape derived from `a` (and `b`): the remembered one when the
    /// inputs are the last ones', else what `derive` makes of them.
    #[inline]
    pub fn get(
        &self,
        a: &Arc<Shape>,
        b: Option<&Arc<Shape>>,
        derive: impl FnOnce() -> Result<Arc<Shape>>,
    ) -> Result<Arc<Shape>> {
        let hit = |d: &Derived| {
            Shape::same(&d.from.0, a)
                && match (b, &d.from.1) {
                    (None, None) => true,
                    (Some(b), Some(y)) => Shape::same(b, y),
                    _ => false,
                }
        };
        if let Some(d) = self.0.borrow().as_ref().filter(|d| hit(d)) {
            return Ok(d.shape.clone());
        }
        let shape = derive()?;
        *self.0.borrow_mut() = Some(Derived {
            from: (a.clone(), b.cloned()),
            shape: shape.clone(),
        });
        Ok(shape)
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

    #[test]
    fn a_body_is_exact_to_eight_then_padded_to_its_bucket() {
        let row = |n: usize| Record::new((0..n).map(|i| (format!("f{i:04}"), Value::Int(0))));
        for n in (0..=EXACT).chain(BUCKETS.iter().flat_map(|&b| [b, b + 1])) {
            let Ok(r) = row(n) else {
                assert_eq!(n, MAX_WIDTH + 1);
                continue;
            };
            let bucket = BUCKETS.iter().find(|&&b| b >= n);
            let want = if n <= EXACT { n } else { *bucket.unwrap() };
            assert_eq!(r.body.values.len(), want, "width {n}");
            assert_eq!((r.len(), r.values().len()), (n, n));
        }
    }

    #[test]
    fn a_memo_derives_once_per_input_shape() {
        let x = Shape::new(["b", "a"]).unwrap();
        let memo = ShapeMemo::default();
        let derive = || x.extend([&Arc::from("s")]);
        let first = memo.get(&x, None, derive).unwrap();
        let again = memo.get(&x, None, || unreachable!("remembered")).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        // Equal labels under another handle are the same input.
        let twin = Shape::new(["b", "a"]).unwrap();
        assert!(Arc::ptr_eq(
            &memo.get(&twin, None, || unreachable!()).unwrap(),
            &first
        ));
        let other = Shape::new(["c"]).unwrap();
        let derived = memo
            .get(&other, None, || other.extend([&Arc::from("s")]))
            .unwrap();
        assert_eq!(derived.labels().len(), 2);
    }
}
