//! The set value: one shared, sorted, duplicate-free slice.

use std::cmp::Ordering;
use std::ops::Deref;
use std::sync::Arc;

use crate::value::Value;

/// A TM set `{v1, …, vn}`: its elements in the total order on [`Value`],
/// each once, in one shared immutable allocation. A clone bumps a count;
/// comparing (two handles to one slice are equal by pointer), iterating
/// and the set algebra run at slice speed (it derefs to `[Value]`);
/// building one sorts the elements, drops duplicates and allocates once.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SetValue(Arc<[Value]>);

impl SetValue {
    /// The set of the values in `items`, which is left empty with its
    /// capacity: an accumulator reused row after row costs one exact-size
    /// allocation per set and none for `∅`. Of equal elements (tuples
    /// that differ in label order only) the first one pushed is kept, as
    /// a `BTreeSet` insert would have it — hence the stable sort.
    pub fn drain_from(items: &mut Vec<Value>) -> SetValue {
        if items.is_empty() {
            return SetValue::default();
        }
        items.sort();
        items.dedup();
        SetValue(items.drain(..).collect())
    }

    /// `v ∈ self`, by binary search.
    pub fn contains(&self, v: &Value) -> bool {
        self.0.binary_search(v).is_ok()
    }

    /// `self ⊆ other`.
    pub fn is_subset(&self, other: &SetValue) -> bool {
        self.len() <= other.len() && self.merge(other).all(|(side, _)| side != Ordering::Less)
    }

    /// `self ∩ other = ∅`.
    pub fn is_disjoint(&self, other: &SetValue) -> bool {
        self.merge(other).all(|(side, _)| side != Ordering::Equal)
    }

    /// `self ∪ other`.
    pub fn union(&self, other: &SetValue) -> SetValue {
        self.select(other, |_| true)
    }

    /// `self ∩ other`.
    pub fn intersection(&self, other: &SetValue) -> SetValue {
        self.select(other, |side| side == Ordering::Equal)
    }

    /// `self \ other`.
    pub fn difference(&self, other: &SetValue) -> SetValue {
        self.select(other, |side| side == Ordering::Less)
    }

    /// One linear merge of the two sorted slices: each distinct element
    /// once, in order, tagged `Less` (only in `self`), `Greater` (only in
    /// `other`) or `Equal` (in both; the element of `self` is yielded).
    fn merge<'a>(&'a self, other: &'a SetValue) -> impl Iterator<Item = (Ordering, &'a Value)> {
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        std::iter::from_fn(move || {
            let side = match (a.peek(), b.peek()) {
                (None, None) => return None,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(x), Some(y)) => x.cmp(y),
            };
            let theirs = if side == Ordering::Less {
                None
            } else {
                b.next()
            };
            let item = if side == Ordering::Greater {
                theirs
            } else {
                a.next()
            };
            item.map(|v| (side, v))
        })
    }

    /// The elements of the merge whose side `keep`s: sorted and distinct
    /// already.
    fn select(&self, other: &SetValue, keep: impl Fn(Ordering) -> bool) -> SetValue {
        let kept = self.merge(other).filter(|(side, _)| keep(*side));
        SetValue(kept.map(|(_, v)| v.clone()).collect())
    }
}

impl Deref for SetValue {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a SetValue {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl FromIterator<Value> for SetValue {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> SetValue {
        SetValue::drain_from(&mut iter.into_iter().collect())
    }
}
