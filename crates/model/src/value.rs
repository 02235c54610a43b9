//! The universe of complex object values.
//!
//! [`Value`] is the dynamic representation of every TM value. It carries a
//! *total order* (needed so a set of arbitrary values can be kept as one
//! sorted, duplicate-free slice — [`SetValue`] — giving the paper's set
//! semantics for free), a structural equality consistent with it, and a
//! hash implementation (needed by hash-based operators; see
//! [`crate::hash`] for which hasher is used where).
//!
//! Floats are ordered with [`f64::total_cmp`]; `NaN` is therefore a legal,
//! orderable set element, and `-0.0 < 0.0`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::ModelError;
use crate::record::Record;
use crate::set::SetValue;
use crate::Result;

/// A TM complex object value.
///
/// The constructors mirror Section 3.1 of the paper: basic types plus the
/// tuple (`Record`), set, list, and variant type constructors, arbitrarily
/// nested.
#[derive(Debug, Clone)]
pub enum Value {
    /// Relational NULL. **Not part of TM** — exists only so the relational
    /// outerjoin baselines (Ganski–Wong) can be expressed. See crate docs.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer (`INT`).
    Int(i64),
    /// 64-bit float (`REAL`), totally ordered via `total_cmp`.
    Float(f64),
    /// Immutable string (`STRING`), cheaply cloneable.
    Str(Arc<str>),
    /// Tuple value `(a = 1, b = "x")`.
    Tuple(Record),
    /// Duplicate-free set value `{1, 2, 3}`.
    Set(SetValue),
    /// Ordered list value `[1, 2, 2, 3]`.
    List(Vec<Value>),
    /// Variant value `label(v)` of a variant type.
    Variant(Arc<str>, Box<Value>),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for sets from any value iterator
    /// (duplicates collapse silently, per TM set semantics).
    pub fn set(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Set(items.into_iter().collect())
    }

    /// Convenience constructor for an empty set — a first-class citizen of
    /// the model (Section 6: "the empty set is part of the model").
    pub fn empty_set() -> Value {
        Value::Set(SetValue::default())
    }

    /// Convenience constructor for tuples from `(label, value)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate labels; use [`Record::new`] for a fallible build.
    pub fn tuple(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Tuple(Record::new(fields).expect("duplicate label in Value::tuple"))
    }

    /// One-word description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Tuple(_) => "tuple",
            Value::Set(_) => "set",
            Value::List(_) => "list",
            Value::Variant(..) => "variant",
        }
    }

    /// True iff the value is relational NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract a boolean, or fail with a kind mismatch.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(mismatch("bool", other)),
        }
    }

    /// Extract an integer, or fail with a kind mismatch.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(mismatch("int", other)),
        }
    }

    /// Extract a string slice, or fail with a kind mismatch.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(mismatch("string", other)),
        }
    }

    /// Extract a set, or fail with a kind mismatch.
    pub fn as_set(&self) -> Result<&SetValue> {
        match self {
            Value::Set(s) => Ok(s),
            other => Err(mismatch("set", other)),
        }
    }

    /// Take the set out of an owned value (a handle to the shared slice),
    /// or fail with the same kind mismatch as [`Value::as_set`].
    pub fn into_set(self) -> Result<SetValue> {
        match self {
            Value::Set(s) => Ok(s),
            other => Err(mismatch("set", &other)),
        }
    }

    /// Extract a tuple, or fail with a kind mismatch.
    pub fn as_tuple(&self) -> Result<&Record> {
        match self {
            Value::Tuple(r) => Ok(r),
            other => Err(mismatch("tuple", other)),
        }
    }

    /// Navigate a dotted path of tuple field accesses, e.g.
    /// `v.path(&["address", "city"])` for the paper's `d.address.city`.
    pub fn path(&self, fields: &[&str]) -> Result<&Value> {
        let mut cur = self;
        for f in fields {
            cur = cur.as_tuple()?.get(f)?;
        }
        Ok(cur)
    }

    /// Numeric addition with int/float promotion.
    pub fn add(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Numeric subtraction with int/float promotion.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Numeric multiplication with int/float promotion.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// Numeric division; integer division by zero is an error.
    pub fn div(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Int(_), Value::Int(0)) => {
                Err(ModelError::Arithmetic("integer division by zero".into()))
            }
            _ => numeric_binop(self, other, "/", |a, b| a.checked_div(b), |a, b| a / b),
        }
    }

    /// SQL-style three-valued-free comparison used by predicates: values of
    /// different kinds never compare equal (except int/float promotion);
    /// NULL equals nothing, not even NULL — matching outerjoin semantics in
    /// the relational baseline.
    pub fn sql_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => false,
            (Value::Int(a), Value::Float(b)) => (*a as f64) == *b,
            (Value::Float(a), Value::Int(b)) => *a == (*b as f64),
            (a, b) => a == b,
        }
    }

    /// Ordering comparison for predicates, with int/float promotion.
    /// Returns `None` when either side is NULL (unknown).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Float(b)) => Some((*a as f64).total_cmp(b)),
            (Value::Float(a), Value::Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (a, b) => Some(a.cmp(b)),
        }
    }
}

/// Comparison operators on atomic values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// The operator with operand sides swapped (`a < b` ⟷ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Logical negation (`<` ⟷ `≥`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The predicate `a ⟨self⟩ b` — the one comparison `eval` and the
    /// storage pre-test both call. `=`/`≠` go through [`Value::sql_eq`]
    /// (numeric `==` across Int and Float: `-0.0 = 0` holds, a NaN equals
    /// no integer) and the orderings through
    /// [`Value::sql_cmp`] (`total_cmp`), so neither can be derived from
    /// the other; a NULL operand makes every comparison false.
    pub fn test(self, a: &Value, b: &Value) -> bool {
        use Ordering::*;
        match self {
            CmpOp::Eq => a.sql_eq(b),
            CmpOp::Ne => !a.is_null() && !b.is_null() && !a.sql_eq(b),
            CmpOp::Lt => matches!(a.sql_cmp(b), Some(Less)),
            CmpOp::Le => matches!(a.sql_cmp(b), Some(Less | Equal)),
            CmpOp::Gt => matches!(a.sql_cmp(b), Some(Greater)),
            CmpOp::Ge => matches!(a.sql_cmp(b), Some(Greater | Equal)),
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "≠",
            CmpOp::Lt => "<",
            CmpOp::Le => "≤",
            CmpOp::Gt => ">",
            CmpOp::Ge => "≥",
        };
        write!(f, "{s}")
    }
}

fn mismatch(expected: &'static str, found: &Value) -> ModelError {
    ModelError::KindMismatch {
        expected,
        found: found.to_string(),
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    op: &'static str,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    float_op: impl Fn(f64, f64) -> f64,
) -> Result<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => int_op(*x, *y)
            .map(Value::Int)
            .ok_or_else(|| ModelError::Arithmetic(format!("integer overflow in {x} {op} {y}"))),
        (Value::Float(x), Value::Float(y)) => Ok(Value::Float(float_op(*x, *y))),
        (Value::Int(x), Value::Float(y)) => Ok(Value::Float(float_op(*x as f64, *y))),
        (Value::Float(x), Value::Int(y)) => Ok(Value::Float(float_op(*x, *y as f64))),
        _ => Err(ModelError::TypeMismatch {
            context: format!("{} {op} {}", a.kind(), b.kind()),
        }),
    }
}

/// Discriminant rank used to order values of different kinds.
fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Str(_) => 4,
        Value::Tuple(_) => 5,
        Value::Set(_) => 6,
        Value::List(_) => 7,
        Value::Variant(..) => 8,
    }
}

impl PartialEq for Value {
    /// Structural equality, `a == b ⇔ a.cmp(b) == Equal`, without the
    /// ordering walk: tuples and sets reach their pointer-identity and
    /// positional fast paths, floats compare by bit pattern (which is
    /// when `total_cmp` calls them equal).
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (Tuple(a), Tuple(b)) => a == b,
            (Set(a), Set(b)) => a == b,
            (List(a), List(b)) => a == b,
            (Variant(la, va), Variant(lb, vb)) => la == lb && va == vb,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Tuple(a), Tuple(b)) => a.cmp(b),
            (Set(a), Set(b)) => a.cmp(b),
            (List(a), List(b)) => a.cmp(b),
            (Variant(la, va), Variant(lb, vb)) => la.cmp(lb).then_with(|| va.cmp(vb)),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl Value {
    /// The one hash walk. With `memo` off it is `impl Hash`: the byte
    /// stream is fixed, whatever the hasher. With `memo` on, a tuple
    /// contributes its remembered [`Record::structural_hash`] instead of
    /// its fields — the walk behind that hash itself.
    pub(crate) fn feed<H: Hasher>(&self, state: &mut H, memo: bool) {
        rank(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(x) => x.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Tuple(r) if memo => state.write_u64(r.structural_hash()),
            Value::Tuple(r) => r.hash(state),
            Value::Set(items) => feed_all(items, state, memo),
            Value::List(items) => feed_all(items, state, memo),
            Value::Variant(lbl, v) => {
                lbl.hash(state);
                v.feed(state, memo);
            }
        }
    }
}

/// Length, then every element (what `[Value]::hash` feeds).
fn feed_all<H: Hasher>(items: &[Value], state: &mut H, memo: bool) {
    items.len().hash(state);
    for v in items {
        v.feed(state, memo);
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.feed(state, false);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Tuple(r) => write!(f, "{r}"),
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Variant(lbl, v) => write!(f, "{lbl}({v})"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_and_ordering_are_two_relations() {
        let (zero, neg_zero, nan) = (Value::Int(0), Value::Float(-0.0), Value::Float(f64::NAN));
        // Across Int and Float `=` is numeric `==`: -0.0 = 0 holds and a
        // NaN equals no integer …
        assert!(CmpOp::Eq.test(&neg_zero, &zero));
        assert!(!CmpOp::Eq.test(&nan, &zero) && CmpOp::Ne.test(&nan, &zero));
        // … while the orderings are `total_cmp`: -0.0 sorts below 0 and
        // NaN above every number, so `≤ ∧ ≥` does not spell `=`, nor
        // `¬<  ∧ ¬>` either.
        assert!(CmpOp::Lt.test(&neg_zero, &zero) && !CmpOp::Ge.test(&neg_zero, &zero));
        assert!(CmpOp::Gt.test(&nan, &Value::Int(i64::MAX)));
        // Two floats are equal when their bits are.
        assert!(CmpOp::Eq.test(&nan, &nan) && !CmpOp::Eq.test(&neg_zero, &Value::Float(0.0)));
        // NULL makes all six false.
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert!(!op.test(&Value::Null, &zero) && !op.test(&zero, &Value::Null));
            assert_eq!(op.flip().flip(), op);
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn sets_deduplicate() {
        let s = Value::set([Value::Int(1), Value::Int(1), Value::Int(2)]);
        assert_eq!(s.as_set().unwrap().len(), 2);
    }

    #[test]
    fn empty_set_is_first_class() {
        let e = Value::empty_set();
        assert_eq!(e.as_set().unwrap().len(), 0);
        assert!(!e.is_null(), "empty set must be distinct from NULL");
        assert_ne!(e, Value::Null);
    }

    #[test]
    fn float_total_order_handles_nan() {
        let s = Value::set([
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::Float(f64::NAN),
        ]);
        // NaN collapses to a single element under total order.
        assert_eq!(s.as_set().unwrap().len(), 2);
    }

    #[test]
    fn path_navigation() {
        let v = Value::tuple([(
            "address",
            Value::tuple([
                ("city", Value::str("Enschede")),
                ("street", Value::str("Drienerlolaan")),
            ]),
        )]);
        assert_eq!(
            v.path(&["address", "city"]).unwrap(),
            &Value::str("Enschede")
        );
        assert!(v.path(&["address", "zip"]).is_err());
    }

    #[test]
    fn sql_eq_promotes_numerics_and_rejects_null() {
        assert!(Value::Int(2).sql_eq(&Value::Float(2.0)));
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Int(1).sql_eq(&Value::str("1")));
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn arithmetic_promotion_and_errors() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
        assert!(Value::str("a").add(&Value::Int(1)).is_err());
    }

    #[test]
    fn cross_kind_ordering_is_stable() {
        let mut vals = [
            Value::str("a"),
            Value::Int(1),
            Value::Bool(true),
            Value::Null,
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Int(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Value::set([Value::Int(2), Value::Int(1)]).to_string(),
            "{1, 2}"
        );
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Int(1)]).to_string(),
            "[1, 1]"
        );
        assert_eq!(
            Value::Variant(Arc::from("some"), Box::new(Value::Int(1))).to_string(),
            "some(1)"
        );
    }

    #[test]
    fn nested_sets_order_lexicographically() {
        let a = Value::set([Value::Int(1)]);
        let b = Value::set([Value::Int(1), Value::Int(2)]);
        assert!(a < b);
        let outer = Value::set([b.clone(), a.clone(), b.clone()]);
        assert_eq!(outer.as_set().unwrap().len(), 2);
    }
}
