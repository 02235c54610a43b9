//! The universe of complex object values.
//!
//! [`Value`] is the dynamic representation of every TM value. It carries
//! **one equality**: `==`, [`Ord`] and the hash all decide "the same value"
//! the same way, and every consumer — `=` in a predicate
//! ([`CmpOp::test`]), set membership and dedup ([`SetValue`]), the hash,
//! sort-merge and index joins, index probes and the scan pre-test — calls
//! those three, so no join algorithm can answer differently from another.
//! The order is total (a set of arbitrary values is one sorted,
//! duplicate-free slice, which gives the paper's set semantics for free);
//! see [`crate::hash`] for which hasher is used where.
//!
//! Numbers are one kind. `Int` and `Float` share a rank and compare by
//! exact numeric value: `Int(i) == Float(f)` iff `f` is integral, in i64
//! range and equal to `i` (no rounding through `i as f64`, so 2⁵³ + 1 is
//! not 2⁵³ as a float). `-0.0 == 0.0 == 0`. Every NaN equals every other
//! NaN and sorts above every number, so NaN is a legal set element. An
//! integral float in i64 range hashes as its `Int`, every NaN as one
//! pattern.

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
/// The constructors are the part of Section 3.1 of the paper that TMQL
/// can build: basic types plus the tuple (`Record`) and set type
/// constructors, arbitrarily nested.
#[derive(Debug, Clone)]
pub enum Value {
    /// Relational NULL. **Not part of TM** — exists only so the relational
    /// outerjoin baselines (Ganski–Wong) can be expressed. See crate docs.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer (`INT`).
    Int(i64),
    /// 64-bit float (`REAL`), ordered among the integers by exact value.
    Float(f64),
    /// Immutable string (`STRING`), cheaply cloneable.
    Str(Arc<str>),
    /// Tuple value `(a = 1, b = "x")`.
    Tuple(Record),
    /// Duplicate-free set value `{1, 2, 3}`.
    Set(SetValue),
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
    /// storage pre-test both call. A NULL operand makes every comparison
    /// false (NULL equals nothing, not even NULL, as in the relational
    /// outerjoin baselines); otherwise all six read [`Value`]'s own order,
    /// so `=` is the equality every hash, merge and index join keys on,
    /// `≤ ∧ ≥` spells `=`, and `≠` is `¬=`.
    pub fn test(self, a: &Value, b: &Value) -> bool {
        if a.is_null() || b.is_null() {
            return false;
        }
        self.holds(a.cmp(b))
    }

    /// Whether `a ⟨self⟩ b` holds for two non-NULL operands with
    /// `a.cmp(b) == ord`: one bit of the operator's table, indexed by
    /// `Less`, `Equal`, `Greater`.
    #[inline]
    pub fn holds(self, ord: Ordering) -> bool {
        let table: u8 = match self {
            CmpOp::Eq => 0b010,
            CmpOp::Ne => 0b101,
            CmpOp::Lt => 0b001,
            CmpOp::Le => 0b011,
            CmpOp::Gt => 0b100,
            CmpOp::Ge => 0b110,
        };
        table >> (ord as i8 + 1) & 1 == 1
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

/// The rank of strings, which [`str_cmp`] compares other kinds by.
const STR_RANK: u8 = 4;

/// Discriminant rank used to order values of different kinds. Numbers are
/// one kind; the other ranks keep their numbers, and so their hashes.
fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Str(_) => STR_RANK,
        Value::Tuple(_) => 5,
        Value::Set(_) => 6,
    }
}

/// `Value::Str(s).cmp(v)` without building the string value: byte order
/// against a string, rank against any other kind.
pub fn str_cmp(s: &str, v: &Value) -> Ordering {
    match v {
        Value::Str(t) => s.cmp(t),
        other => STR_RANK.cmp(&rank(other)),
    }
}

/// 2⁶³, the first float above every i64.
const I64_END: f64 = 9_223_372_036_854_775_808.0;

/// Two floats by value: `-0.0 = 0.0`, and NaN equals NaN and sorts above
/// every number.
fn cmp_floats(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// The `Int` equal to `f`, if there is one.
fn integral(f: f64) -> Option<i64> {
    (f.fract() == 0.0 && (-I64_END..I64_END).contains(&f)).then_some(f as i64)
}

/// `i` against `f`, exactly: no rounding of `i` to a float.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() || f >= I64_END {
        Ordering::Less
    } else if f < -I64_END {
        Ordering::Greater
    } else {
        // In range, `as` truncates `f` toward zero exactly; the fraction
        // decides a tie.
        i.cmp(&(f as i64))
            .then(0f64.partial_cmp(&f.fract()).unwrap_or(Ordering::Equal))
    }
}

impl PartialEq for Value {
    /// `a == b ⇔ a.cmp(b) == Equal`, without the ordering walk: tuples and
    /// sets reach their pointer-identity and positional fast paths.
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Int(i), Float(f)) | (Float(f), Int(i)) => integral(*f) == Some(*i),
            (Str(a), Str(b)) => a == b,
            (Tuple(a), Tuple(b)) => a == b,
            (Set(a), Set(b)) => a == b,
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
            (Float(a), Float(b)) => cmp_floats(*a, *b),
            (Int(i), Float(f)) => cmp_int_float(*i, *f),
            (Float(f), Int(i)) => cmp_int_float(*i, *f).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            (Tuple(a), Tuple(b)) => a.cmp(b),
            (Set(a), Set(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl Value {
    /// A monotone summary of [`Ord`]: 16 bytes, read big-endian, with
    /// `a ≤ b ⇒ a.sort_prefix(s) ≤ b.sort_prefix(s)` and so `a == b ⇒` equal
    /// prefixes. Unequal prefixes decide an order; equal ones decide
    /// nothing, and `cmp` breaks the tie.
    ///
    /// The prefix is the start of an order-preserving encoding: a rank byte
    /// per kind; a number's integer part (its floor) in a length-headed
    /// big-endian form, with one byte below and one above the i64 range; a
    /// string's bytes, escaped, and a terminator; a tuple's fields in
    /// canonical label order, and a set's elements, then a byte below every
    /// rank. The encoding stops early — later bytes zero — at
    /// a byte that tells any operand sharing the bytes so far to stop too:
    /// the byte of a number past either end of the i64 range, or the byte
    /// after a number's floor that marks a fraction.
    ///
    /// Prefixes compare only with prefixes made with the same `schema`.
    /// With one, a top-level tuple is keyed without its labels, so every
    /// tuple must share the schema's labels in canonical order; `None`
    /// means this one does not. Without a schema the result is `Some`.
    pub fn sort_prefix(&self, schema: Option<&Record>) -> Option<u128> {
        let mut key = Prefix::default();
        match (self, schema) {
            (Value::Tuple(row), Some(schema)) => {
                if !row.same_canonical_labels(schema) {
                    return None;
                }
                let _ = key
                    .put((rank(self) + 1).into(), 1)
                    .and_then(|()| (row.fields().iter()).try_for_each(|(_, v)| key.value(v)));
            }
            _ => {
                let _ = key.value(self);
            }
        }
        Some(key.key)
    }
}

/// Ends a tuple or set in a sort prefix: below every rank byte and
/// every label's first byte.
const END: u8 = 0;
/// Escapes the bytes 0 and 1 in a string, and with 0 terminates it, so
/// that no string starts below it and none is a prefix of another.
const ESC: u8 = 1;
/// Follows the floor of a number with a fraction, and stops the prefix.
/// What can follow an integral number is below it: a rank, [`END`], the
/// first byte of a label (UTF-8 has no `0xFF`) or the zero padding.
const FRACTION: u8 = 0xFF;

/// A sort prefix being written, from the top byte down. A step returns
/// `None` once the prefix is full or has stopped, which ends the walk.
#[derive(Default)]
struct Prefix {
    key: u128,
    /// Bytes written.
    len: u32,
}

impl Prefix {
    /// The low `n` bytes of `v`, or as many of them as fit.
    fn put(&mut self, v: u128, n: u32) -> Option<()> {
        let end = self.len + n;
        if end > 16 {
            self.key |= v >> (8 * (end - 16));
            self.len = 16;
            return None;
        }
        self.key |= v << (128 - 8 * end);
        self.len = end;
        Some(())
    }

    /// The byte `b`, then the end of the walk.
    fn stop(&mut self, b: u8) -> Option<()> {
        self.put(b.into(), 1).and(None)
    }

    fn value(&mut self, v: &Value) -> Option<()> {
        self.put((rank(v) + 1).into(), 1)?;
        match v {
            Value::Null => Some(()),
            Value::Bool(b) => self.put((*b).into(), 1),
            Value::Int(i) => self.int(*i),
            Value::Float(f) if *f < -I64_END => self.stop(0),
            Value::Float(f) if f.is_nan() || *f >= I64_END => self.stop(0xFF),
            Value::Float(f) => {
                // In range, so the floor is an exact i64; -0.0 keys as 0.
                self.int(f.floor() as i64)?;
                match f.fract() == 0.0 {
                    true => Some(()),
                    false => self.stop(FRACTION),
                }
            }
            Value::Str(s) => self.str(s),
            Value::Tuple(r) => {
                let mut open = Some(());
                r.for_each_canonical(|l, v| {
                    open = open.and_then(|()| self.str(l)).and_then(|()| self.value(v));
                });
                open.and_then(|()| self.put(END.into(), 1))
            }
            Value::Set(items) => {
                items.iter().try_for_each(|v| self.value(v))?;
                self.put(END.into(), 1)
            }
        }
    }

    /// A header byte that orders by sign and magnitude length (`0x77..=0x7F`
    /// below zero, `0x80..=0x88` from zero up), then the magnitude's bytes.
    fn int(&mut self, i: i64) -> Option<()> {
        let len = 8 - (if i < 0 { !i } else { i }).leading_zeros() / 8;
        let header = u128::from(if i < 0 { 0x7F - len } else { 0x80 + len });
        let magnitude = u128::from(i as u64) & ((1 << (8 * len)) - 1);
        self.put(header << (8 * len) | magnitude, len + 1)
    }

    fn str(&mut self, s: &str) -> Option<()> {
        for &b in s.as_bytes() {
            match b <= ESC {
                true => self.put(u128::from(ESC) << 8 | u128::from(b + 1), 2)?,
                false => self.put(b.into(), 1)?,
            }
        }
        self.put(u128::from(ESC) << 8, 2)
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
            // Equal numbers feed equal words: an integral float in range
            // its `Int`, every NaN one pattern.
            Value::Float(x) => match integral(*x) {
                Some(i) => i.hash(state),
                None if x.is_nan() => f64::NAN.to_bits().hash(state),
                None => x.to_bits().hash(state),
            },
            Value::Str(s) => s.hash(state),
            Value::Tuple(r) if memo => state.write_u64(r.structural_hash()),
            Value::Tuple(r) => r.hash(state),
            // Length, then every element (what `[Value]::hash` feeds).
            Value::Set(items) => {
                items.len().hash(state);
                for v in items.iter() {
                    v.feed(state, memo);
                }
            }
        }
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

    fn hash_of(v: &Value) -> u64 {
        let mut h = crate::hash::ValueHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    /// `=` in a predicate, `==`, `cmp` and the hash say the same thing on
    /// every pair that once set them apart.
    #[test]
    fn equality_and_ordering_are_one_relation() {
        use Value::{Float, Int};
        let nan = |bits: u64| Float(f64::from_bits(0x7ff8_0000_0000_0000 | bits));
        let two_53 = 1i64 << 53;
        let equal = [
            // Int 1 and Float 1.0 (hash and merge joins once told them apart).
            (Int(1), Float(1.0)),
            // -0.0 = 0.0 (once two bit patterns) and -0.0 = 0.
            (Float(-0.0), Float(0.0)),
            (Float(-0.0), Int(0)),
            // Two NaN payloads (once two keys).
            (nan(0), nan(0x8000_0000_0000_0001)),
            (Int(two_53), Float(two_53 as f64)),
            (Int(i64::MIN), Float(-9_223_372_036_854_775_808.0)),
        ];
        for (a, b) in &equal {
            assert!(
                CmpOp::Eq.test(a, b) && !CmpOp::Ne.test(a, b),
                "{a:?} = {b:?}"
            );
            assert!(a == b && a.cmp(b) == Ordering::Equal, "{a:?} == {b:?}");
            assert_eq!(hash_of(a), hash_of(b), "{a:?} and {b:?} hash alike");
        }
        // Ascending, each strictly below the next: 2⁵³ + 1 is not the float
        // 2⁵³ (once equal through `as f64`), -0.0 is not below 0 (once
        // it was while also `=`), 2⁶³ is above i64::MAX, and NaN is above
        // every number.
        let ascending = [
            Float(f64::NEG_INFINITY),
            Int(i64::MIN),
            Int(-1),
            Float(-0.5),
            Float(-0.0),
            Float(0.5),
            Int(1),
            Float(1.5),
            Float(two_53 as f64),
            Int(two_53 + 1),
            Int(i64::MAX),
            Float(9_223_372_036_854_775_808.0),
            Float(f64::INFINITY),
            nan(0),
        ];
        for w in ascending.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert!(
                CmpOp::Lt.test(a, b) && CmpOp::Ne.test(a, b),
                "{a:?} < {b:?}"
            );
            assert!(!CmpOp::Ge.test(a, b) && a != b && a < b, "{a:?} < {b:?}");
            assert!(CmpOp::Gt.test(b, a) && b.cmp(a) == Ordering::Greater);
        }
        // NULL makes all six false.
        let zero = Int(0);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert!(!op.test(&Value::Null, &zero) && !op.test(&zero, &Value::Null));
            assert!(!op.test(&Value::Null, &Value::Null));
            assert_eq!(op.flip().flip(), op);
            assert_eq!(op.negate().negate(), op);
        }
        // Other kinds stay apart.
        assert!(!CmpOp::Eq.test(&Int(1), &Value::str("1")));
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
