//! Physical operator implementations.
//!
//! The join family is one rule beside the kernels that find candidates.
//! `RowMatch` is the rule: what a left row emits under each of the five
//! [`JoinKind`]s once its candidates are known — the only code that
//! builds a join's output. [`JoinKind`] is the executor's copy of the
//! plan's kind, built once per operator by [`JoinKind::of`] with the
//! labels its rows need interned, and [`Emit`] is the kind together with
//! the selection fused over the join, which `RowMatch` decides before it
//! builds a row. `nl`, [`hash`] and `merge` only decide how a
//! left row's candidates are found (every inner row, a hash bucket, an
//! equal-key group), which makes the paper's observation literal: the nest
//! join is "a simple modification of any common join implementation
//! method" (Section 6). Grouping operators are in `group`. These are the
//! materialized *kernels*; the Volcano-style streaming operator tree that
//! drives them batch-at-a-time is defined in [`operator`], with its
//! operators one family per file beside it and the one spill-partition
//! driver they share in [`spill`].
//!
//! This module itself holds what all of them share: what a row between
//! two operators *is* ([`Shape`] — a record of bindings, or the stored
//! tuple itself when `PhysPlan::row_var` names the variable it is bound
//! to) and the only two ways an operator or kernel touches one: [`bind`]
//! (evaluate over it) and [`fields`] (build a wider row from it, through
//! [`concat()`], [`extend`], `null_extend`, [`project`], `output_value`).
//! A kernel takes its inputs as [`Rows`]: a slice and its shape.

pub(crate) mod apply;
mod breaker;
pub(crate) mod group;
pub mod hash;
mod join;
pub(crate) mod merge;
pub(crate) mod nl;
pub mod operator;
mod scan;
pub mod spill;
mod stream;

use std::cell::Cell;
use std::sync::Arc;

use tmql_algebra::{eval, eval_predicate, Env, Plan, ScalarExpr};
use tmql_model::record::Field;
use tmql_model::{ModelError, Record, Result, SetValue, Value};

use crate::metrics::Metrics;
use crate::physical::{JoinPath, PhysPlan};

/// What a row between two operators is — known per plan node, never per
/// row. Either a **record of bindings** (one field per output variable:
/// what joins, maps and groupings build), or, when
/// `PhysPlan::row_var` says so, the **stored tuple itself**, bound to
/// that one variable by the plan alone: a scan hands out the handles
/// storage gave it and allocates nothing.
///
/// Operators never look inside a `Shape`. They go through [`bind`] to
/// evaluate over a row and through [`fields`] (or the builders on top of
/// it) to make a wider row out of it; only the executor's exits
/// ([`Shape::wrap`]) turn a bare row into the record its callers expect.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Shape(Option<Arc<str>>);

impl Shape {
    /// Records of bindings.
    pub const BOUND: Shape = Shape(None);

    /// Bare tuples, each bound to `var`.
    pub fn bare(var: &str) -> Shape {
        Shape(Some(Arc::from(var)))
    }

    /// The shape of `plan`'s output rows.
    pub fn of(plan: &PhysPlan) -> Shape {
        Shape(plan.row_var().map(Arc::from))
    }

    /// A row leaving the executor, as a record of bindings.
    pub fn wrap(&self, row: Record) -> Record {
        match &self.0 {
            None => row,
            Some(var) => bind_row(var, Value::Tuple(row)),
        }
    }
}

/// A slice of rows and the shape they all have: one kernel input.
pub type Rows<'a> = (&'a [Record], &'a Shape);

/// The one-binding row `(var = value)` that computing operators (map, set
/// expression scan, grouping, set operations) emit. Operators intern `var`
/// once when they are built, so binding a row allocates the row body and
/// nothing else.
pub fn bind_row(var: &Arc<str>, value: Value) -> Record {
    Record::single(var.clone(), value)
}

/// `env` with `row`'s variables bound in front, for as long as the result
/// lives: the one way operators evaluate over a row.
pub fn bind<'e>(env: &'e Env<'e>, shape: &'e Shape, row: &'e Record) -> Env<'e> {
    match &shape.0 {
        None => env.bind_row(row),
        Some(var) => env.bind_tuple(var, row),
    }
}

/// The `(label, value)` pairs of [`fields`]; its length is exact, so a
/// record collected from it (or from chains of it) is one allocation.
pub type Fields<'r> =
    std::iter::Chain<std::iter::Cloned<std::slice::Iter<'r, Field>>, std::option::IntoIter<Field>>;

/// The `(variable, value)` pairs `row` contributes when a wider row is
/// built from it.
pub fn fields<'r>(shape: &Shape, row: &'r Record) -> Fields<'r> {
    let (bound, bare): (&[Field], _) = match &shape.0 {
        None => (row.fields(), None),
        Some(var) => (&[], Some((var.clone(), Value::Tuple(row.clone())))),
    };
    bound.iter().cloned().chain(bare)
}

/// Tuple concatenation `l ++ r` of two rows (Section 6).
pub fn concat(ls: &Shape, l: &Record, rs: &Shape, r: &Record) -> Result<Record> {
    Record::new(fields(ls, l).chain(fields(rs, r)))
}

/// The paper's `x ++ (label = value)`.
pub fn extend(shape: &Shape, row: &Record, label: &Arc<str>, value: Value) -> Result<Record> {
    Record::new(fields(shape, row).chain([(label.clone(), value)]))
}

/// NULL-extend a row with the given variables (outerjoin dangling side).
pub(crate) fn null_extend(shape: &Shape, row: &Record, vars: &[Arc<str>]) -> Result<Record> {
    let nulls = vars.iter().map(|v| (v.clone(), Value::Null));
    Record::new(fields(shape, row).chain(nulls))
}

/// Projection of a row onto `vars` (in the order given).
pub fn project(shape: &Shape, row: &Record, vars: &[Arc<str>]) -> Result<Record> {
    let root = Env::new();
    let env = bind(&root, shape, row);
    let get = |v: &Arc<str>| match env.get(v) {
        Ok(value) => Ok((v.clone(), value)),
        Err(_) => Err(no_such_var(shape, row, v)),
    };
    Record::try_new(vars.iter().map(get))
}

/// The error for a variable a row does not bind.
pub(crate) fn no_such_var(shape: &Shape, row: &Record, var: &str) -> ModelError {
    ModelError::NoSuchField {
        field: var.to_string(),
        available: fields(shape, row).map(|(l, _)| l.to_string()).collect(),
    }
}

/// A row's output value (the convention of [`Plan::row_output_value`]): a
/// bare row is its one binding's value.
pub(crate) fn output_value(shape: &Shape, row: &Record) -> Value {
    match &shape.0 {
        None => Plan::row_output_value(row),
        Some(_) => Value::Tuple(row.clone()),
    }
}

/// Evaluate a list of key expressions over `env`.
/// Returns `None` if any key is NULL (NULL never equi-joins).
pub(crate) fn eval_keys(
    keys: &[tmql_algebra::ScalarExpr],
    env: &Env<'_>,
) -> Result<Option<Vec<Value>>> {
    let mut out = Vec::with_capacity(keys.len());
    for k in keys {
        let v = eval(k, env)?;
        if v.is_null() {
            return Ok(None);
        }
        out.push(v);
    }
    Ok(Some(out))
}

/// What a join emits per left row, as its operator holds it: the plan's
/// [`tmql_algebra::JoinKind`], with what the output rows need interned
/// once when the operator is built ([`JoinKind::of`]) — so a dangling row
/// allocates no label.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinKind {
    /// Regular join: concatenated matching pairs.
    Inner,
    /// Semijoin ⋉: left rows with a match.
    Semi,
    /// Antijoin ▷: left rows without a match.
    Anti,
    /// Left outerjoin ⟕: dangling left rows NULL-extended on the right
    /// side's variables.
    LeftOuter {
        /// Variables of the right side to NULL-bind for dangling rows.
        right_vars: Vec<Arc<str>>,
    },
    /// Nest join Δ: left row extended with the set of `func` images of
    /// matching right rows under `label`.
    Nest {
        /// Join function G(x, y).
        func: ScalarExpr,
        /// Output label for the nested set.
        label: Arc<str>,
    },
}

impl JoinKind {
    /// The kind an operator runs for a plan join of `kind` over `path`.
    pub fn of(kind: &tmql_algebra::JoinKind, path: &JoinPath) -> JoinKind {
        use tmql_algebra::JoinKind as K;
        match kind {
            K::Inner => JoinKind::Inner,
            K::Semi => JoinKind::Semi,
            K::Anti => JoinKind::Anti,
            K::LeftOuter => JoinKind::LeftOuter {
                right_vars: path.right_vars().into_iter().map(Arc::from).collect(),
            },
            K::Nest { func, label } => JoinKind::Nest {
                func: func.clone(),
                label: label.as_str().into(),
            },
        }
    }
}

/// What a join's operator emits: the rows of its [`JoinKind`] that the
/// selection directly over the join, fused into it, accepts. The
/// selection is decided on the bindings an output row would have — ⋈
/// and a matched ⟕ on the pair, ⋉ and ▷ on the left row, a dangling ⟕
/// on its NULL extension, Δ on the left row plus `label → set` — under
/// the operator's correlation environment, and a row it rejects is never
/// built. It filters output rows and is never part of the join predicate,
/// so what ⟕ and Δ answer for a dangling row is unchanged.
///
/// A row the join produces counts what it counted as the input of a
/// `Filter` above the join: one `comparisons` and one `rows_emitted`
/// (the hand-over, made in place, as a filtering scan counts it).
#[derive(Debug)]
pub struct Emit {
    pub(crate) kind: JoinKind,
    /// The fused selection.
    select: Option<ScalarExpr>,
    /// A variable the output rows would bind twice (decided once per
    /// operator, from the plan): no such row can be built, so each one the
    /// selection would decide fails as building it would.
    clash: Option<String>,
    /// Rows the selection rejected that the operator has not yet counted
    /// in its `rows_skipped`.
    skipped: Cell<u64>,
}

impl From<JoinKind> for Emit {
    /// Every row of `kind`: no selection.
    fn from(kind: JoinKind) -> Emit {
        Emit::new(kind, None, Vec::new())
    }
}

impl Emit {
    /// The rows of `kind` that `select` accepts; `vars` are the output
    /// rows' variables ([`PhysPlan::output_vars`] of the join).
    pub fn new(kind: JoinKind, select: Option<&ScalarExpr>, vars: Vec<String>) -> Emit {
        let builds = !matches!(kind, JoinKind::Semi | JoinKind::Anti);
        let twice = |(i, v): &(usize, &String)| vars[..*i].contains(v);
        let clash = match (builds, select) {
            (true, Some(_)) => vars.iter().enumerate().find(twice).map(|(_, v)| v.clone()),
            _ => None,
        };
        Emit {
            kind,
            select: select.cloned(),
            clash,
            skipped: Cell::new(0),
        }
    }

    /// Whether the output row `row` binds passes the selection: one
    /// `comparisons` and one `rows_emitted` when there is a selection.
    fn admits(&self, row: &Env<'_>, m: &mut Metrics) -> Result<bool> {
        let Some(select) = &self.select else {
            return Ok(true);
        };
        if let Some(var) = &self.clash {
            return Err(ModelError::DuplicateField(var.clone()));
        }
        m.comparisons += 1;
        m.rows_emitted += 1;
        let keep = eval_predicate(select, row)?;
        if !keep {
            self.skipped.set(self.skipped.get() + 1);
        }
        Ok(keep)
    }

    /// Whether a selection is fused in.
    pub(crate) fn selects(&self) -> bool {
        self.select.is_some()
    }

    /// The rows rejected since the last call.
    pub(crate) fn take_skipped(&self) -> u64 {
        self.skipped.take()
    }
}

/// One left row's progress through its join candidates: whether one has
/// matched, and the images a nest join has collected — "for each left
/// operand tuple a set is created to hold the (possibly modified) right
/// operand tuples that match" (Section 6). It is the join kinds' one rule:
/// every algorithm feeds it the candidates it finds ([`RowMatch::hit`]),
/// stops early once [`RowMatch::decided`], and ends the row with
/// [`RowMatch::finish`]; nothing else in the executor builds a join's
/// output, and both decide the fused selection ([`Emit`]) before they
/// build a row.
#[derive(Debug, Default, Clone)]
pub(crate) struct RowMatch {
    matched: bool,
    nested: Vec<Value>,
}

impl RowMatch {
    /// Candidate `r` matched left row `l`, with `pair` binding both: ⋈ and
    /// ⟕ emit the concatenated pair, Δ collects `func`'s image, ⋉ and ▷
    /// only note the match.
    pub(crate) fn hit(
        &mut self,
        emit: &Emit,
        (ls, l): (&Shape, &Record),
        (rs, r): (&Shape, &Record),
        pair: &Env<'_>,
        m: &mut Metrics,
        out: &mut Vec<Record>,
    ) -> Result<()> {
        self.matched = true;
        match &emit.kind {
            JoinKind::Inner | JoinKind::LeftOuter { .. } => {
                if emit.admits(pair, m)? {
                    out.push(concat(ls, l, rs, r)?);
                }
            }
            JoinKind::Semi | JoinKind::Anti => {}
            JoinKind::Nest { func, .. } => self.nested.push(eval(func, pair)?),
        }
        Ok(())
    }

    /// ⋉ and ▷ are decided by the first match: no further candidate can
    /// change what the row emits.
    pub(crate) fn decided(&self, kind: &JoinKind) -> bool {
        self.matched && matches!(kind, JoinKind::Semi | JoinKind::Anti)
    }

    /// Left row `l`'s candidates are exhausted: emit what depends on all of
    /// them, and start over for the next row. On a fresh state this is
    /// each kind's **dangling** answer — ⋈ and ⋉ nothing, ▷ the row, ⟕ its
    /// NULL extension, Δ `label = ∅` (never NULL). `env` is the operator's
    /// correlation environment.
    pub(crate) fn finish(
        &mut self,
        emit: &Emit,
        (ls, l): (&Shape, &Record),
        env: &Env<'_>,
        m: &mut Metrics,
        out: &mut Vec<Record>,
    ) -> Result<()> {
        let matched = std::mem::take(&mut self.matched);
        match &emit.kind {
            JoinKind::Inner => {}
            JoinKind::Semi | JoinKind::Anti => {
                let semi = matches!(emit.kind, JoinKind::Semi);
                if matched == semi && emit.admits(&bind(env, ls, l), m)? {
                    out.push(l.clone());
                }
            }
            // The NULL extension is built first: the selection decides
            // it as the bound row it is.
            JoinKind::LeftOuter { right_vars } => {
                if !matched {
                    let row = null_extend(ls, l, right_vars)?;
                    if emit.admits(&env.bind_row(&row), m)? {
                        out.push(row);
                    }
                }
            }
            JoinKind::Nest { label, .. } => {
                let set = Value::Set(SetValue::drain_from(&mut self.nested));
                if emit.admits(&bind(env, ls, l).bind(label, &set), m)? {
                    out.push(extend(ls, l, label, set)?);
                }
            }
        }
        Ok(())
    }
}

/// Test inputs built by hand are records of bindings.
#[cfg(test)]
pub(crate) fn bound(rows: &[Record]) -> Rows<'_> {
    static BOUND: Shape = Shape::BOUND;
    (rows, &BOUND)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmql_algebra::ScalarExpr as E;

    fn stored() -> Record {
        Record::new([("a", Value::Int(1)), ("b", Value::Int(2))]).unwrap()
    }

    #[test]
    fn eval_keys_rejects_null() {
        let mut env = Env::new();
        env.push("x", Value::Null);
        let keys = vec![E::var("x")];
        assert_eq!(eval_keys(&keys, &env).unwrap(), None);
        env.push("x", Value::Int(3));
        assert_eq!(eval_keys(&keys, &env).unwrap(), Some(vec![Value::Int(3)]));
    }

    #[test]
    fn with_row_restores_env() {
        let mut env = Env::new();
        env.push("a", Value::Int(0));
        let row = stored();
        for shape in [Shape::BOUND, Shape::bare("a")] {
            let inner = bind(&env, &shape, &row);
            assert_ne!(inner.get("a").unwrap(), Value::Int(0), "{shape:?}");
        }
        assert_eq!(env.get("a").unwrap(), Value::Int(0));
    }

    #[test]
    fn null_extend_binds_nulls() {
        let row = Record::new([("x".to_string(), Value::Int(1))]).unwrap();
        let out = null_extend(&Shape::BOUND, &row, &["y".into(), "z".into()]).unwrap();
        assert!(out.get("y").unwrap().is_null());
        assert!(out.get("z").unwrap().is_null());
    }

    #[test]
    fn a_bare_row_builds_what_its_envelope_built() {
        let row = stored();
        let (bare, bound) = (Shape::bare("x"), Shape::BOUND);
        let envelope = bare.wrap(row.clone());
        assert_eq!(envelope, bind_row(&"x".into(), Value::Tuple(row.clone())));
        assert_eq!(bound.wrap(envelope.clone()), envelope);
        let other = Record::new([("y", Value::Int(9))]).unwrap();
        let label: Arc<str> = "s".into();
        let vars: Vec<Arc<str>> = vec!["x".into()];
        assert_eq!(
            concat(&bare, &row, &bound, &other).unwrap(),
            concat(&bound, &envelope, &bound, &other).unwrap()
        );
        assert_eq!(
            concat(&bound, &other, &bare, &row).unwrap(),
            concat(&bound, &other, &bound, &envelope).unwrap()
        );
        assert_eq!(
            extend(&bare, &row, &label, Value::empty_set()).unwrap(),
            extend(&bound, &envelope, &label, Value::empty_set()).unwrap()
        );
        assert_eq!(
            null_extend(&bare, &row, &["y".into()]).unwrap(),
            null_extend(&bound, &envelope, &["y".into()]).unwrap()
        );
        assert_eq!(project(&bare, &row, &vars).unwrap(), envelope);
        assert_eq!(project(&bound, &envelope, &vars).unwrap(), envelope);
        assert_eq!(project(&bare, &row, &[]).unwrap(), Record::empty());
        assert_eq!(output_value(&bare, &row), Value::Tuple(row.clone()));
        assert_eq!(output_value(&bound, &envelope), Value::Tuple(row.clone()));
        assert_eq!(output_value(&bound, &row), Value::Tuple(row.clone()));
        // Clashing and missing variables are the errors they were.
        assert!(extend(&bare, &row, &"x".into(), Value::Null).is_err());
        assert!(concat(&bare, &row, &bare, &row).is_err());
        let missing: Vec<Arc<str>> = vec!["a".into()];
        assert_eq!(
            project(&bare, &row, &missing).unwrap_err(),
            envelope.project(&["a"]).unwrap_err()
        );
    }

    /// A nest join whose `func` fails on one probe row leaves nothing
    /// bound: the same correlation environment then gives clean input the
    /// clean answer, in every kernel. (Frames used to be pushed and popped
    /// by hand, and these paths returned with one or two still pushed.)
    #[test]
    fn a_failed_probe_row_leaves_no_frame_behind() {
        use crate::Metrics;
        let x = |d: i64, e: Value| Record::new([("d", Value::Int(d)), ("e", e)]).unwrap();
        let y = |b: i64| Record::new([("b", Value::Int(b)), ("a", Value::Int(b * 10))]).unwrap();
        let clean = vec![x(1, Value::tuple([("z", Value::Int(7))]))];
        // The second row's `e` is no tuple: `x.e.z` fails once it matches.
        let dirty = vec![clean[0].clone(), x(2, Value::Int(7))];
        let right = vec![y(1), y(2), y(1)];
        let (xs, ys) = (Shape::bare("x"), Shape::bare("y"));
        let (lk, rk) = ([E::path("x", &["d"])], [E::path("y", &["b"])]);
        let pred = E::eq(lk[0].clone(), rk[0].clone());
        let kind = JoinKind::Nest {
            func: E::Tuple(vec![
                ("k".into(), E::var("k")),
                ("z".into(), E::path("x", &["e", "z"])),
                ("a".into(), E::path("y", &["a"])),
            ]),
            label: "s".into(),
        };
        let kind = Emit::from(kind);
        let mut env = Env::new();
        env.push("k", Value::Int(42));
        type Kernel<'a> = &'a dyn Fn(&[Record], &Env<'_>) -> Result<Vec<Record>>;
        let m = || Metrics::new();
        let r = (right.as_slice(), &ys);
        let hash: Kernel<'_> =
            &|l, env| hash::join((l, &xs), r, &lk, &rk, None, &kind, env, &mut m());
        let nl: Kernel<'_> = &|l, env| nl::join((l, &xs), r, &pred, &kind, env, &mut m());
        let merge: Kernel<'_> =
            &|l, env| merge::join((l, &xs), r, &lk, &rk, None, &kind, env, &mut m());
        let item = |a: i64| {
            let fields = [("k", 42), ("z", 7), ("a", a)];
            Value::tuple(fields.map(|(l, v)| (l, Value::Int(v))))
        };
        let nested = Value::set([item(10)]);
        let want = vec![extend(&xs, &clean[0], &"s".into(), nested).unwrap()];
        for (name, kernel) in [("hash", hash), ("nl", nl), ("merge", merge)] {
            let err = kernel(&dirty, &env).unwrap_err();
            assert!(
                matches!(err, ModelError::KindMismatch { .. }),
                "{name}: {err}"
            );
            assert_eq!(kernel(&clean, &env).unwrap(), want, "{name}");
            assert!(env.get("x").is_err() && env.get("y").is_err(), "{name}");
        }
    }
}
