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
//! two operators *is* ([`RowVar`] — a record of bindings, or the stored
//! tuple itself when `PhysPlan::row_var` names the variable it is bound
//! to) and the only ways an operator or kernel touches one: [`bind`]
//! (evaluate over it), and [`shape_of`] and [`values`] (build a wider row
//! from it, through [`concat()`], [`extend`], `null_extend`, [`project`],
//! `output_value`). A kernel takes its inputs as [`Rows`]: a slice and
//! how its rows are bound.

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

use tmql_algebra::{Compiled, Env, Plan, ScalarExpr};
use tmql_model::{ModelError, Record, Result, SetValue, Shape, ShapeMemo, Value};

use crate::metrics::Metrics;
use crate::physical::PhysPlan;
use crate::planner::EquiSplit;

/// What a row between two operators is — known per plan node, never per
/// row. Either a **record of bindings** (one field per output variable:
/// what joins, maps and groupings build), or, when
/// `PhysPlan::row_var` says so, the **stored tuple itself**, bound to
/// that one variable by the plan alone: a scan hands out the handles
/// storage gave it and allocates nothing. The variable is held as the
/// one-label [`Shape`] `(var)` — the shape of the binding a bare row
/// contributes to a wider row.
///
/// Operators never look inside a `RowVar`. They go through [`bind`] to
/// evaluate over a row and through [`shape_of`] and [`values`] (or the
/// builders on top of them) to make a wider row out of it; only the
/// executor's exits ([`RowVar::wrap`]) turn a bare row into the record
/// its callers expect.
#[derive(Debug, Clone, Default)]
pub struct RowVar(Option<Arc<Shape>>);

impl PartialEq for RowVar {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Shape::same(a, b),
            _ => false,
        }
    }
}

impl RowVar {
    /// Records of bindings.
    pub const BOUND: RowVar = RowVar(None);

    /// Bare tuples, each bound to `var`.
    pub fn bare(var: &str) -> RowVar {
        RowVar(Some(var_shape(var)))
    }

    /// How `plan`'s output rows are bound.
    pub fn of(plan: &PhysPlan) -> RowVar {
        RowVar(plan.row_var().map(var_shape))
    }

    /// A row leaving the executor, as a record of bindings.
    pub fn wrap(&self, row: Record) -> Record {
        match &self.0 {
            None => row,
            Some(var) => bind_row(var, Value::Tuple(row)),
        }
    }
}

/// A slice of rows and how they are all bound: one kernel input.
pub type Rows<'a> = (&'a [Record], &'a RowVar);

/// The one-label shape `(var)` of the rows an operator binding `var`
/// builds: made once per operator.
pub fn var_shape(var: &str) -> Arc<Shape> {
    Shape::single(Arc::from(var))
}

/// The one-binding row `(var = value)` that computing operators (map, set
/// expression scan, grouping, set operations) emit. Operators make the
/// shape `(var)` once when they are built ([`var_shape`]), so binding a
/// row allocates the row body and nothing else.
pub fn bind_row(var: &Arc<Shape>, value: Value) -> Record {
    Record::shaped(var.clone(), [value])
}

/// `env` with `row`'s variables bound in front, for as long as the result
/// lives: the one way operators evaluate over a row.
pub fn bind<'e>(env: &'e Env<'e>, rv: &'e RowVar, row: &'e Record) -> Env<'e> {
    match &rv.0 {
        None => env.bind_row(row),
        Some(var) => env.bind_tuple(&var.labels()[0], row),
    }
}

/// The shape of the bindings `row` contributes when a wider row is built
/// from it.
pub fn shape_of<'r>(rv: &'r RowVar, row: &'r Record) -> &'r Arc<Shape> {
    match &rv.0 {
        None => row.shape(),
        Some(var) => var,
    }
}

/// The values of [`values`], in [`shape_of`]'s order; its length is exact.
pub type Values<'r> =
    std::iter::Chain<std::iter::Cloned<std::slice::Iter<'r, Value>>, std::option::IntoIter<Value>>;

/// The values of the bindings `row` contributes when a wider row is built
/// from it.
pub fn values<'r>(rv: &RowVar, row: &'r Record) -> Values<'r> {
    let (bound, bare): (&[Value], _) = match &rv.0 {
        None => (row.values(), None),
        Some(_) => (&[], Some(Value::Tuple(row.clone()))),
    };
    bound.iter().cloned().chain(bare)
}

/// Tuple concatenation `l ++ r` of two rows (Section 6), under the shape
/// `shapes` derives for their shapes.
pub fn concat(
    shapes: &ShapeMemo,
    (ls, l): (&RowVar, &Record),
    (rs, r): (&RowVar, &Record),
) -> Result<Record> {
    let (a, b) = (shape_of(ls, l), shape_of(rs, r));
    let shape = shapes.get(a, Some(b), || a.concat(b))?;
    Ok(Record::shaped(shape, values(ls, l).chain(values(rs, r))))
}

/// The paper's `x ++ (label = value)`, under the shape `shapes` derives
/// for the row's.
pub fn extend(
    shapes: &ShapeMemo,
    (rv, row): (&RowVar, &Record),
    label: &Arc<str>,
    value: Value,
) -> Result<Record> {
    let a = shape_of(rv, row);
    let shape = shapes.get(a, None, || a.extend([label]))?;
    Ok(Record::shaped(shape, values(rv, row).chain([value])))
}

/// NULL-extend a row with the given variables (outerjoin dangling side).
pub(crate) fn null_extend(
    shapes: &ShapeMemo,
    (rv, row): (&RowVar, &Record),
    vars: &[Arc<str>],
) -> Result<Record> {
    let a = shape_of(rv, row);
    let shape = shapes.get(a, None, || a.extend(vars))?;
    let nulls = vars.iter().map(|_| Value::Null);
    Ok(Record::shaped(shape, values(rv, row).chain(nulls)))
}

/// Projection of a row onto the variables of `vars`, in its order.
pub fn project(rv: &RowVar, row: &Record, vars: &Arc<Shape>) -> Result<Record> {
    let root = Env::new();
    let env = bind(&root, rv, row);
    let get = |v: &Arc<str>| env.get(v).map_err(|_| no_such_var(rv, row, v));
    Record::try_shaped(vars.clone(), vars.labels().iter().map(get))
}

/// The error for a variable a row does not bind.
pub(crate) fn no_such_var(rv: &RowVar, row: &Record, var: &str) -> ModelError {
    ModelError::NoSuchField {
        field: var.to_string(),
        available: shape_of(rv, row)
            .labels()
            .iter()
            .map(|l| l.to_string())
            .collect(),
    }
}

/// A row's output value (the convention of [`Plan::row_output_value`]): a
/// bare row is its one binding's value.
pub(crate) fn output_value(rv: &RowVar, row: &Record) -> Value {
    match &rv.0 {
        None => Plan::row_output_value(row),
        Some(_) => Value::Tuple(row.clone()),
    }
}

/// Each of `exprs` compiled for rows whose frames bind `frames` (innermost
/// first; see [`Compiled::new`]).
pub fn compile_all<'e>(exprs: &'e [ScalarExpr], frames: &[&[String]]) -> Vec<Compiled<'e>> {
    exprs.iter().map(|e| Compiled::new(e, frames)).collect()
}

/// Evaluate a list of key expressions over `env`.
/// Returns `None` if any key is NULL (NULL never equi-joins).
pub(crate) fn eval_keys(keys: &[Compiled<'_>], env: &Env<'_>) -> Result<Option<Vec<Value>>> {
    let mut out = Vec::with_capacity(keys.len());
    for k in keys {
        let v = k.eval(env)?;
        if v.is_null() {
            return Ok(None);
        }
        out.push(v);
    }
    Ok(Some(out))
}

/// A hash or sort-merge join's [`EquiSplit`], compiled for where each part
/// is evaluated: the left keys over a left row, the right keys over a
/// right row — or over a pair, whose innermost frame is the right row —
/// and the residual over a pair.
#[derive(Debug)]
pub struct JoinKeys<'p> {
    pub(crate) left: Vec<Compiled<'p>>,
    pub(crate) right: Vec<Compiled<'p>>,
    /// The left keys over a pair: how a probe compares a candidate's key.
    pub(crate) left_in_pair: Vec<Compiled<'p>>,
    pub(crate) residual: Option<Compiled<'p>>,
}

impl<'p> JoinKeys<'p> {
    /// `split` between operands whose rows bind `left` and `right`.
    pub fn new(split: &'p EquiSplit, (left, right): (&[String], &[String])) -> Self {
        let pair = [right, left];
        JoinKeys {
            left: compile_all(&split.left_keys, &[left]),
            right: compile_all(&split.right_keys, &[right]),
            left_in_pair: compile_all(&split.left_keys, &pair),
            residual: split.residual.as_ref().map(|p| Compiled::new(p, &pair)),
        }
    }
}

/// What a join emits per left row, as its operator holds it: the plan's
/// [`tmql_algebra::JoinKind`], with what the output rows need interned
/// and compiled once when the operator is built ([`JoinKind::of`]) — so a
/// dangling row allocates no label.
#[derive(Debug, Clone)]
pub enum JoinKind<'p> {
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
        /// Join function G(x, y), over a pair.
        func: Compiled<'p>,
        /// Output label for the nested set.
        label: Arc<str>,
    },
}

impl<'p> JoinKind<'p> {
    /// The kind an operator runs for a plan join of `kind` between
    /// operands whose rows bind `left` and `right`.
    pub fn of(kind: &'p tmql_algebra::JoinKind, (left, right): (&[String], &[String])) -> Self {
        use tmql_algebra::JoinKind as K;
        match kind {
            K::Inner => JoinKind::Inner,
            K::Semi => JoinKind::Semi,
            K::Anti => JoinKind::Anti,
            K::LeftOuter => JoinKind::LeftOuter {
                right_vars: right.iter().map(|v| Arc::from(v.as_str())).collect(),
            },
            K::Nest { func, label } => JoinKind::Nest {
                func: Compiled::new(func, &[right, left]),
                label: label.as_str().into(),
            },
        }
    }
}

/// The row a root `Map` of a tuple constructor, evaluated by the join
/// under it, emits where the join would build its output row: the tuple
/// itself, which the executor's exit moves into its result set.
fn mapped(map: &Compiled<'_>, row: &Env<'_>) -> Result<Record> {
    match map.eval(row)? {
        Value::Tuple(row) => Ok(row),
        v => v.as_tuple().cloned(),
    }
}

/// What a join's operator emits: the rows of its [`JoinKind`] that the
/// selection directly over the join, fused into it, accepts — each made
/// into the tuple of the root `Map` over the join when the executor's exit
/// fused one in. Both are evaluated on the bindings an output
/// row would have — ⋈ and a matched ⟕ on the pair, ⋉ and ▷ on the left
/// row, a dangling ⟕ on its NULL extension, Δ on the left row plus
/// `label → set` — under the operator's correlation environment, the
/// selection first, and a row it rejects is never built. It filters
/// output rows and is never part of the join predicate, so what ⟕ and Δ
/// answer for a dangling row is unchanged.
///
/// A row the join produces counts what it counted as the input of a
/// `Filter` above the join: one `comparisons` and one `rows_emitted`
/// (the hand-over, made in place, as a filtering scan counts it). The
/// map changes no counter: the join emits one row per output row. Only a
/// tuple constructor is fused: its value is a row, so it replaces the row
/// the join would build, where any other value would need a `(var = value)`
/// row of its own.
#[derive(Debug)]
pub struct Emit<'p> {
    pub(crate) kind: JoinKind<'p>,
    /// A dangling ⟕ row's right side: every right variable bound to NULL.
    nulls: Record,
    /// The fused selection.
    select: Option<Compiled<'p>>,
    /// The fused root `Map`'s tuple constructor.
    map: Option<Compiled<'p>>,
    /// A variable the output rows would bind twice (decided once per
    /// operator, from the plan): no such row can be built, so each one the
    /// selection or the map would read fails as building it would.
    clash: Option<String>,
    /// Rows the selection rejected that the operator has not yet counted
    /// in its `rows_skipped`.
    skipped: Cell<u64>,
    /// The shape of the rows the kind builds, per input shape.
    shapes: ShapeMemo,
}

impl<'p> From<JoinKind<'p>> for Emit<'p> {
    /// Every row of `kind`, built: no selection, no map.
    fn from(kind: JoinKind<'p>) -> Self {
        Emit::with(kind, None, None, None)
    }
}

impl<'p> Emit<'p> {
    /// The rows a plan join of `kind` between operands whose rows bind
    /// `vars` (left, right) emits that `select` accepts, made into the
    /// tuple `map` (a tuple constructor) makes of each, when one is given.
    pub fn new(
        kind: &'p tmql_algebra::JoinKind,
        vars: (&[String], &[String]),
        select: Option<&'p ScalarExpr>,
        map: Option<&'p ScalarExpr>,
    ) -> Self {
        use tmql_algebra::JoinKind as K;
        let (left, right) = vars;
        // The frames of an output row's bindings.
        let frames: &[&[String]] = match kind {
            K::Semi | K::Anti => &[left],
            K::Nest { label, .. } => &[std::slice::from_ref(label), left],
            _ => &[right, left],
        };
        let reads = select.is_some() || map.is_some();
        let out = reads.then(|| kind.output_vars(left.to_vec(), right.to_vec()));
        let select = select.map(|p| Compiled::new(p, frames));
        let map = map.map(|expr| Compiled::new(expr, frames));
        Emit::with(JoinKind::of(kind, vars), select, map, out)
    }

    fn with(
        kind: JoinKind<'p>,
        select: Option<Compiled<'p>>,
        map: Option<Compiled<'p>>,
        vars: Option<Vec<String>>,
    ) -> Self {
        let builds = !matches!(kind, JoinKind::Semi | JoinKind::Anti);
        let reads = select.is_some() || map.is_some();
        let vars = vars.unwrap_or_default();
        let twice = |(i, v): &(usize, &String)| vars[..*i].contains(v);
        let clash = match builds && reads {
            true => vars.iter().enumerate().find(twice).map(|(_, v)| v.clone()),
            false => None,
        };
        // Distinct unless the plan is broken, and then `clash` fails every
        // row that would read them.
        let nulls = match &kind {
            JoinKind::LeftOuter { right_vars } => {
                Record::new(right_vars.iter().map(|v| (v.clone(), Value::Null))).unwrap_or_default()
            }
            _ => Record::empty(),
        };
        Emit {
            kind,
            nulls,
            select,
            map,
            clash,
            skipped: Cell::new(0),
            shapes: ShapeMemo::default(),
        }
    }

    /// Whether the output row `row` binds passes the selection: one
    /// `comparisons` and one `rows_emitted` when there is a selection.
    fn admits(&self, row: &Env<'_>, m: &mut Metrics) -> Result<bool> {
        if let Some(var) = &self.clash {
            return Err(ModelError::DuplicateField(var.clone()));
        }
        let Some(select) = &self.select else {
            return Ok(true);
        };
        m.comparisons += 1;
        m.rows_emitted += 1;
        let keep = select.test(row)?;
        if !keep {
            self.skipped.set(self.skipped.get() + 1);
        }
        Ok(keep)
    }

    /// Emit the output row `row` binds, if the selection admits it: the
    /// map's value, or the row `build` makes.
    fn push(
        &self,
        row: &Env<'_>,
        m: &mut Metrics,
        out: &mut Vec<Record>,
        build: impl FnOnce() -> Result<Record>,
    ) -> Result<()> {
        if self.admits(row, m)? {
            out.push(match &self.map {
                Some(map) => mapped(map, row)?,
                None => build()?,
            });
        }
        Ok(())
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
/// output, and both decide the fused selection, and evaluate the fused
/// map, where they would build a row ([`Emit`]).
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
        emit: &Emit<'_>,
        (ls, l): (&RowVar, &Record),
        (rs, r): (&RowVar, &Record),
        pair: &Env<'_>,
        m: &mut Metrics,
        out: &mut Vec<Record>,
    ) -> Result<()> {
        self.matched = true;
        match &emit.kind {
            JoinKind::Inner | JoinKind::LeftOuter { .. } => {
                emit.push(pair, m, out, || concat(&emit.shapes, (ls, l), (rs, r)))?
            }
            JoinKind::Semi | JoinKind::Anti => {}
            JoinKind::Nest { func, .. } => self.nested.push(func.eval(pair)?),
        }
        Ok(())
    }

    /// ⋉ and ▷ are decided by the first match: no further candidate can
    /// change what the row emits.
    pub(crate) fn decided(&self, kind: &JoinKind<'_>) -> bool {
        self.matched && matches!(kind, JoinKind::Semi | JoinKind::Anti)
    }

    /// Left row `l`'s candidates are exhausted: emit what depends on all of
    /// them, and start over for the next row. On a fresh state this is
    /// each kind's **dangling** answer — ⋈ and ⋉ nothing, ▷ the row, ⟕ its
    /// NULL extension, Δ `label = ∅` (never NULL). `env` is the operator's
    /// correlation environment.
    pub(crate) fn finish(
        &mut self,
        emit: &Emit<'_>,
        (ls, l): (&RowVar, &Record),
        env: &Env<'_>,
        m: &mut Metrics,
        out: &mut Vec<Record>,
    ) -> Result<()> {
        let matched = std::mem::take(&mut self.matched);
        let left = bind(env, ls, l);
        match &emit.kind {
            JoinKind::Inner => {}
            JoinKind::Semi | JoinKind::Anti => {
                if matched == matches!(emit.kind, JoinKind::Semi) {
                    emit.push(&left, m, out, || Ok(l.clone()))?;
                }
            }
            // The right side bound to NULL where a match would be.
            JoinKind::LeftOuter { right_vars } => {
                if !matched {
                    let dangling = left.bind_row(&emit.nulls);
                    let null_extended = || null_extend(&emit.shapes, (ls, l), right_vars);
                    emit.push(&dangling, m, out, null_extended)?;
                }
            }
            JoinKind::Nest { label, .. } => {
                let set = Value::Set(SetValue::drain_from(&mut self.nested));
                let row = left.bind(label, &set);
                if emit.admits(&row, m)? {
                    out.push(match &emit.map {
                        Some(map) => mapped(map, &row)?,
                        None => extend(&emit.shapes, (ls, l), label, set)?,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Test inputs built by hand are records of bindings.
#[cfg(test)]
pub(crate) fn bound(rows: &[Record]) -> Rows<'_> {
    static BOUND: RowVar = RowVar::BOUND;
    (rows, &BOUND)
}

/// A test's expression, every variable searched for by name (leaked: a
/// test's operators outlive the expression it built them from).
#[cfg(test)]
pub(crate) fn dynamic(e: &ScalarExpr) -> Compiled<'static> {
    Compiled::new(Box::leak(Box::new(e.clone())), &[])
}

/// A test's join keys between rows binding `x` (left) and `y` (right)
/// (leaked, as [`dynamic`]'s expression).
#[cfg(test)]
pub(crate) fn keys(
    lk: &[ScalarExpr],
    rk: &[ScalarExpr],
    residual: Option<&ScalarExpr>,
) -> JoinKeys<'static> {
    let split = EquiSplit {
        left_keys: lk.to_vec(),
        right_keys: rk.to_vec(),
        residual: residual.cloned(),
    };
    JoinKeys::new(Box::leak(Box::new(split)), (&["x".into()], &["y".into()]))
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
        let keys = vec![dynamic(&E::var("x"))];
        assert_eq!(eval_keys(&keys, &env).unwrap(), None);
        env.push("x", Value::Int(3));
        assert_eq!(eval_keys(&keys, &env).unwrap(), Some(vec![Value::Int(3)]));
    }

    #[test]
    fn with_row_restores_env() {
        let mut env = Env::new();
        env.push("a", Value::Int(0));
        let row = stored();
        for shape in [RowVar::BOUND, RowVar::bare("a")] {
            let inner = bind(&env, &shape, &row);
            assert_ne!(inner.get("a").unwrap(), Value::Int(0), "{shape:?}");
        }
        assert_eq!(env.get("a").unwrap(), Value::Int(0));
    }

    #[test]
    fn null_extend_binds_nulls() {
        let row = Record::new([("x".to_string(), Value::Int(1))]).unwrap();
        let memo = ShapeMemo::default();
        let out = null_extend(&memo, (&RowVar::BOUND, &row), &["y".into(), "z".into()]).unwrap();
        assert!(out.get("y").unwrap().is_null());
        assert!(out.get("z").unwrap().is_null());
    }

    #[test]
    fn a_bare_row_builds_what_its_envelope_built() {
        let row = stored();
        let (bare, bound) = (RowVar::bare("x"), RowVar::BOUND);
        let envelope = bare.wrap(row.clone());
        assert_eq!(
            envelope,
            bind_row(&var_shape("x"), Value::Tuple(row.clone()))
        );
        assert_eq!(bound.wrap(envelope.clone()), envelope);
        let other = Record::new([("y", Value::Int(9))]).unwrap();
        let label: Arc<str> = "s".into();
        let vars = Shape::new(["x"]).unwrap();
        // A memo per builder, as an operator holds one: a bare row and its
        // envelope have one shape of bindings, so the second call reuses
        // the first one's output shape.
        let m = || ShapeMemo::default();
        let (concat_a, concat_b, ext, nulls) = (m(), m(), m(), m());
        assert_eq!(
            concat(&concat_a, (&bare, &row), (&bound, &other)).unwrap(),
            concat(&concat_a, (&bound, &envelope), (&bound, &other)).unwrap()
        );
        assert_eq!(
            concat(&concat_b, (&bound, &other), (&bare, &row)).unwrap(),
            concat(&concat_b, (&bound, &other), (&bound, &envelope)).unwrap()
        );
        assert_eq!(
            extend(&ext, (&bare, &row), &label, Value::empty_set()).unwrap(),
            extend(&ext, (&bound, &envelope), &label, Value::empty_set()).unwrap()
        );
        assert_eq!(
            null_extend(&nulls, (&bare, &row), &["y".into()]).unwrap(),
            null_extend(&nulls, (&bound, &envelope), &["y".into()]).unwrap()
        );
        assert_eq!(project(&bare, &row, &vars).unwrap(), envelope);
        assert_eq!(project(&bound, &envelope, &vars).unwrap(), envelope);
        assert_eq!(
            project(&bare, &row, Shape::empty()).unwrap(),
            Record::empty()
        );
        assert_eq!(output_value(&bare, &row), Value::Tuple(row.clone()));
        assert_eq!(output_value(&bound, &envelope), Value::Tuple(row.clone()));
        assert_eq!(output_value(&bound, &row), Value::Tuple(row.clone()));
        // Clashing and missing variables are the errors they were.
        assert!(extend(&m(), (&bare, &row), &"x".into(), Value::Null).is_err());
        assert!(concat(&m(), (&bare, &row), (&bare, &row)).is_err());
        let missing = Shape::new(["a"]).unwrap();
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
        let (xs, ys) = (RowVar::bare("x"), RowVar::bare("y"));
        let (lk, rk) = ([E::path("x", &["d"])], [E::path("y", &["b"])]);
        let pred = E::eq(lk[0].clone(), rk[0].clone());
        let kind = JoinKind::Nest {
            func: dynamic(&E::Tuple(vec![
                ("k".into(), E::var("k")),
                ("z".into(), E::path("x", &["e", "z"])),
                ("a".into(), E::path("y", &["a"])),
            ])),
            label: "s".into(),
        };
        let kind = Emit::from(kind);
        let mut env = Env::new();
        env.push("k", Value::Int(42));
        type Kernel<'a> = &'a dyn Fn(&[Record], &Env<'_>) -> Result<Vec<Record>>;
        let m = || Metrics::new();
        let r = (right.as_slice(), &ys);
        let (keys, pred) = (keys(&lk, &rk, None), dynamic(&pred));
        let hash: Kernel<'_> = &|l, env| hash::join((l, &xs), r, &keys, &kind, env, &mut m());
        let nl: Kernel<'_> = &|l, env| nl::join((l, &xs), r, &pred, &kind, env, &mut m());
        let merge: Kernel<'_> = &|l, env| merge::join((l, &xs), r, &keys, &kind, env, &mut m());
        let item = |a: i64| {
            let fields = [("k", 42), ("z", 7), ("a", a)];
            Value::tuple(fields.map(|(l, v)| (l, Value::Int(v))))
        };
        let nested = Value::set([item(10)]);
        let memo = ShapeMemo::default();
        let want = vec![extend(&memo, (&xs, &clean[0]), &"s".into(), nested).unwrap()];
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
