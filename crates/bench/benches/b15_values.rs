//! B15 — what a complex object costs as a *key*: the layer micro-bench
//! under the hash join, the dedup set and the ordered result collect
//! (the ROADMAP's "measured layer by layer" aim: "hash-key computation,
//! `Record` clone").
//!
//! Every rung works on the generated `X(a: set, b, n)` / `Y(b, a)` rows
//! the benchmark of record's `paper_nested` workload uses, so a number
//! here is a per-row price of something that workload does:
//!
//! * `record_hash/{walk,remembered}` — hashing a row's fields under the
//!   in-memory hasher vs reading the hash its handle remembers;
//! * `record_clone` — a handle copy (count bump + memo word);
//! * `record_cmp/{same_schema,permuted}` — `Ord` between neighbouring
//!   rows whose labels are in canonical order (positional walk) vs
//!   declared in another order (index sort);
//! * `set/{build,clone,cmp,subseteq}` — the shared-slice set;
//! * `record_set_insert` — dedup of distinct scan-shaped rows;
//! * `ordered_collect` — `BTreeSet<Value>` of whole rows, the facade's
//!   result collect;
//! * `result_sort/{cmp,keyed}/{rows,nested}` — the executor's exit sort
//!   (sorted, first of equal values kept) of whole `X` rows and of the
//!   nest join's `(n = x.n, s = {y.a | x.b = y.b})` tuples: every
//!   comparison a `Value::cmp`, against sort prefixes with `Value::cmp`
//!   on equal prefixes only (`tmql_exec::exec::sort_distinct`);
//! * `hash_join/{build,semi,anti,nest}` — the join table's build and one
//!   probe pass per kind.
//!
//! Times are per iteration over all `n` rows (divide by `n` for ns/row).

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tmql_algebra::{Compiled, Env, ScalarExpr as E};
use tmql_bench::{criterion, ladder};
use tmql_exec::exec::sort_distinct;
use tmql_exec::op::{hash, Emit, JoinKeys, JoinKind, RowVar};
use tmql_exec::planner::EquiSplit;
use tmql_exec::Metrics;
use tmql_model::hash::ValueHasher;
use tmql_model::{setops, Record, RecordSet, Value};
use tmql_workload::gen::{gen_xy, GenConfig};

/// Stored rows of `table`, and the same rows as scan bindings `(var = row)`.
fn rows(cat: &tmql::Catalog, table: &str, var: &str) -> (Vec<Record>, Vec<Record>) {
    let stored = cat.table(table).and_then(|t| t.rows_vec()).expect("table");
    let bind = |r: &Record| Record::single(var.into(), Value::Tuple(r.clone()));
    let bound = stored.iter().map(bind).collect();
    (stored, bound)
}

fn bench_values(c: &mut Criterion) {
    let mut g = c.benchmark_group("b15_values");
    for n in ladder(&[256, 2048]) {
        let cat = gen_xy(&GenConfig::sized(n));
        let (x, x_bound) = rows(&cat, "X", "x");
        let (y, y_bound) = rows(&cat, "Y", "y");
        let id = |name: &str| BenchmarkId::new(name, n);

        g.bench_with_input(id("record_hash/walk"), &n, |b, _| {
            let walk = |r: &Record| {
                let mut h = ValueHasher::default();
                r.hash(&mut h);
                h.finish()
            };
            b.iter(|| x.iter().map(walk).fold(0, u64::wrapping_add))
        });
        g.bench_with_input(id("record_hash/remembered"), &n, |b, _| {
            b.iter(|| {
                x.iter()
                    .map(Record::structural_hash)
                    .fold(0, u64::wrapping_add)
            })
        });
        g.bench_with_input(id("record_clone"), &n, |b, _| b.iter(|| x.to_vec()));

        // X declares (a, b, n): canonical. The permuted copy declares
        // (n, b, a): same rows, label order to be sorted on every compare.
        let permuted: Vec<Record> = x
            .iter()
            .map(|r| {
                let fields = r.fields().rev().map(|(l, v)| (l.clone(), v.clone()));
                Record::new(fields.collect::<Vec<_>>()).expect("distinct labels")
            })
            .collect();
        for (name, side) in [
            ("record_cmp/same_schema", &x),
            ("record_cmp/permuted", &permuted),
        ] {
            g.bench_with_input(id(name), &n, |b, _| {
                b.iter(|| side.windows(2).filter(|w| w[0] < w[1]).count())
            });
        }

        let items: Vec<Vec<Value>> = (0..n as i64)
            .map(|i| {
                (0..16)
                    .map(|j| Value::Int((i * 31 + j * 17) % 64))
                    .collect()
            })
            .collect();
        let sets: Vec<Value> = items.iter().cloned().map(Value::set).collect();
        g.bench_with_input(id("set/build"), &n, |b, _| {
            b.iter(|| items.iter().cloned().map(Value::set).collect::<Vec<_>>())
        });
        g.bench_with_input(id("set/clone"), &n, |b, _| b.iter(|| sets.to_vec()));
        g.bench_with_input(id("set/cmp"), &n, |b, _| {
            b.iter(|| sets.windows(2).filter(|w| w[0] < w[1]).count())
        });
        g.bench_with_input(id("set/subseteq"), &n, |b, _| {
            let sub = |w: &[Value]| setops::subseteq(&w[0], &w[1]).expect("sets");
            b.iter(|| sets.windows(2).filter(|w| sub(w)).count())
        });

        g.bench_with_input(id("record_set_insert"), &n, |b, _| {
            b.iter(|| x_bound.iter().cloned().collect::<RecordSet>().len())
        });
        g.bench_with_input(id("ordered_collect"), &n, |b, _| {
            let value = |r: &Record| Value::Tuple(r.clone());
            b.iter(|| x.iter().map(value).collect::<BTreeSet<Value>>().len())
        });

        // Rows in scan order, and one `(n, s)` tuple per row, labels shared
        // as a tuple constructor shares them.
        let whole: Vec<Value> = x.iter().cloned().map(Value::Tuple).collect();
        let (n_label, s_label): (Arc<str>, Arc<str>) = ("n".into(), "s".into());
        let field = |r: &Record, l: &str| r.get(l).expect("field").clone();
        let nested: Vec<Value> = x
            .iter()
            .map(|r| {
                let b = field(r, "b");
                let s = y.iter().filter(|y| field(y, "b") == b);
                let fields = [
                    (n_label.clone(), field(r, "n")),
                    (s_label.clone(), Value::set(s.map(|y| field(y, "a")))),
                ];
                Value::Tuple(Record::new(fields).expect("two labels"))
            })
            .collect();
        for (shape, values) in [("rows", &whole), ("nested", &nested)] {
            g.bench_with_input(id(&format!("result_sort/cmp/{shape}")), &n, |b, _| {
                b.iter(|| {
                    let mut v = values.clone();
                    v.sort();
                    v.dedup();
                    v.len()
                })
            });
            g.bench_with_input(id(&format!("result_sort/keyed/{shape}")), &n, |b, _| {
                b.iter(|| sort_distinct(values.clone()).len())
            });
        }

        let split = EquiSplit {
            left_keys: vec![E::path("x", &["b"])],
            right_keys: vec![E::path("y", &["b"])],
            residual: None,
        };
        let (xv, yv) = (["x".to_string()], ["y".to_string()]);
        let keys = JoinKeys::new(&split, (&xv, &yv));
        let bound = RowVar::BOUND;
        let build = |m: &mut Metrics| {
            hash::build(y_bound.clone(), &bound, &keys, &Env::new(), m).expect("build")
        };
        g.bench_with_input(id("hash_join/build"), &n, |b, _| {
            b.iter(|| build(&mut Metrics::new()).len())
        });
        let table = build(&mut Metrics::new());
        let func = E::path("y", &["a"]);
        let nest = JoinKind::Nest {
            func: Compiled::new(&func, &[&yv, &xv]),
            label: "s".into(),
        };
        for (name, kind) in [
            ("semi", JoinKind::Semi),
            ("anti", JoinKind::Anti),
            ("nest", nest),
        ] {
            let emit = Emit::from(kind);
            g.bench_with_input(id(&format!("hash_join/{name}")), &n, |b, _| {
                let (env, mut m) = (Env::new(), Metrics::new());
                b.iter(|| {
                    hash::probe((&x_bound, &bound), &table, &keys, &emit, &env, &mut m)
                        .expect("probe")
                        .len()
                })
            });
        }
        black_box(&table);
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = criterion();
    targets = bench_values
}
criterion_main!(benches);
