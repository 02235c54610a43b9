//! B17 — what a row costs between a scan and its first consumer: the
//! layer micro-bench under "rows without envelopes" (a ROADMAP item that
//! has landed).
//!
//! A scan hands out the stored row itself and the plan says which variable
//! it is bound to, so the price of a scanned row is what its consumer does
//! with it. Four two-operator plans over `X(n, b)` of `n` two-int rows,
//! each run whole through [`tmql_exec::execute`] at one thread:
//!
//! * `build` — `HashJoin[semijoin](Scan(E), Scan(X))` with `E` empty:
//!   scan → hash build of all `n` rows, no probe;
//! * `probe/semi`, `probe/nest` — `HashJoin[…](Scan(X), Scan(K))` with
//!   `K` the 64 distinct keys: `n` probes against a tiny table, the
//!   semijoin emitting the probe row as it came, the nest join extending
//!   it with its set of matches;
//! * `map` — `Map[x.n](Scan(X))`: scan → evaluate → bind → dedup;
//! * `select_nesting` — the root `Map[(n = l.n, s = s)]` over
//!   `HashJoin[nestjoin](Scan(X), Scan(K))`, run through
//!   [`tmql_exec::execute_values`]: the shape of a SELECT-clause subquery,
//!   whose answer tuple the join builds where it would build `l ++ (s =
//!   set)`.
//!
//! in two backings: **memory** (rows are shared handles) and **disk-warm**
//! (a pool that holds the whole extent, warmed once: every row is decoded
//! from its page, no I/O).
//!
//! Times are per statement over all `n` rows (divide by `n` for ns/row).
//!
//! The `lookup` group prices one name path where those operators pay it,
//! per row: ns per evaluation of an expression compiled once
//! ([`tmql_algebra::Compiled`]) — `x.b` over a bare stored row, the same
//! under a two-row pair environment (a join's: `y` is bound innermost, so
//! `x` is its slot one frame out), `s` in a bound row (a nest join's
//! output), and a literal, the floor of an evaluation — and of `x.b`
//! compiled for no frames (`x.b/search`: the variable searched for by
//! name, as every variable was before expressions were compiled).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tmql::{Database, Record, Table, Ty, Value};
use tmql_algebra::{Compiled, Env, JoinKind, ScalarExpr as E};
use tmql_bench::{criterion, ladder};
use tmql_exec::planner::EquiSplit;
use tmql_exec::{execute, execute_values, ExecConfig, ExecContext, JoinPath, PhysPlan};

const WARM_POOL: usize = 4096;
const KEYS: i64 = 64;

fn table(name: &str, rows: impl Iterator<Item = (i64, i64)>) -> Table {
    let mut t = Table::new(name, vec![("n".into(), Ty::Int), ("b".into(), Ty::Int)]);
    for (n, b) in rows {
        let row = [("n", Value::Int(n)), ("b", Value::Int(b))];
        t.insert(Record::new(row).expect("distinct labels"))
            .expect("valid row");
    }
    t
}

fn load(db: &mut Database, n: usize) {
    let x = (0..n as i64).map(|i| (i, i % KEYS));
    db.register_table(table("X", x)).expect("register X");
    db.register_table(table("K", (0..KEYS).map(|k| (k, k))))
        .expect("register K");
    db.register_table(table("E", std::iter::empty()))
        .expect("register E");
}

fn scan(table: &str, var: &str) -> Box<PhysPlan> {
    Box::new(PhysPlan::ScanTable {
        table: table.into(),
        var: var.into(),
        pred: None,
    })
}

fn hash_join(left: &str, right: &str, kind: JoinKind) -> PhysPlan {
    PhysPlan::Join {
        kind,
        left: scan(left, "l"),
        path: JoinPath::Hash {
            right: scan(right, "r"),
            keys: EquiSplit {
                left_keys: vec![E::path("l", &["b"])],
                right_keys: vec![E::path("r", &["b"])],
                residual: None,
            },
        },
        select: None,
    }
}

fn bench_rowpath(c: &mut Criterion) {
    let mut g = c.benchmark_group("b17_rowpath");
    let config = ExecConfig::default().collect_timing(false);
    for n in ladder(&[2048usize, 8192, 32768]) {
        let mut mem = Database::new();
        load(&mut mem, n);
        let path = std::env::temp_dir().join(format!(
            "tmql-bench-rowpath-{}-{n}.tmdb",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut warm = Database::open_with(&path, WARM_POOL).expect("create db");
        load(&mut warm, n);
        let nest = JoinKind::Nest {
            func: E::path("r", &["n"]),
            label: "s".into(),
        };
        let select_nesting = PhysPlan::Map {
            input: Box::new(hash_join("X", "K", nest.clone())),
            expr: E::Tuple(vec![
                ("n".into(), E::path("l", &["n"])),
                ("s".into(), E::var("s")),
            ]),
            var: "v".into(),
        };
        let plans = [
            ("build", hash_join("E", "X", JoinKind::Semi), 0),
            ("probe/semi", hash_join("X", "K", JoinKind::Semi), n),
            ("probe/nest", hash_join("X", "K", nest), n),
            ("select_nesting", select_nesting, n),
            (
                "map",
                PhysPlan::Map {
                    input: scan("X", "x"),
                    expr: E::path("x", &["n"]),
                    var: "v".into(),
                },
                n,
            ),
        ];
        for (backing, db) in [("memory", &mem), ("disk-warm", &warm)] {
            for (name, plan, rows) in &plans {
                let run = || {
                    let mut ctx = ExecContext::with_config(db.catalog(), &config);
                    let env = Env::new();
                    match *name {
                        "select_nesting" => execute_values(plan, &mut ctx, &env, None)
                            .expect("runs")
                            .0
                            .len(),
                        _ => execute(plan, &mut ctx, &env).expect("runs").len(),
                    }
                };
                // Also the warming pass of the pool.
                assert_eq!(run(), *rows, "{backing}/{name}");
                g.bench_with_input(
                    BenchmarkId::new(format!("{backing}/{name}"), n),
                    &n,
                    |b, _| b.iter(run),
                );
            }
        }
        drop(warm);
        let _ = std::fs::remove_file(&path);
        let mut wal = path.into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(wal);
    }
    g.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("b17_rowpath/lookup");
    let row = |n, b| Record::new([("n", Value::Int(n)), ("b", Value::Int(b))]).expect("distinct");
    let (x, y) = (row(7, 3), row(9, 3));
    let s = Value::set([Value::Int(7)]);
    let nested = Record::new([("x", Value::Tuple(x.clone())), ("s", s.clone())]).expect("distinct");
    let root = Env::new();
    let bare = root.bind_tuple("x", &x);
    let pair = bare.bind_tuple("y", &y);
    let bound = root.bind_row(&nested);
    let (xb, var_s, lit) = (E::path("x", &["b"]), E::var("s"), E::lit(3));
    let vars = |names: &[&str]| names.iter().map(|v| v.to_string()).collect::<Vec<_>>();
    let (x_frame, y_frame, row_frame) = (vars(&["x"]), vars(&["y"]), vars(&["x", "s"]));
    let cases = [
        (
            "x.b/bare",
            Compiled::new(&xb, &[&x_frame]),
            &bare,
            Value::Int(3),
        ),
        (
            "x.b/pair",
            Compiled::new(&xb, &[&y_frame, &x_frame]),
            &pair,
            Value::Int(3),
        ),
        ("x.b/search", Compiled::new(&xb, &[]), &pair, Value::Int(3)),
        ("s/row", Compiled::new(&var_s, &[&row_frame]), &bound, s),
        ("literal", Compiled::new(&lit, &[]), &bare, Value::Int(3)),
    ];
    for (name, expr, env, expected) in &cases {
        assert_eq!(&expr.eval(env).expect("evaluates"), expected, "{name}");
        g.bench_function(*name, |b| {
            b.iter(|| black_box(expr).eval(black_box(env)).expect("evaluates"))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = criterion();
    targets = bench_rowpath, bench_lookup
}
criterion_main!(benches);
