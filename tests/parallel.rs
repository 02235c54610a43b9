//! Differential testing of morsel-driven parallel execution: for any
//! generated dataset and any thread count, a query's result **set** must
//! be identical to the serial (`threads = 1`) run — both in-memory and
//! under a tight `memory_budget_rows` that forces grace-partition
//! spilling (the partition-per-worker parallel path).
//!
//! The engine's ordering contract (see `docs/architecture.md`) says
//! results are a multiset unless an explicit order is requested; TM
//! queries denote sets, so comparing the deduplicated `values` sets is
//! the full contract.

use proptest::prelude::*;
use tmql::{Database, QueryOptions};
use tmql_workload::gen::{gen_rs, gen_xy, GenConfig};
use tmql_workload::queries::{where_query, COUNT_BUG, MEMBERSHIP, NON_MEMBERSHIP};

fn arb_config() -> impl Strategy<Value = GenConfig> {
    (1usize..32, 1usize..48, 0u32..10, 0usize..4, any::<u64>()).prop_map(
        |(outer, inner, dangling, max_set, seed)| GenConfig {
            outer,
            inner,
            dangling_fraction: dangling as f64 / 10.0,
            max_set,
            seed,
            ..GenConfig::default()
        },
    )
}

/// Run `src` serially, then at 2 and 8 worker threads, with and without a
/// spill-forcing memory budget; every run must produce the same value set.
fn assert_parallel_matches_serial(db: &Database, src: &str) {
    for budget in [None, Some(8usize)] {
        let mut base = QueryOptions::default().threads(1);
        if let Some(rows) = budget {
            base = base.memory_budget(rows);
        }
        let serial = db.query_with(src, base).expect("serial run succeeds");
        for threads in [2usize, 8] {
            let got = db
                .query_with(src, base.threads(threads))
                .unwrap_or_else(|e| panic!("threads={threads} budget={budget:?} fails: {e}"));
            assert_eq!(
                got.values, serial.values,
                "threads={threads} budget={budget:?} changed the result on {src}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_matches_serial_on_rs(cfg in arb_config()) {
        let db = Database::from_catalog(gen_rs(&cfg));
        assert_parallel_matches_serial(&db, COUNT_BUG);
        assert_parallel_matches_serial(
            &db,
            "SELECT x.a FROM R x WHERE x.b IN (SELECT y.d FROM S y WHERE x.c = y.c)",
        );
    }

    #[test]
    fn parallel_matches_serial_on_xy(cfg in arb_config()) {
        let db = Database::from_catalog(gen_xy(&cfg));
        for src in [
            MEMBERSHIP.to_string(),
            NON_MEMBERSHIP.to_string(),
            where_query("x.n = COUNT({Z})"),
            where_query("x.a INTERSECTS {Z}"),
        ] {
            assert_parallel_matches_serial(&db, &src);
        }
    }
}

/// A fixed larger dataset under a tight budget: the grace-hash join and
/// breaker partitions all take the parallel wave path, and the spill
/// metrics prove the budgeted runs really spilled.
#[test]
fn parallel_spilling_run_matches_serial_and_spills() {
    let db = Database::from_catalog(gen_xy(&GenConfig::sized(512)));
    let src = "SELECT x.n FROM X x WHERE x.n IN (SELECT y.a FROM Y y WHERE x.b = y.b)";
    let serial = db
        .query_with(src, QueryOptions::default().threads(1).memory_budget(32))
        .expect("serial spilling run");
    assert!(serial.metrics.rows_spilled > 0, "budget must force a spill");
    for threads in [2usize, 4, 8] {
        let got = db
            .query_with(
                src,
                QueryOptions::default().threads(threads).memory_budget(32),
            )
            .expect("parallel spilling run");
        assert_eq!(got.values, serial.values, "threads={threads}");
        assert!(
            got.metrics.rows_spilled > 0,
            "parallel run must still respect the budget (threads={threads})"
        );
    }
}

/// Scan waves hold about one batch in flight regardless of worker count:
/// morsels are `⌈batch_size / threads⌉` rows each, so `peak_resident_rows`
/// must stay within one batch (plus per-worker rounding) of the serial
/// run's peak instead of growing as `threads × batch_size`.
#[test]
fn scan_waves_bound_resident_rows() {
    let db = Database::from_catalog(gen_xy(&GenConfig::sized(2048)));
    let src = "SELECT x.n FROM X x";
    let batch = 64usize;
    let serial = db
        .query_with(src, QueryOptions::default().threads(1).batch_size(batch))
        .expect("serial scan");
    for threads in [4usize, 8] {
        let par = db
            .query_with(
                src,
                QueryOptions::default().threads(threads).batch_size(batch),
            )
            .expect("parallel scan");
        assert_eq!(par.values, serial.values, "threads={threads}");
        let bound = serial.metrics.peak_resident_rows + (batch + threads) as u64;
        assert!(
            par.metrics.peak_resident_rows <= bound,
            "threads={threads}: peak {} exceeds serial peak {} + one batch",
            par.metrics.peak_resident_rows,
            serial.metrics.peak_resident_rows
        );
    }
}

/// `threads` beyond the partition count degrades gracefully (idle workers,
/// same answer), `threads(0)` clamps to serial, and serial is what the
/// default options ask for unless `TMQL_THREADS` is set.
#[test]
fn extreme_thread_counts_are_safe() {
    let default = QueryOptions::default().threads;
    assert_eq!(default, tmql::default_threads());
    if std::env::var_os("TMQL_THREADS").is_none() {
        assert_eq!(default, 1, "the hardware count has to be asked for");
    }
    let db = Database::from_catalog(gen_rs(&GenConfig::sized(64)));
    let serial = db
        .query_with(COUNT_BUG, QueryOptions::default().threads(1))
        .expect("serial run");
    for threads in [0usize, 64] {
        let got = db
            .query_with(COUNT_BUG, QueryOptions::default().threads(threads))
            .expect("clamped/oversubscribed run");
        assert_eq!(got.values, serial.values, "threads={threads}");
    }
}
