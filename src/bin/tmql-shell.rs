//! `tmql-shell` — an interactive shell over the tmql engine.
//!
//! ```sh
//! cargo run --bin tmql-shell
//! tmql> \load company
//! tmql> SELECT d.name FROM DEPT d
//! tmql> \strategy kim
//! tmql> \explain SELECT x FROM R x WHERE x.b = COUNT((SELECT y.d FROM S y WHERE x.c = y.c))
//! ```
//!
//! Meta commands start with `\`; anything else is executed as a TM query
//! against the loaded catalog under the current strategy/algorithm.

use std::io::{self, BufRead, Write};

use tmql::{Database, JoinAlgo, QueryOptions, UnnestStrategy};
use tmql_workload::gen::{gen_company, gen_rs, gen_xy, gen_xyz, GenConfig};
use tmql_workload::schemas;

struct Shell {
    db: Database,
    opts: QueryOptions,
}

const HELP: &str = "\
meta commands:
  \\load <ds> [n]     load a dataset: table1 | countbug | company | section8
                     or generated: rs | xy | xyz | gencompany  (size n, default 1000)
  \\open <path> [p]   open (or create) a disk-backed database at <path>
                     with a buffer pool of p pages (default 256); queries
                     stream pages through the pool
  \\persist <path>    copy the current catalog into a new disk-backed
                     database at <path> and switch to it
  \\tables            list loaded tables with row counts
  \\index create <table> <attr>   build a secondary index (persists on
                     disk-backed databases; the planner probes it when
                     cheaper than scanning)
  \\index drop <table> <attr>     drop a secondary index
  \\index list        list secondary indexes with entry counts
  \\strategy [name]   show or set the unnesting strategy:
                     nested-loop | kim | ganski-wong | muralikrishna |
                     nest-join | semi-anti | optimal | cost-based
  \\algo [name]       show or set the join algorithm: auto | nl | hash | merge
  \\set <opt> <val>   set a session option:
                     batch_size <rows> | memory_budget <rows|off> |
                     strategy <name> | algo <name> | rules <on|off> |
                     typecheck <on|off>
  \\show              list the current session options
  \\explain <query>   show translated / optimized / physical plans (est_rows per operator)
  \\profile <query>   run the query; explain + executed operator tree
                     with estimated vs actual rows per operator (and
                     spilled rows when a memory_budget forces spilling)
  \\strategies <q>    run <q> under every strategy, compare row counts
  \\metrics           engine-wide metrics (Prometheus text): pool, WAL,
                     executor work counters, query latency histogram
  \\stats             storage snapshot: pool hit rate + per-table
                     residency, WAL size/records, free list, recovery
  \\help              this text
  \\quit              exit
transaction statements (grouping registrations and \\index changes into
one atomic unit — durable as a single WAL commit on disk-backed
databases; each statement auto-commits otherwise):
  BEGIN | COMMIT | ROLLBACK
ANALYZE <query> runs the query and prints the executed operator tree
with est vs actual rows, per-operator wall time, and work counters;
anything else is executed as a TM query, e.g.
  SELECT x FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = y.b)";

fn main() {
    let mut shell = Shell {
        db: Database::from_catalog(schemas::company_catalog()),
        opts: QueryOptions::default(),
    };
    println!("tmql — nested query optimization in a complex object model (EDBT '94)");
    println!("loaded dataset `company`; \\help for commands");
    let stdin = io::stdin();
    loop {
        print!("tmql> ");
        let _ = io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('\\') {
            if !shell.meta(rest) {
                break;
            }
        } else if let Some(stmt) = parse_txn_statement(line) {
            shell.txn(stmt);
        } else if let Some(query) = parse_analyze_statement(line) {
            shell.analyze(query);
        } else {
            shell.run_query(line);
        }
    }
    println!("bye");
}

/// The three bare transaction statements, recognized case-insensitively
/// with an optional trailing `;` (so `begin;` works like `BEGIN`).
#[derive(Debug, Clone, Copy)]
enum TxnStatement {
    Begin,
    Commit,
    Rollback,
}

/// `ANALYZE <query>`, recognized case-insensitively like the bare
/// transaction statements; returns the query text.
fn parse_analyze_statement(line: &str) -> Option<&str> {
    let line = line.trim();
    let head = line.split_whitespace().next()?;
    if !head.eq_ignore_ascii_case("analyze") {
        return None;
    }
    let query = line[head.len()..].trim();
    if query.is_empty() {
        None
    } else {
        Some(query)
    }
}

fn parse_txn_statement(line: &str) -> Option<TxnStatement> {
    let word = line.trim().trim_end_matches(';').trim();
    if word.eq_ignore_ascii_case("begin") {
        Some(TxnStatement::Begin)
    } else if word.eq_ignore_ascii_case("commit") {
        Some(TxnStatement::Commit)
    } else if word.eq_ignore_ascii_case("rollback") {
        Some(TxnStatement::Rollback)
    } else {
        None
    }
}

impl Shell {
    /// Handle a meta command; returns false to exit the shell.
    fn meta(&mut self, cmd: &str) -> bool {
        let (head, rest) = match cmd.split_once(char::is_whitespace) {
            Some((h, r)) => (h, r.trim()),
            None => (cmd, ""),
        };
        match head {
            "quit" | "q" | "exit" => return false,
            "help" | "h" | "?" => println!("{HELP}"),
            "load" => self.load(rest),
            "open" => self.open(rest),
            "persist" => self.persist(rest),
            "tables" => {
                for name in self.db.catalog().table_names() {
                    let n = self.db.catalog().table(name).map(|t| t.len()).unwrap_or(0);
                    println!("  {name} ({n} rows)");
                }
            }
            "index" => self.index(rest),
            "strategy" if rest.is_empty() => {
                println!("strategy: {}", self.opts.strategy.name())
            }
            "strategy" => self.set_option(&format!("strategy {rest}")),
            "algo" if rest.is_empty() => println!("algo: {:?}", self.opts.join_algo),
            "algo" => self.set_option(&format!("algo {rest}")),
            "set" => self.set_option(rest),
            "show" => self.show_options(),
            "explain" => match self.db.explain_with(rest, self.opts) {
                Ok(s) => println!("{s}"),
                Err(e) => println!("error: {e}"),
            },
            "profile" => match self.db.profile_with(rest, self.opts) {
                Ok(s) => println!("{s}"),
                Err(e) => println!("error: {e}"),
            },
            "strategies" => self.compare_strategies(rest),
            "metrics" => print!("{}", self.db.metrics_text()),
            "stats" => self.stats(),
            other => println!("unknown command `\\{other}`; \\help for the list"),
        }
        true
    }

    /// `BEGIN` / `COMMIT` / `ROLLBACK`: multi-statement transactions.
    fn txn(&mut self, stmt: TxnStatement) {
        let result = match stmt {
            TxnStatement::Begin => self.db.begin().map(|()| {
                "transaction open; statements group until COMMIT (ROLLBACK discards them)"
            }),
            TxnStatement::Commit => self
                .db
                .commit()
                .map(|()| "committed: the transaction's statements are now one durable unit"),
            TxnStatement::Rollback => self
                .db
                .rollback()
                .map(|()| "rolled back: the transaction's statements are discarded"),
        };
        match result {
            Ok(msg) => println!("{msg}"),
            Err(e) => println!("error: {e}"),
        }
    }

    /// `\index create|drop|list`: manage secondary indexes.
    fn index(&mut self, spec: &str) {
        let parts: Vec<&str> = spec.split_whitespace().collect();
        match parts.as_slice() {
            ["create", table, attr] => match self.db.create_index(table, attr) {
                Ok(()) => println!("index on {table}.{attr} built"),
                Err(e) => println!("error: {e}"),
            },
            ["drop", table, attr] => match self.db.drop_index(table, attr) {
                Ok(true) => println!("index on {table}.{attr} dropped"),
                Ok(false) => println!("no index on {table}.{attr}"),
                Err(e) => println!("error: {e}"),
            },
            ["list"] | [] => {
                let indexes = self.db.indexes();
                if indexes.is_empty() {
                    println!("no indexes; \\index create <table> <attr> builds one");
                }
                for (table, attr, entries) in indexes {
                    println!("  {table}.{attr} ({entries} entries)");
                }
            }
            _ => println!("usage: \\index create <table> <attr> | drop <table> <attr> | list"),
        }
    }

    /// `\set <option> <value>`: mutate one session [`QueryOptions`] knob.
    fn set_option(&mut self, spec: &str) {
        let (key, val) = match spec.split_once(char::is_whitespace) {
            Some((k, v)) => (k, v.trim()),
            None => (spec, ""),
        };
        match key {
            "batch_size" => match val.parse::<usize>() {
                Ok(n) => {
                    self.opts = self.opts.batch_size(n);
                    println!("batch_size: {}", self.opts.batch_size);
                }
                Err(_) => println!("usage: \\set batch_size <rows>"),
            },
            "memory_budget" => match val {
                "off" | "none" | "unbounded" => {
                    self.opts.memory_budget_rows = None;
                    println!("memory_budget: unbounded");
                }
                _ => match val.parse::<usize>() {
                    Ok(n) => {
                        self.opts = self.opts.memory_budget(n);
                        println!(
                            "memory_budget: {} rows (breakers spill past this)",
                            n.max(1)
                        );
                    }
                    Err(_) => println!("usage: \\set memory_budget <rows|off>"),
                },
            },
            "strategy" => match parse_strategy(val) {
                Some(s) => {
                    self.opts.strategy = s;
                    println!("strategy: {}", s.name());
                }
                None => println!("unknown strategy `{val}`; \\help for the list"),
            },
            "algo" => match parse_algo(val) {
                Some(a) => {
                    self.opts.join_algo = a;
                    println!("algo: {a:?}");
                }
                None => println!("unknown algorithm `{val}`; \\help for the list"),
            },
            "rules" => match parse_on_off(val) {
                Some(b) => {
                    self.opts.apply_rules = b;
                    println!("rules: {}", if b { "on" } else { "off" });
                }
                None => println!("usage: \\set rules <on|off>"),
            },
            "typecheck" => match parse_on_off(val) {
                Some(b) => {
                    self.opts.typecheck = b;
                    println!("typecheck: {}", if b { "on" } else { "off" });
                }
                None => println!("usage: \\set typecheck <on|off>"),
            },
            "" => println!("usage: \\set <option> <value>; \\show lists the options"),
            other => println!("unknown option `{other}`; \\show lists the options"),
        }
    }

    /// `\show`: print every session option and its current value.
    fn show_options(&self) {
        let on_off = |b: bool| if b { "on" } else { "off" };
        println!(
            "database: {}",
            if self.db.is_persistent() {
                "disk-backed (\\open)"
            } else {
                "in-memory"
            }
        );
        println!(
            "transaction: {}",
            if self.db.in_transaction() {
                "open (COMMIT or ROLLBACK to close)"
            } else {
                "none (statements auto-commit)"
            }
        );
        println!("session options (\\set <option> <value>):");
        println!("  strategy       {}", self.opts.strategy.name());
        println!("  algo           {:?}", self.opts.join_algo);
        println!("  batch_size     {}", self.opts.batch_size);
        match self.opts.memory_budget_rows {
            Some(n) => println!("  memory_budget  {n} rows"),
            None => println!("  memory_budget  unbounded"),
        }
        println!("  rules          {}", on_off(self.opts.apply_rules));
        println!("  typecheck      {}", on_off(self.opts.typecheck));
    }

    fn load(&mut self, spec: &str) {
        let mut parts = spec.split_whitespace();
        let name = parts.next().unwrap_or("");
        let n: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(1000);
        let cfg = GenConfig::sized(n);
        let catalog = match name {
            "table1" => Some(schemas::table1_catalog()),
            "countbug" => Some(schemas::count_bug_catalog()),
            "company" => Some(schemas::company_catalog()),
            "section8" => Some(schemas::section8_catalog()),
            "rs" => Some(gen_rs(&cfg)),
            "xy" => Some(gen_xy(&cfg)),
            "xyz" => Some(gen_xyz(&cfg)),
            "gencompany" => Some(gen_company(&GenConfig {
                outer: n / 8,
                inner: n,
                ..GenConfig::default()
            })),
            _ => None,
        };
        match catalog {
            Some(cat) => {
                self.db = Database::from_catalog(cat);
                print!("loaded `{name}`:");
                for t in self.db.catalog().table_names() {
                    let rows = self.db.catalog().table(t).map(|t| t.len()).unwrap_or(0);
                    print!(" {t}({rows})");
                }
                println!();
            }
            None => println!("unknown dataset `{name}`; \\help for the list"),
        }
    }

    /// `\open <path> [pool_pages]`: switch the session to a disk-backed
    /// database (created on first open). A file admits one live
    /// `Database`, so a disk-backed session closes its own first: the
    /// session is then in memory and empty if the open fails.
    fn open(&mut self, spec: &str) {
        let mut parts = spec.split_whitespace();
        let Some(path) = parts.next() else {
            println!("usage: \\open <path> [pool_pages]");
            return;
        };
        let pool: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or(tmql::DEFAULT_POOL_PAGES);
        if self.db.is_persistent() {
            self.db = Database::new();
        }
        match Database::open_with(path, pool) {
            Ok(db) => {
                self.db = db;
                print!("opened `{path}` (pool {pool} pages):");
                for t in self.db.catalog().table_names() {
                    let rows = self.db.catalog().table(t).map(|t| t.len()).unwrap_or(0);
                    print!(" {t}({rows})");
                }
                println!();
                if let Some(rep) = self.db.recovery_report() {
                    if !rep.is_clean() {
                        println!(
                            "recovery: replayed {} transaction(s); \
                             discarded {} corrupt/torn log record(s) ({} bytes)",
                            rep.replayed_txns, rep.discarded_records, rep.discarded_bytes
                        );
                    }
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }

    /// `\persist <path>`: copy the current catalog into a new disk-backed
    /// database and keep working on the copy.
    fn persist(&mut self, spec: &str) {
        let path = spec.trim();
        if path.is_empty() {
            println!("usage: \\persist <path>");
            return;
        }
        match self.db.persist_to(path, tmql::DEFAULT_POOL_PAGES) {
            Ok(db) => {
                self.db = db;
                println!(
                    "persisted {} table(s) to `{path}`; session now disk-backed",
                    self.db.catalog().table_names().count()
                );
            }
            Err(e) => println!("error: {e}"),
        }
    }

    /// `ANALYZE <query>`: run it and print the executed operator tree
    /// with est vs actual rows, per-operator wall time, and counters.
    fn analyze(&self, src: &str) {
        match self.db.analyze_with(src, self.opts) {
            Ok(report) => print!("{report}"),
            Err(e) => println!("error: {e}"),
        }
    }

    /// `\stats`: a storage-layer snapshot — buffer pool, WAL, free
    /// list, and what recovery found at open.
    fn stats(&self) {
        match self.db.catalog().pool_stats() {
            Some(p) => {
                println!(
                    "buffer pool: {} hits / {} misses ({:.1}% hit rate), \
                     {} evictions, {} writebacks",
                    p.hits,
                    p.misses,
                    p.hit_rate() * 100.0,
                    p.evictions,
                    p.writebacks
                );
                for name in self.db.catalog().table_names() {
                    if let Some((resident, total)) = self.db.catalog().page_residency(name) {
                        println!("  {name}: {resident}/{total} pages resident");
                    }
                }
            }
            None => println!("buffer pool: n/a (in-memory database; \\open for disk-backed)"),
        }
        match self.db.catalog().wal_activity() {
            Some(w) => {
                println!(
                    "wal: {} bytes, {} record(s) ({} commit(s)) since last checkpoint",
                    w.size_bytes, w.records_since_checkpoint, w.commits_since_checkpoint
                );
                println!(
                    "  lifetime: {} append(s), {} commit(s), {} fsync(s), \
                     {} bytes written, {} checkpoint(s)",
                    w.appends_total,
                    w.commits_total,
                    w.syncs_total,
                    w.bytes_appended_total,
                    w.checkpoints_total
                );
            }
            None => println!("wal: n/a (in-memory database)"),
        }
        if let Some((free, quarantined)) = self.db.catalog().free_list_len() {
            println!("free list: {free} reusable page(s), {quarantined} awaiting checkpoint");
        }
        match self.db.recovery_report() {
            Some(rep) if rep.is_clean() => println!("recovery: clean open (nothing to replay)"),
            Some(rep) => println!(
                "recovery: replayed {} transaction(s), discarded {} record(s) ({} bytes)",
                rep.replayed_txns, rep.discarded_records, rep.discarded_bytes
            ),
            None => println!("recovery: n/a (in-memory database)"),
        }
    }

    fn run_query(&self, src: &str) {
        let start = std::time::Instant::now();
        match self.db.query_with(src, self.opts) {
            Ok(r) => {
                let elapsed = start.elapsed();
                print!("{}", r.render());
                println!(
                    "-- {} rows in {:.2?} [{}; {:?}] {}",
                    r.len(),
                    elapsed,
                    self.opts.strategy.name(),
                    self.opts.join_algo,
                    r.metrics
                );
            }
            Err(e) => println!("error: {e}"),
        }
    }

    fn compare_strategies(&self, src: &str) {
        println!(
            "{:>14} {:>8} {:>12} {:>12}",
            "strategy", "rows", "time", "work"
        );
        let mut oracle: Option<usize> = None;
        for strat in UnnestStrategy::ALL {
            let opts = QueryOptions {
                strategy: strat,
                ..self.opts
            };
            let start = std::time::Instant::now();
            match self.db.query_with(src, opts) {
                Ok(r) => {
                    let t = start.elapsed();
                    if strat == UnnestStrategy::NestedLoop {
                        oracle = Some(r.len());
                    }
                    let flag = match oracle {
                        Some(expect) if r.len() != expect => "  <- differs from oracle!",
                        _ => "",
                    };
                    println!(
                        "{:>14} {:>8} {:>12.2?} {:>12}{}",
                        strat.name(),
                        r.len(),
                        t,
                        r.metrics.total_work(),
                        flag
                    );
                }
                Err(e) => println!("{:>14} error: {e}", strat.name()),
            }
        }
    }
}

fn parse_strategy(s: &str) -> Option<UnnestStrategy> {
    UnnestStrategy::ALL.into_iter().find(|st| st.name() == s)
}

fn parse_on_off(s: &str) -> Option<bool> {
    match s {
        "on" | "true" | "1" => Some(true),
        "off" | "false" | "0" => Some(false),
        _ => None,
    }
}

fn parse_algo(s: &str) -> Option<JoinAlgo> {
    Some(match s {
        "auto" => JoinAlgo::Auto,
        "nl" | "nested-loop" => JoinAlgo::NestedLoop,
        "hash" => JoinAlgo::Hash,
        "merge" | "sort-merge" => JoinAlgo::SortMerge,
        _ => return None,
    })
}
