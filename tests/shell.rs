//! End-to-end test of the `tmql-shell` binary: drive it through stdin and
//! check the output, including the live COUNT-bug demonstration.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_shell(input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tmql-shell"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("shell starts");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write input");
    let out = child.wait_with_output().expect("shell exits");
    assert!(out.status.success(), "shell exited with {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn query_and_metadata_commands() {
    let out = run_shell(
        "\\tables\n\
         SELECT d.name FROM DEPT d\n\
         \\quit\n",
    );
    assert!(out.contains("DEPT (3 rows)"), "{out}");
    assert!(out.contains("\"cs\""), "{out}");
    assert!(out.contains("-- 3 rows"), "{out}");
}

#[test]
fn count_bug_demo_in_shell() {
    let out = run_shell(
        "\\load countbug\n\
         \\strategies SELECT x FROM R x WHERE x.b = COUNT((SELECT y.d FROM S y WHERE x.c = y.c))\n\
         \\quit\n",
    );
    assert!(
        out.contains("differs from oracle!"),
        "Kim's bug must be flagged:\n{out}"
    );
    // Exactly one strategy differs.
    assert_eq!(out.matches("differs from oracle!").count(), 1, "{out}");
}

#[test]
fn strategy_and_algo_switching() {
    let out = run_shell(
        "\\strategy nest-join\n\
         \\algo merge\n\
         SELECT e.name FROM EMP e WHERE e.sal > 5000\n\
         \\strategy bogus\n\
         \\quit\n",
    );
    assert!(out.contains("strategy: nest-join"), "{out}");
    assert!(out.contains("algo: SortMerge"), "{out}");
    assert!(out.contains("[nest-join; SortMerge]"), "{out}");
    assert!(out.contains("unknown strategy"), "{out}");
}

#[test]
fn explain_and_errors_dont_crash() {
    let out = run_shell(
        "\\explain SELECT x FROM X x\n\
         SELECT nope FROM DEPT d\n\
         \\load nosuchdataset\n\
         \\nosuchcommand\n\
         \\quit\n",
    );
    // X is unknown in the company catalog: a type error, not a crash.
    assert!(out.contains("error"), "{out}");
    assert!(out.contains("unknown dataset"), "{out}");
    assert!(out.contains("unknown command"), "{out}");
    assert!(out.contains("bye"), "{out}");
}

#[test]
fn help_lists_every_implemented_command() {
    // The shell dispatches on these command heads (aliases excluded); each
    // must be documented in `\help` so the help text cannot rot again the
    // way it once missed `\profile`.
    let commands = [
        "\\load",
        "\\open",
        "\\persist",
        "\\tables",
        "\\strategy",
        "\\algo",
        "\\set",
        "\\show",
        "\\explain",
        "\\profile",
        "\\strategies",
        "\\help",
        "\\quit",
        "BEGIN",
        "COMMIT",
        "ROLLBACK",
    ];
    let out = run_shell("\\help\n\\quit\n");
    for cmd in commands {
        assert!(
            out.contains(cmd),
            "`\\help` does not mention `{cmd}`:\n{out}"
        );
    }
    // And the `\set` options are spelled out.
    for opt in ["batch_size", "memory_budget", "rules", "typecheck"] {
        assert!(
            out.contains(opt),
            "`\\help` does not mention \\set option `{opt}`:\n{out}"
        );
    }
}

#[test]
fn set_and_show_session_options() {
    let out = run_shell(
        "\\show\n\
         \\set memory_budget 64\n\
         \\set batch_size 128\n\
         \\set rules off\n\
         \\show\n\
         \\set memory_budget off\n\
         \\set bogus 1\n\
         \\set memory_budget notanumber\n\
         \\set threads 3\n\
         \\quit\n",
    );
    assert!(out.contains("memory_budget  unbounded"), "{out}");
    assert!(out.contains("memory_budget: 64 rows"), "{out}");
    assert!(out.contains("memory_budget  64 rows"), "{out}");
    assert!(out.contains("batch_size     128"), "{out}");
    assert!(out.contains("rules          off"), "{out}");
    assert!(out.contains("memory_budget: unbounded"), "{out}");
    assert!(out.contains("unknown option `bogus`"), "{out}");
    assert!(out.contains("usage: \\set memory_budget"), "{out}");
}

#[test]
fn set_and_show_threads() {
    // A statement runs on one thread: there is no thread count to set or
    // show.
    let mut child = Command::new(env!("CARGO_BIN_EXE_tmql-shell"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("shell starts");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(
            b"\\set threads 3\n\
              \\set threads auto\n\
              \\show\n\
              SELECT d.name FROM DEPT d\n\
              \\quit\n",
        )
        .expect("write input");
    let out = child.wait_with_output().expect("shell exits");
    assert!(out.status.success(), "shell exited with {:?}", out.status);
    let out = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(out.matches("unknown option `threads`").count(), 2, "{out}");
    assert!(!out.contains("threads:"), "{out}");
    assert!(!out.contains("  threads "), "{out}");
    assert!(out.contains("memory_budget  unbounded"), "{out}");
    assert!(out.contains("-- 3 rows"), "{out}");
}

#[test]
fn memory_budget_makes_queries_spill() {
    // xy(512): the semijoin build side is 512 rows; a 32-row budget forces
    // grace-hash spilling, visible in the metrics line.
    let out = run_shell(
        "\\load xy 512\n\
         \\set memory_budget 32\n\
         SELECT x.n FROM X x WHERE x.n IN (SELECT y.a FROM Y y WHERE x.b = y.b)\n\
         \\quit\n",
    );
    assert!(out.contains("spilled="), "{out}");
    assert!(
        !out.contains("spilled=0 "),
        "budgeted run must actually spill:\n{out}"
    );
}

#[test]
fn persist_then_open_round_trips_across_shell_sessions() {
    let path = std::env::temp_dir().join(format!("tmql-shell-test-{}.tmdb", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let p = path.display();
    // Session 1: load a generated dataset and persist it.
    let out = run_shell(&format!(
        "\\load xy 64\n\
         \\persist {p}\n\
         \\show\n\
         SELECT x.n FROM X x WHERE x.n IN (SELECT y.a FROM Y y WHERE x.b = y.b)\n\
         \\quit\n"
    ));
    assert!(out.contains("persisted 2 table(s)"), "{out}");
    assert!(out.contains("database: disk-backed"), "{out}");
    let rows_line = out
        .lines()
        .find(|l| l.contains("rows in"))
        .expect("query ran")
        .to_string();
    // Session 2: a fresh process opens the file and gets the same answer,
    // also after a second `\open` of the file the session already holds
    // (a file admits one live database: the session lets go of its own).
    let out2 = run_shell(&format!(
        "\\open {p}\n\
         \\open {p}\n\
         SELECT x.n FROM X x WHERE x.n IN (SELECT y.a FROM Y y WHERE x.b = y.b)\n\
         \\quit\n"
    ));
    assert_eq!(
        out2.matches("X(64)").count(),
        2,
        "both opens list X:\n{out2}"
    );
    assert!(!out2.contains("error"), "{out2}");
    let rows = rows_line
        .split(" rows")
        .next()
        .unwrap()
        .rsplit(' ')
        .next()
        .unwrap();
    assert!(
        out2.contains(&format!("-- {rows} rows")),
        "reopened database must answer identically ({rows_line}):\n{out2}"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("tmdb.wal"));
}

#[test]
fn transactions_group_statements_across_shell_sessions() {
    let path =
        std::env::temp_dir().join(format!("tmql-shell-txn-test-{}.tmdb", std::process::id()));
    let wal = {
        let mut w = path.clone().into_os_string();
        w.push(".wal");
        std::path::PathBuf::from(w)
    };
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
    let p = path.display();
    // Session 1: a rolled-back index never happened; a committed one is
    // durable. Statement forms are case-insensitive with optional `;`.
    let out = run_shell(&format!(
        "\\load xy 64\n\
         \\persist {p}\n\
         begin;\n\
         \\index create X b\n\
         rollback\n\
         \\index list\n\
         commit\n\
         BEGIN\n\
         \\index create X b\n\
         \\show\n\
         COMMIT;\n\
         \\quit\n"
    ));
    assert!(out.contains("transaction open"), "{out}");
    assert!(out.contains("rolled back"), "{out}");
    assert!(
        out.contains("no indexes"),
        "rollback must discard the index:\n{out}"
    );
    assert!(
        out.contains("error: no open transaction to commit"),
        "stray COMMIT reports an error:\n{out}"
    );
    assert!(out.contains("transaction: open"), "{out}");
    assert!(out.contains("committed"), "{out}");
    // Session 2: the committed transaction survives the process.
    let out2 = run_shell(&format!("\\open {p}\n\\index list\n\\show\n\\quit\n"));
    assert!(
        out2.contains("X.b (64 entries)"),
        "committed index persists:\n{out2}"
    );
    assert!(out2.contains("transaction: none"), "{out2}");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn generated_dataset_load() {
    let out = run_shell(
        "\\load xy 64\n\
         SELECT x.n FROM X x WHERE x.n IN (SELECT y.a FROM Y y WHERE x.b = y.b)\n\
         \\quit\n",
    );
    assert!(out.contains("X(64)"), "{out}");
    assert!(out.contains("rows in"), "{out}");
}

#[test]
fn analyze_statement_prints_executed_tree() {
    let out = run_shell(
        "analyze SELECT d.name FROM DEPT d\n\
         \\quit\n",
    );
    assert!(out.contains("== analyze (executed) =="), "{out}");
    assert!(out.contains("Scan(DEPT) [rows=3 est=3"), "{out}");
    assert!(out.contains("time="), "per-operator wall time:\n{out}");
    assert!(out.contains("max_qerror="), "{out}");
    assert!(out.contains("total_work="), "{out}");
}

#[test]
fn metrics_command_renders_prometheus_text() {
    let out = run_shell(
        "SELECT d.name FROM DEPT d\n\
         \\metrics\n\
         \\quit\n",
    );
    assert!(out.contains("# TYPE tmql_queries_total counter"), "{out}");
    assert!(out.contains("tmql_queries_total 1\n"), "{out}");
    assert!(out.contains("tmql_exec_rows_scanned_total"), "{out}");
    assert!(out.contains("tmql_query_wall_micros_count 1\n"), "{out}");
    assert!(
        out.contains("tmql_query_wall_micros_bucket{le=\"+Inf\"} 1"),
        "{out}"
    );
}

#[test]
fn stats_command_in_memory_and_disk_backed() {
    // In-memory: every storage section reports n/a.
    let out = run_shell("\\stats\n\\quit\n");
    assert!(out.contains("buffer pool: n/a"), "{out}");
    assert!(out.contains("wal: n/a"), "{out}");
    assert!(out.contains("recovery: n/a"), "{out}");

    // Disk-backed: pool, WAL, free list, and recovery all report.
    let path =
        std::env::temp_dir().join(format!("tmql-shell-stats-test-{}.tmdb", std::process::id()));
    let wal = {
        let mut w = path.clone().into_os_string();
        w.push(".wal");
        std::path::PathBuf::from(w)
    };
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
    let p = path.display();
    let out = run_shell(&format!(
        "\\open {p}\n\
         \\load rs 100\n\
         \\persist {p}2\n\
         SELECT r.a FROM R r WHERE r.b = 0\n\
         \\stats\n\
         \\metrics\n\
         \\quit\n"
    ));
    assert!(out.contains("buffer pool:"), "{out}");
    assert!(out.contains("hit rate"), "{out}");
    assert!(out.contains("pages resident"), "{out}");
    assert!(out.contains("wal:"), "{out}");
    assert!(out.contains("lifetime:"), "{out}");
    assert!(out.contains("free list:"), "{out}");
    assert!(out.contains("recovery: clean open"), "{out}");
    assert!(out.contains("tmql_pool_hits_total"), "{out}");
    assert!(out.contains("tmql_wal_appends_total"), "{out}");
    for histogram in ["commit", "wal_fsync", "checkpoint"] {
        let ty = format!("# TYPE tmql_{histogram}_micros histogram");
        assert!(out.contains(&ty), "{out}");
    }
    for f in [&path, &wal] {
        let _ = std::fs::remove_file(f);
    }
    let _ = std::fs::remove_file(format!("{p}2"));
    let _ = std::fs::remove_file(format!("{p}2.wal"));
}
