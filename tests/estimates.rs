//! Estimates checked like counters: the q-error of every executed
//! operator's row estimate, over every query statement of the benchmark's
//! six workloads, pinned in `tests/golden/estimates.txt`.
//!
//! The workloads are the benchmark's own, included from
//! `tmqlbench/src/workloads.rs`, built at its pinned seed and full size,
//! and each query runs through `query_with` under the statement's options,
//! as the benchmark runs it. Its answer must have the statement's pinned
//! row count. The file records, per statement, its `max_qerror` and each
//! executed operator in pre-order: label, estimated rows, actual rows and
//! q-error (`max(est/actual, actual/est)`, both floored at one row; see
//! Moerkotte, Neumann & Steidl, VLDB 2009). All of it is deterministic,
//! so any difference fails, and the message names every operator whose
//! q-error rose or fell. After an intended change, regenerate with
//! `TMQL_BLESS=1 cargo test --test estimates`; a change that raises a
//! statement's `max_qerror` names the rise and its reason where it is
//! recorded.

#[allow(dead_code)]
#[path = "../tmqlbench/src/workloads.rs"]
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use workloads::{Op, PINNED_SEED};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/estimates.txt");

/// The benchmark's workloads, in its manifest's order.
const WORKLOADS: [&str; 6] = [
    "paper_nested",
    "plan_heavy",
    "scan_mem",
    "spill_join",
    "disk_cold",
    "disk_rw",
];

/// The whole file: one section per query statement, then the worst
/// `max_qerror` per workload.
fn render() -> String {
    let dir = std::env::temp_dir().join(format!("tmql-estimates-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a temporary directory");
    let mut out = String::from(
        "# Row estimates of the benchmark's query statements at seed 42 and full\n\
         # size: per statement its max_qerror, then each executed operator in\n\
         # pre-order (tests/estimates.rs; TMQL_BLESS=1 regenerates).\n",
    );
    let mut worst = Vec::new();
    for workload in WORKLOADS {
        let inst = workloads::build(workload, PINNED_SEED, 1, &dir).expect("workload builds");
        let mut top = (1.0, String::new());
        for (i, s) in inst.stmts.iter().enumerate() {
            let Op::Query(src) = &s.op else { continue };
            let r = inst.dbs[s.db]
                .query_with(src, s.opts)
                .expect("statement runs");
            let k = format!("{workload} #{i} {}", s.class);
            assert_eq!(r.len(), s.rows_pinned, "{k}: pinned row count");
            let q = r.max_qerror();
            if q > top.0 {
                top = (q, format!("#{i} {}", s.class));
            }
            let src = src.split_whitespace().collect::<Vec<_>>().join(" ");
            writeln!(out, "\n== {k} rows={} max_qerror={q:.2}\n-- {src}", r.len()).unwrap();
            for op in &r.ops {
                let est = op.est_rows.map_or("-".to_string(), |e| format!("{e:.2}"));
                let q = op.qerror().map_or("-".to_string(), |q| format!("{q:.2}"));
                let indent = "  ".repeat(op.depth);
                let (label, rows) = (&op.label, op.rows_out);
                writeln!(out, "{indent}{label} est={est} rows={rows} q={q}").unwrap();
            }
        }
        worst.push(format!("{workload} {:.2} {}", top.0, top.1));
    }
    std::fs::remove_dir_all(&dir).expect("the temporary directory is removed");
    out.push_str("\n== worst max_qerror per workload\n");
    for line in worst {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Every operator line's label and q-error, by statement header and
/// position in pre-order, in the file's order.
fn operators(file: &str) -> Vec<((String, usize), (String, String))> {
    let mut out = Vec::new();
    let (mut header, mut n) = (String::new(), 0);
    for line in file.lines() {
        if let Some(h) = line.strip_prefix("== ") {
            header = h.split(" rows=").next().unwrap_or(h).to_string();
            n = 0;
        } else if line.starts_with("-- ") || line.starts_with('#') {
            continue;
        } else if let Some((head, q)) = line.rsplit_once(" q=") {
            let label = head
                .split(" est=")
                .next()
                .unwrap_or(head)
                .trim()
                .to_string();
            out.push(((header.clone(), n), (label, q.to_string())));
            n += 1;
        }
    }
    out
}

/// What differs between the golden file and the rendered one: every
/// operator whose q-error rose or fell, or that came or went.
fn differences(golden: &str, rendered: &str) -> Vec<String> {
    let (was, now) = (operators(golden), operators(rendered));
    let (was_at, now_at): (BTreeMap<_, _>, BTreeMap<_, _>) = (
        was.iter().map(|(k, v)| (k, v)).collect(),
        now.iter().map(|(k, v)| (k, v)).collect(),
    );
    let mut out = Vec::new();
    for (at @ (stmt, i), (label, q)) in &now {
        match was_at.get(at) {
            None => out.push(format!("{stmt}, operator {i} {label}: new (q={q})")),
            Some((old_label, _)) if old_label != label => {
                out.push(format!(
                    "{stmt}, operator {i}: {old_label} became {label} (q={q})"
                ));
            }
            Some((_, old_q)) if old_q != q => {
                let (a, b) = (old_q.parse::<f64>(), q.parse::<f64>());
                let verb = match (a, b) {
                    (Ok(a), Ok(b)) if b > a => "rose",
                    (Ok(a), Ok(b)) if b < a => "fell",
                    _ => "changed",
                };
                out.push(format!(
                    "{stmt}, operator {i} {label}: q-error {verb} {old_q} -> {q}"
                ));
            }
            Some(_) => {}
        }
    }
    for (at @ (stmt, i), (label, q)) in &was {
        if !now_at.contains_key(at) {
            out.push(format!("{stmt}, operator {i} {label}: gone (q was {q})"));
        }
    }
    out
}

#[test]
fn estimates_match_the_golden_file() {
    let rendered = render();
    if std::env::var_os("TMQL_BLESS").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write tests/golden/estimates.txt");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/estimates.txt exists");
    if rendered == golden {
        return;
    }
    let mut report = differences(&golden, &rendered);
    if report.is_empty() {
        // Same q-errors: an estimate, a row count or a statement moved.
        let (line, (g, r)) = (golden.lines().zip(rendered.lines()).enumerate())
            .find(|(_, (g, r))| g != r)
            .unwrap_or((golden.lines().count(), ("<end>", "<end>")));
        report.push(format!("line {}: golden `{g}`, rendered `{r}`", line + 1));
    }
    panic!(
        "estimates differ from tests/golden/estimates.txt:\n  {}\n\
         rerun with TMQL_BLESS=1 if the change is intended",
        report.join("\n  ")
    );
}

/// The parser of the failure message reads what `render` writes.
#[test]
fn a_moved_estimate_is_named() {
    let golden = "== w #0 c rows=2 max_qerror=2.00\n-- SELECT\nMap est=4.00 rows=2 q=2.00\n  \
                  Scan(X) est=2.00 rows=2 q=1.00\n";
    let rendered = golden.replace("Map est=4.00 rows=2 q=2.00", "Map est=6.00 rows=2 q=3.00");
    assert_eq!(
        differences(golden, &rendered),
        vec!["w #0 c, operator 0 Map: q-error rose 2.00 -> 3.00".to_string()]
    );
    assert_eq!(
        differences(&rendered, golden),
        vec!["w #0 c, operator 0 Map: q-error fell 3.00 -> 2.00".to_string()]
    );
    assert!(differences(golden, golden).is_empty());
}
