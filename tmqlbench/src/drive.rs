//! The multi-workload modes — `run`, `trace`, `repeat` — each of which
//! starts one child `tmql-bench` per workload run (so peak memory is per
//! workload) and reads the result line it prints.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::manifest::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};

/// Where a run keeps its files: `tmql-bench-out/` beside the executable, so
/// nothing is written outside the build directory.
pub fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("tmql-bench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The result line of one child run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Statements executed.
    pub attempted: u64,
    /// Statements that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

fn number_after<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let rest = &s[s.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Parse the line `Outcome::json_line` prints (this program's own format,
/// not general JSON).
pub fn parse_line(line: &str) -> Option<RunResult> {
    let mut out = RunResult {
        attempted: number_after(line, "\"attempted\": ")?.parse().ok()?,
        failed: number_after(line, "\"failed\": ")?.parse().ok()?,
        metrics: BTreeMap::new(),
    };
    let metrics = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    for entry in metrics.split("\"}").filter(|e| e.contains("\"value\": ")) {
        let name = entry.split('"').nth(1)?;
        let value = number_after(entry, "\"value\": ")?.parse().ok()?;
        out.metrics.insert(name.to_string(), value);
    }
    Some(out)
}

/// Run one workload in a child process and wait for it.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    stdout
        .lines()
        .last()
        .and_then(parse_line)
        .ok_or_else(|| format!("{workload}: no result line in the child's output"))
}

/// `run` / `trace`: every workload once at `seed`, one table of the
/// mode's metrics. Exits non-zero when any statement failed.
pub fn run_all(seed: u64, seconds: f64, trace: bool) -> Result<ExitCode, String> {
    let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut results = Vec::new();
    for (name, _) in WORKLOADS {
        results.push((name, child(name, seed, seconds, trace)?));
    }
    let row = |label: String, cell: &dyn Fn(&RunResult) -> String| {
        let cells: Vec<String> = results.iter().map(|(_, r)| cell(r)).collect();
        println!("{label:<32} {}", cells.join(" "));
    };
    let names: Vec<String> = results.iter().map(|(n, _)| format!("{n:>14}")).collect();
    println!(
        "{:<32} {}",
        format!("seed={seed} seconds={seconds}"),
        names.join(" ")
    );
    for m in defs {
        row(format!("{} [{}]", m.name, m.unit), &|r| {
            format!(
                "{:>14.3}",
                r.metrics.get(m.name).copied().unwrap_or(f64::NAN)
            )
        });
    }
    row("ops_attempted".into(), &|r| format!("{:>14}", r.attempted));
    row("ops_failed".into(), &|r| format!("{:>14}", r.failed));
    let failed: u64 = results.iter().map(|(_, r)| r.failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Interquartile range of `v` as a share of its median.
fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v)
}

/// `repeat`: two sets of `runs` seeds per workload with the same code,
/// and two traced runs at one seed. Prints, as JSON, each end-to-end
/// metric's spread in both sets and how much worse the second median is
/// than the first, beside its bound, and whether every exact counter
/// repeated. Exits non-zero when a bound does not hold or a counter
/// differs.
pub fn repeat(runs: u64, seconds: f64) -> Result<ExitCode, String> {
    let mut sets: Vec<BTreeMap<&str, Vec<RunResult>>> = Vec::new();
    for _ in 0..2 {
        let mut set = BTreeMap::new();
        for (name, _) in WORKLOADS {
            let results: Result<Vec<_>, _> = (1..=runs)
                .map(|seed| child(name, seed, seconds, false))
                .collect();
            set.insert(name, results?);
        }
        sets.push(set);
    }

    let mut holds = true;
    let mut rows = Vec::new();
    for (name, _) in WORKLOADS {
        let mut cells = Vec::new();
        for m in END_TO_END {
            let values = |set: &BTreeMap<&str, Vec<RunResult>>| -> Vec<f64> {
                set[name].iter().map(|r| r.metrics[m.name]).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            let worse_by = match m.better {
                "lower" => (mb - ma) / ma,
                _ => (ma - mb) / ma,
            };
            // The set-up time's spread is reported but, as the driver
            // does, only its medians are held to the bound.
            let spread_ok = m.name == "setup_s" || spread(&a).max(spread(&b)) <= m.bound;
            let ok = spread_ok && worse_by <= m.bound;
            holds &= ok;
            cells.push(format!(
                "\"{}\": {{\"median_a\": {ma}, \"median_b\": {mb}, \"spread_a\": {:.4}, \
                 \"spread_b\": {:.4}, \"second_worse_by\": {worse_by:.4}, \"bound\": {}, \"holds\": {ok}}}",
                m.name,
                spread(&a),
                spread(&b),
                m.bound
            ));
        }
        let failed: u64 = sets.iter().flat_map(|s| &s[name]).map(|r| r.failed).sum();
        let (t1, t2) = (
            child(name, 42, seconds, true)?,
            child(name, 42, seconds, true)?,
        );
        let differing: Vec<String> = PER_LAYER
            .iter()
            .filter(|m| m.unit == "count" && m.name != "trace_rounds")
            .filter(|m| t1.metrics[m.name] != t2.metrics[m.name])
            .map(|m| format!("\"{}\"", m.name))
            .collect();
        holds &= differing.is_empty() && failed == 0;
        rows.push(format!(
            "    \"{name}\": {{\n      {},\n      \"ops_failed\": {failed}, \"counters_differing\": [{}]\n    }}",
            cells.join(",\n      "),
            differing.join(", ")
        ));
    }
    println!(
        "{{\n  \"runs_per_set\": {runs}, \"seconds\": {seconds}, \"cores\": {}, \"holds\": {holds},\n  \
         \"workloads\": {{\n{}\n  }}\n}}",
        std::thread::available_parallelism().map_or(0, usize::from),
        rows.join(",\n")
    );
    Ok(if holds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_its_own_result_line() {
        let line = "{\"correct\": true, \"attempted\": 120, \"failed\": 0, \"metrics\": \
                    {\"round_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
                    \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}";
        let r = parse_line(line).expect("parses");
        assert_eq!((r.attempted, r.failed), (120, 0));
        assert_eq!(r.metrics["round_p50_ms"], 1.25);
        assert_eq!(r.metrics["setup_s"], 0.5);
        assert_eq!(r.metrics.len(), 2);
    }
}
