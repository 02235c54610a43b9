//! `tmql-bench` — see the crate README for the modes.

use std::path::PathBuf;
use std::process::ExitCode;

use tmqlbench::measure::{self, Args};
use tmqlbench::{drive, manifest};

const USAGE: &str = "\
usage: tmql-bench --workload NAME --seed N --seconds S --trace 0|1   one workload, in this process
       tmql-bench run    [--seed N] [--seconds S]   every workload, end-to-end metrics
       tmql-bench trace  [--seed N] [--seconds S]   every workload, per-layer metrics + span files
       tmql-bench repeat [--runs K] [--seconds S]   two sets of K seeds per workload: spreads as JSON
       tmql-bench manifest                          print BENCHMARK.json";

/// Environment variables the engine reads; cleared so a CI matrix cannot
/// leak into a measurement.
const ENGINE_ENV: [&str; 6] = [
    "TMQL_THREADS",
    "TMQL_TEST_POOL_PAGES",
    "TMQL_QUERY_LOG",
    "TMQL_SLOW_QUERY_MICROS",
    "TMQL_WAL_CHECKPOINT_BYTES",
    "TMQL_BENCH_QUICK",
];

/// The per-run scratch directory, removed on success and on failure.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{name} needs a value\n{USAGE}")),
    }
}

fn capture(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One workload in this process: the mode `BENCHMARK.json` names.
fn one(argv: &[String], seed: u64, seconds: f64) -> Result<ExitCode, String> {
    let args = Args {
        workload: flag(argv, "--workload", String::new())?,
        seed,
        seconds,
        trace: flag(argv, "--trace", 0u8)? != 0,
        shrink: 1,
    };
    if !manifest::is_workload(&args.workload) {
        return Err(format!("unknown workload `{}`\n{USAGE}", args.workload));
    }
    // Everything the run writes — database, WAL and spill files, the span
    // file — stays beside the executable, inside the build directory.
    let out = drive::out_dir()?;
    let tmp = TempDir(out.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;
    std::env::set_var("TMPDIR", &tmp.0);

    eprintln!(
        "tmql-bench: cores={} rustc=\"{}\" git={} closed loop, 1 client, threads(1)",
        std::thread::available_parallelism().map_or(0, usize::from),
        capture("rustc", &["--version"]),
        capture("git", &["rev-parse", "--short", "HEAD"]),
    );
    let outcome = measure::run(&args, &tmp.0, &out).map_err(|e| e.to_string())?;
    eprint!("{}", outcome.report);
    println!("{}", outcome.json_line());
    Ok(ExitCode::SUCCESS)
}

fn real_main() -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with --release".to_string());
    }
    for var in ENGINE_ENV {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let seed = flag(&argv, "--seed", 42u64)?;
    let seconds = flag(&argv, "--seconds", f64::from(manifest::RUN_SECONDS))?;
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => drive::run_all(seed, seconds, false),
        Some("trace") => drive::run_all(seed, seconds, true),
        Some("repeat") => drive::repeat(flag(&argv, "--runs", 10u64)?, seconds),
        Some(a) if a.starts_with("--") => one(&argv, seed, seconds),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("tmql-bench: {e}");
        ExitCode::from(2)
    })
}
