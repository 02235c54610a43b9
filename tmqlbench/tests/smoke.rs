//! Smoke test: every workload, both modes, at sizes shrunk 32×, in a few
//! seconds; and `BENCHMARK.json` is exactly what the manifest declares.

use std::path::{Path, PathBuf};

use tmql_obs::json::parse_object_keys;
use tmqlbench::manifest::{self, END_TO_END, PER_LAYER, WORKLOADS};
use tmqlbench::measure::{self, Args};

/// The `"metrics"` object of a result line.
fn metrics_object(line: &str) -> &str {
    let start = line.find("\"metrics\": ").expect("has metrics") + "\"metrics\": ".len();
    &line[start..line.len() - 1]
}

#[test]
fn every_workload_runs_correctly_and_emits_the_declared_names() {
    // Keep database, WAL and spill files inside the build directory.
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::env::set_var("TMPDIR", env!("CARGO_TARGET_TMPDIR"));
    for (workload, _) in WORKLOADS {
        for (trace, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let tmp = out.join(format!("{workload}-{trace}"));
            std::fs::create_dir_all(&tmp).expect("scratch dir");
            let args = Args {
                workload: workload.to_string(),
                seed: 7,
                seconds: 0.0,
                trace,
                shrink: 32,
            };
            let outcome = measure::run(&args, &tmp, &out).expect("workload runs");
            assert!(outcome.attempted > 0, "{workload}");
            assert_eq!(outcome.failed, 0, "{workload}: {}", outcome.report);

            let line = outcome.json_line();
            assert_eq!(
                parse_object_keys(&line).expect("valid JSON"),
                ["correct", "attempted", "failed", "metrics"],
                "{line}"
            );
            let emitted = parse_object_keys(metrics_object(&line)).expect("valid JSON");
            let names: Vec<&str> = declared.iter().map(|m| m.name).collect();
            assert_eq!(emitted, names, "{workload} trace={trace}");
            if trace {
                assert!(out.join(format!("trace-{workload}.jsonl")).exists());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn benchmark_json_is_the_rendered_manifest() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let file = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        file,
        manifest::benchmark_json(),
        "regenerate with `tmql-bench manifest > BENCHMARK.json`"
    );
    assert_eq!(
        parse_object_keys(&file).expect("valid JSON"),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}
