//! The benchmark's contract — workloads, metrics, units, regression
//! bounds — in one table. The root `BENCHMARK.json` is this table rendered
//! by `tmql-bench manifest`; the smoke test fails when the two differ, so
//! the names the program emits and the names the file declares cannot
//! drift apart.

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 10;

/// Workloads in report order, each with the reason it exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "paper_nested",
        "The paper's own traffic at n=2048: semijoin, antijoin, nest join + filter, nest join in SELECT, two-level nest join (n=512); hash build/probe and eval dominate, planning is small, no storage I/O.",
    ),
    (
        "plan_heavy",
        "26 paper statements over tables of at most 16 rows: execution is tiny, so parse, typecheck, translate, strategy costing and lowering are most of each statement; data-plane changes should not move it.",
    ),
    (
        "scan_mem",
        "Three scans of an 8192-row in-memory table (filter all, project + dedup, emit a quarter of whole tuples): no join, spill or pager, so it prices the per-row scan path; the size that fits in memory.",
    ),
    (
        "spill_join",
        "Semijoin, nest join and dedup at n=2048 under a 512-row memory budget: the only workload that spills, pricing the spill codec, temp-file I/O and the partitioned breakers.",
    ),
    (
        "disk_cold",
        "Full scan, 16 Zipf index probes and a range probe over a 65536-row disk table behind an 8-page pool: working set 36x the cache, so every request pays page read, decode and eviction; read-only.",
    ),
    (
        "disk_rw",
        "Warm index probes, joins and a scan beside auto-committed and batched table replaces on a disk database that fits its pool: WAL append, fsync and checkpoints next to reads that must stay fast.",
    ),
];

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound (0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// What a user of the engine sees, measured with the benchmark's spans
/// off. `round_norm_ms` and `setup_s` are on-CPU time in units of the
/// calibration kernel (see [`crate::clock`]). The wall-clock
/// `round_p50_ms` and `stmts_per_s` ISSUE 11 drafted are printed beside
/// them and exported ungated as `wall.*` per-layer metrics: on the
/// reference host their spread over ten seeds was 5–29 % and a second
/// set's median moved by up to 65 % (`spreads_wall.json`), which no bound
/// the contract allows can hold. The normalised times spread 0.5–9 % over
/// four sets of ten seeds (`spreads.json` is the last two), so their
/// bound is the contract's largest; memory spreads under 1.5 %.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("round_norm_ms", "ref_ms", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
];

/// Single-layer metrics from the traced run. Times are medians over
/// rounds of the per-round sum; counts are per round over the first
/// [`crate::measure::COUNTED_ROUNDS`] traced rounds and repeat exactly.
pub const PER_LAYER: [MetricDef; 41] = [
    layer("wall.round_p50_ms", "ms", "lower"),
    layer("wall.stmts_per_s", "1/s", "higher"),
    layer("calibration_us", "us", "lower"),
    layer("lang.parse_us", "us", "lower"),
    layer("lang.check_us", "us", "lower"),
    layer("translate.us", "us", "lower"),
    layer("core.optimize_us", "us", "lower"),
    layer("exec.lower_us", "us", "lower"),
    layer("exec.estimate_us", "us", "lower"),
    layer("plan_us", "us", "lower"),
    layer("plan_share", "%", "lower"),
    layer("exec.execute_us", "us", "lower"),
    layer("exec.rows_scanned", "count", "lower"),
    layer("exec.total_work", "count", "lower"),
    layer("exec.ns_per_row_scanned", "ns", "lower"),
    layer("exec.ns_per_work", "ns", "lower"),
    layer("facade.collect_us", "us", "lower"),
    layer("facade.residual_us", "us", "lower"),
    layer("exec.rows_spilled", "count", "lower"),
    layer("exec.spill_partitions", "count", "lower"),
    layer("exec.peak_resident_rows", "count", "lower"),
    layer("storage.spill_write_ns_per_row", "ns", "lower"),
    layer("storage.spill_read_ns_per_row", "ns", "lower"),
    layer("storage.batch_ns_per_row", "ns", "lower"),
    layer("storage.pool_hit_rate", "ratio", "higher"),
    layer("storage.pool_misses", "count", "lower"),
    layer("storage.evictions", "count", "lower"),
    layer("storage.index_probe_us", "us", "lower"),
    layer("exec.index_probes", "count", "lower"),
    layer("exec.index_hits", "count", "lower"),
    layer("storage.commit_us", "us", "lower"),
    layer("storage.wal_appends", "count", "lower"),
    layer("storage.wal_syncs", "count", "lower"),
    layer("storage.wal_bytes_per_commit", "B", "lower"),
    layer("storage.wal_syncs_per_commit", "ratio", "lower"),
    layer("storage.checkpoint_ms", "ms", "lower"),
    layer("storage.checkpoints", "count", "lower"),
    layer("storage.space_amp", "ratio", "lower"),
    layer("storage.open_ms", "ms", "lower"),
    layer("trace_rounds", "count", "higher"),
    layer("trace_overhead", "ratio", "lower"),
];

/// True iff `name` is a declared workload.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(n, _)| *n == name)
}

/// The root `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"tmqlbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"tmqlbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
