#![warn(missing_docs)]

//! # tmql-bench — the benchmark of record
//!
//! One command (`BENCHMARK.json` at the repository root names it) measures
//! six workloads end to end and, in a separate traced run, layer by layer.
//! The benchmark binds only to stage-boundary functions of the engine —
//! `Database`, `QueryOptions`, `Catalog`/`Table` loading through the
//! `tmql-workload` generators and `int_table`, and the pipeline calls in
//! [`pipeline`] — and records every span from its own files, around those
//! calls. See the README beside this crate for the metric glossary.

pub mod clock;
pub mod drive;
pub mod layers;
pub mod manifest;
pub mod measure;
pub mod pipeline;
pub mod stats;
pub mod workloads;
