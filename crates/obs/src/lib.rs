//! Observability primitives shared by every layer of the engine.
//!
//! This crate is a dependency-free leaf so that storage, exec, and the
//! facade can all register into one [`MetricsRegistry`] without cyclic
//! imports: storage publishes buffer-pool and WAL activity, exec
//! publishes its work counters, and the facade adds query/transaction
//! accounting plus a per-query latency histogram. The registry renders
//! Prometheus-style text exposition (`Database::metrics_text()`, shell
//! `\metrics`), ready for the future network front-end to serve from a
//! `/metrics` endpoint.
//!
//! The [`json`] module hand-rolls the tiny subset of JSON the query log
//! needs (the build environment has no serde), and [`QueryLog`] is the
//! append-only JSONL sink behind `TMQL_QUERY_LOG`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod json;
pub mod log;
pub mod registry;

pub use log::QueryLog;
pub use registry::{Counter, Histogram, MetricsRegistry};

/// FNV-1a 64-bit hash — cheap and dependency-free; the WAL checksums
/// its records with it. The query log uses it to identify query
/// text without storing the (possibly sensitive, possibly huge) source.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Render a nanosecond span as a short human duration (`184ns`,
/// `12.3µs`, `45.6ms`, `1.23s`) for profile trees and `\stats`.
pub fn human_duration_nanos(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn durations_humanize() {
        assert_eq!(human_duration_nanos(184), "184ns");
        assert_eq!(human_duration_nanos(12_340), "12.3µs");
        assert_eq!(human_duration_nanos(45_600_000), "45.6ms");
        assert_eq!(human_duration_nanos(1_230_000_000), "1.23s");
    }
}
