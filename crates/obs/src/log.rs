//! The append-only JSONL query log behind `TMQL_QUERY_LOG`.
//!
//! One line per statement, flushed per record so `tail -f` and the CI
//! validator always see complete lines. Writes are best-effort: a full
//! disk must never fail a query, so I/O errors are reported once to
//! stderr and then dropped.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// Environment variable naming the query-log path.
pub(crate) const QUERY_LOG_ENV: &str = "TMQL_QUERY_LOG";

/// Environment variable holding the slow-query threshold in
/// microseconds; statements at or above it log their full `ANALYZE`
/// tree.
pub(crate) const SLOW_QUERY_ENV: &str = "TMQL_SLOW_QUERY_MICROS";

/// An append-only JSONL sink shared by every statement of a `Database`.
#[derive(Debug)]
pub struct QueryLog {
    path: PathBuf,
    file: Mutex<File>,
    warned: AtomicBool,
}

impl QueryLog {
    /// Open (creating or appending to) the log at `path`.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            path,
            file: Mutex::new(file),
            warned: AtomicBool::new(false),
        })
    }

    /// Build a log from `TMQL_QUERY_LOG`, if set and openable (an
    /// unopenable path warns on stderr rather than failing the
    /// database).
    pub fn from_env() -> Option<Self> {
        let path = std::env::var_os(QUERY_LOG_ENV)?;
        if path.is_empty() {
            return None;
        }
        match Self::create(PathBuf::from(&path)) {
            Ok(log) => Some(log),
            Err(e) => {
                eprintln!("tmql: cannot open query log {path:?}: {e}");
                None
            }
        }
    }

    /// Where this log writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record (a single line of JSON, no trailing newline)
    /// and flush. The line and its newline go out in one append, so the
    /// records of two logs on one file (two databases of a process) never
    /// interleave. Best-effort: errors warn once and are otherwise
    /// swallowed.
    pub fn append(&self, line: &str) {
        let record = format!("{line}\n");
        // A writer that panicked mid-append left at worst a torn line; the
        // file handle itself is still good.
        let mut f = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let r = f.write_all(record.as_bytes()).and_then(|()| f.flush());
        if let Err(e) = r {
            if !self.warned.swap(true, Ordering::Relaxed) {
                eprintln!("tmql: query log write failed: {e}");
            }
        }
    }
}

/// Read the slow-query threshold from `TMQL_SLOW_QUERY_MICROS`
/// (unset, empty, or unparsable means no threshold).
pub fn slow_query_micros_from_env() -> Option<u64> {
    std::env::var(SLOW_QUERY_ENV).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_one_line_per_record() {
        let path =
            std::env::temp_dir().join(format!("tmql_qlog_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = QueryLog::create(&path).unwrap();
        log.append("{\"a\":1}");
        log.append("{\"b\":2}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n");
        // Re-opening appends rather than truncating.
        let log2 = QueryLog::create(&path).unwrap();
        log2.append("{\"c\":3}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        let _ = std::fs::remove_file(&path);
    }
}
