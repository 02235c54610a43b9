//! The exchange primitive of morsel-driven parallel execution.
//!
//! Parallelism in this executor is **wave-shaped**: an operator that has a
//! set of independent work items (scan morsels, grace-hash partitions,
//! breaker partitions) fans them out to a scoped pool of worker threads
//! with [`scatter`] and gathers the results **in item order** before
//! continuing. Workers borrow the physical plan and the catalog (both are
//! shared immutably), clone the correlation [`tmql_algebra::Env`] they
//! need, and accumulate into worker-local
//! [`Metrics`](crate::metrics::Metrics) that the caller merges via
//! `AddAssign` — so profile trees and work counters stay truthful under
//! parallelism.
//!
//! Because results are gathered in item order and waves are formed in
//! queue order, execution emits rows in **the same order at every thread
//! count**. Determinism does not depend on this (query results are a
//! multiset — see the ordering contract in `docs/architecture.md`), but
//! it keeps differential testing trivial.
//!
//! [`scatter`] uses [`std::thread::scope`], so a wave is fully contained
//! inside one `next_batch` call: no worker outlives the operator's borrow
//! of the plan, and `threads = 1` (or a single item) short-circuits to a
//! plain in-place loop with zero thread overhead — which is how the one
//! `next_batch` body of every operator serves every thread count.

use std::sync::Mutex;

/// Run `f` over `items` on up to `threads` scoped workers, returning the
/// results in item order. With `threads <= 1` or fewer than two items the
/// call degenerates to a sequential in-place map (no threads spawned) —
/// this is the `threads = 1` parity guarantee.
///
/// Workers pull items off a shared queue, so skewed item costs self-balance
/// (the morsel-driven discipline). A panicking worker propagates its panic
/// to the caller after the wave completes.
pub fn scatter<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Index-tagged job queue; workers pop from the front so the cheap
    // early items start immediately and stragglers balance out.
    let queue: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().rev().collect());
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.min(n))
            .map(|_| {
                s.spawn(|| {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let job = queue.lock().unwrap_or_else(|e| e.into_inner()).pop();
                        match job {
                            None => break,
                            Some((i, item)) => done.push((i, f(item))),
                        }
                    }
                    done
                })
            })
            .collect();
        for w in workers {
            match w.join() {
                Ok(done) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every queue item was processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn gathers_in_item_order() {
        for threads in [1, 2, 8] {
            let out = scatter(threads, (0..100).collect(), |i: i32| i * 2);
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_path_spawns_no_threads() {
        // With threads = 1 every item runs on the calling thread.
        let caller = std::thread::current().id();
        let out = scatter(1, vec![(), (), ()], |()| std::thread::current().id());
        assert!(out.iter().all(|id| *id == caller));
    }

    #[test]
    fn workers_share_the_queue() {
        // 4 workers over 64 items: every item processed exactly once.
        let hits = AtomicUsize::new(0);
        let out = scatter(4, (0..64usize).collect(), |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item_waves() {
        let empty: Vec<i32> = scatter(8, Vec::new(), |i: i32| i);
        assert!(empty.is_empty());
        assert_eq!(scatter(8, vec![7], |i: i32| i + 1), vec![8]);
    }
}
