//! A small parallel experiment runner.
//!
//! Every point in a figure is an independent simulation — a pure function of
//! `(seed, params)` — so the sweep is embarrassingly parallel. This module
//! fans a list of such jobs across OS threads with `std::thread::scope`
//! (no external dependencies) and merges results back **in job order**, so a
//! parallel run is byte-identical to a sequential one: determinism is a
//! property of each simulation, and order-merging removes the only other
//! source of nondeterminism (completion order).
//!
//! Thread count defaults to the machine's available parallelism and can be
//! pinned with the `PDAGENT_BENCH_THREADS` environment variable (useful for
//! the speedup measurements in `BENCH_*.json` and for forcing sequential
//! execution with `PDAGENT_BENCH_THREADS=1`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker threads to use: `PDAGENT_BENCH_THREADS` if set (≥ 1), else the
/// machine's available parallelism.
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var("PDAGENT_BENCH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Map `f` over `items` on a scoped worker pool, returning results in the
/// order of `items` regardless of which worker finished when.
///
/// Workers pull the next job index from a shared atomic counter (work
/// stealing by index), so uneven job costs — a 10-transaction client-server
/// run takes ~10x a 1-transaction one — still load-balance. A panic in any
/// job propagates out of the scope, preserving the sequential failure mode.
pub fn parallel_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    let workers = thread_count().min(n.max(1));
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let jobs: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = jobs[i].lock().unwrap().take().expect("job taken once");
                let out = f(item);
                *slots[i].lock().unwrap() = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items.clone(), |i| i * 3);
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_job_costs_still_merge_in_order() {
        // Later jobs finish first; order must still hold.
        let out = parallel_map((0..16u64).collect(), |i| {
            std::thread::sleep(std::time::Duration::from_micros((16 - i) * 50));
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(empty, |i| i).is_empty());
        assert_eq!(parallel_map(vec![7u32], |i| i + 1), vec![8]);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }
}
