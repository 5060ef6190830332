//! Ordered fan-out over scoped worker threads, and the one worker-count
//! policy every fan-out shares.
//!
//! Whole-program passes (scalar facts, dependence pair testing, lint,
//! `ped-par` classification, the batch driver's programs) map a pure
//! function over indices. [`map_ordered`] hands indices out through an
//! atomic counter and stores each result in its own slot, so the
//! returned vector is in index order whatever the schedule — which is
//! what keeps every merged report thread-count invariant. [`workers`]
//! turns a requested thread count (`0` = auto) into a pool size.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Largest pool an auto-sized (`0`) fan-out uses.
const MAX_AUTO_WORKERS: usize = 8;

/// Machine core count, probed once per process.
/// `available_parallelism` is a real syscall (tens of µs under some
/// sandboxes) and the core count never changes mid-process, so the
/// result is cached.
pub fn probe_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Workers for a fan-out over `n` items: `requested`, where `0` means
/// the probed core count capped at [`MAX_AUTO_WORKERS`]. Never more
/// than `n`, never fewer than one.
pub fn workers(requested: usize, n: usize) -> usize {
    let w = match requested {
        0 => probe_cores().min(MAX_AUTO_WORKERS),
        t => t,
    };
    w.min(n).max(1)
}

/// `(0..n).map(f).collect()`, on up to `threads` workers. One worker,
/// or at most one item, runs inline on the calling thread.
pub fn map_ordered<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                *slots[i].lock().unwrap() = Some(v);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every index is mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        let serial = map_ordered(37, 1, |i| i * i);
        for threads in [2, 3, 8, 64] {
            assert_eq!(map_ordered(37, threads, |i| i * i), serial);
        }
        assert!(map_ordered(0, 4, |i| i).is_empty());
    }

    #[test]
    fn every_index_is_mapped_exactly_once_under_uneven_cost() {
        let n = 1000;
        let seen: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = map_ordered(n, 4, |i| {
            seen[i].fetch_add(1, Ordering::SeqCst);
            // Uneven per-item cost: some workers fall behind, others
            // run ahead through the shared counter.
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            i
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        for (i, c) in seen.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::SeqCst),
                1,
                "index {i} mapped wrong # of times"
            );
        }
    }

    #[test]
    fn worker_policy_caps_at_items_and_resolves_auto() {
        assert_eq!(workers(4, 10), 4);
        assert_eq!(workers(4, 2), 2);
        assert_eq!(workers(3, 0), 1);
        let auto = workers(0, usize::MAX);
        assert_eq!(auto, probe_cores().min(MAX_AUTO_WORKERS));
        assert_eq!(workers(0, 1), 1);
    }
}
