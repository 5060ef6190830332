//! Ordered fan-out over scoped worker threads.
//!
//! Per-unit passes (scalar facts, lint, `ped-par` classification) map a
//! pure function over unit indices. [`map_ordered`] hands indices out
//! through an atomic counter and stores each result in its own slot, so
//! the returned vector is in index order whatever the schedule — which
//! is what keeps every merged report thread-count invariant.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
}
