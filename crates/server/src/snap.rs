//! A wait-free published-pointer cell for `Arc`-shared snapshots.
//!
//! [`SnapCell`] holds the currently published `Arc<T>` behind an
//! `AtomicPtr`. Readers take a reference with two atomic RMWs and one
//! atomic load — no mutex, no CAS loop, no writer can make a reader
//! wait (the read path is wait-free). Writers swap in the next version
//! with a single pointer exchange and retire the old one.
//!
//! The hazard is reclamation: a reader that has loaded the raw pointer
//! but not yet bumped the strong count must not race a writer dropping
//! that `Arc`. Std has no epoch/hazard-pointer machinery, so the cell
//! uses a *pin counter + graveyard* scheme:
//!
//! * `load`: increment `pinned`, read the pointer, bump the strong
//!   count, decrement `pinned`. While `pinned > 0` some reader may hold
//!   a raw pointer without a reference yet.
//! * `store`: swap the pointer, push the old one onto the graveyard,
//!   then drop every graveyard entry **only after observing
//!   `pinned == 0`** (spinning briefly; if readers stay pinned the
//!   entries just wait for the next store or for `Drop`).
//!
//! Safety argument (all operations are `SeqCst`, so they form one total
//! order): suppose a writer's `pinned == 0` observation happens at
//! point τ. Any reader whose increment precedes τ must have completed
//! its decrement before τ (otherwise the counter could not read zero),
//! and therefore already owns a strong reference — dropping the
//! graveyard's reference cannot free its `T`. Any reader whose
//! increment follows τ performs its pointer load after τ, and every
//! graveyard entry was swapped *out* of the cell before τ — a later
//! load returns some newer pointer, never a graveyard entry. Either
//! way, no retired pointer is reachable without a strong reference.

use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

pub struct SnapCell<T: Send + Sync> {
    ptr: AtomicPtr<T>,
    /// Readers mid-`load` (between pointer read and strong-count bump).
    pinned: AtomicUsize,
    /// Swapped-out pointers awaiting a `pinned == 0` window to drop.
    retired: Mutex<Vec<*mut T>>,
}

// The raw pointers in `retired` are `Arc<T>`s by another name; the cell
// is as thread-safe as `Arc<T>` itself.
unsafe impl<T: Send + Sync> Send for SnapCell<T> {}
unsafe impl<T: Send + Sync> Sync for SnapCell<T> {}

impl<T: Send + Sync> SnapCell<T> {
    pub fn new(value: Arc<T>) -> SnapCell<T> {
        SnapCell {
            ptr: AtomicPtr::new(Arc::into_raw(value) as *mut T),
            pinned: AtomicUsize::new(0),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// The currently published value. Wait-free: two counter RMWs and
    /// one pointer load; never blocks on a writer.
    pub fn load(&self) -> Arc<T> {
        self.pinned.fetch_add(1, Ordering::SeqCst);
        let p = self.ptr.load(Ordering::SeqCst);
        // SAFETY: `p` was published by `new`/`store` and cannot have
        // been reclaimed: a writer only drops retired pointers after
        // observing `pinned == 0`, and our increment above precedes the
        // load of `p` in the SeqCst total order (see module docs).
        unsafe { Arc::increment_strong_count(p) };
        self.pinned.fetch_sub(1, Ordering::SeqCst);
        // SAFETY: we own the strong count bumped above.
        unsafe { Arc::from_raw(p) }
    }

    /// Publish `value`, retiring the previous version. Concurrent
    /// readers that already loaded the old `Arc` keep it alive; its
    /// memory is reclaimed here (or on a later store / `Drop`) once no
    /// reader is mid-`load`.
    pub fn store(&self, value: Arc<T>) {
        let new = Arc::into_raw(value) as *mut T;
        let old = self.ptr.swap(new, Ordering::SeqCst);
        let mut retired = self.retired.lock().unwrap();
        retired.push(old);
        // Reclaim opportunistically: pin windows are a handful of
        // instructions, so a short spin nearly always finds the gap.
        for _ in 0..64 {
            if self.pinned.load(Ordering::SeqCst) == 0 {
                for p in retired.drain(..) {
                    // SAFETY: `p` was swapped out of the cell before we
                    // observed `pinned == 0`; per the module-level
                    // argument no reader can reach it anymore, so this
                    // balances the `into_raw` that published it.
                    unsafe { drop(Arc::from_raw(p)) };
                }
                break;
            }
            std::hint::spin_loop();
        }
    }
}

impl<T: Send + Sync> Drop for SnapCell<T> {
    fn drop(&mut self) {
        // Exclusive access: no reader can be pinned anymore.
        let current = *self.ptr.get_mut();
        // SAFETY: balances the `into_raw` of `new`/`store`.
        unsafe { drop(Arc::from_raw(current)) };
        for p in self.retired.get_mut().unwrap().drain(..) {
            // SAFETY: retired pointers each hold one strong count.
            unsafe { drop(Arc::from_raw(p)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Counts live instances so the tests can prove no leak / no
    /// double-free under churn.
    struct Tracked {
        value: usize,
        live: Arc<AtomicUsize>,
    }

    impl Tracked {
        fn new(value: usize, live: &Arc<AtomicUsize>) -> Arc<Tracked> {
            live.fetch_add(1, Ordering::SeqCst);
            Arc::new(Tracked {
                value,
                live: Arc::clone(live),
            })
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn load_returns_latest_store() {
        let live = Arc::new(AtomicUsize::new(0));
        let cell = SnapCell::new(Tracked::new(0, &live));
        assert_eq!(cell.load().value, 0);
        cell.store(Tracked::new(1, &live));
        assert_eq!(cell.load().value, 1);
        cell.store(Tracked::new(2, &live));
        assert_eq!(cell.load().value, 2);
        drop(cell);
        assert_eq!(live.load(Ordering::SeqCst), 0, "all versions reclaimed");
    }

    #[test]
    fn readers_keep_old_versions_alive() {
        let live = Arc::new(AtomicUsize::new(0));
        let cell = SnapCell::new(Tracked::new(7, &live));
        let held = cell.load();
        cell.store(Tracked::new(8, &live));
        cell.store(Tracked::new(9, &live));
        // The reader's Arc still works even though two stores retired
        // its version.
        assert_eq!(held.value, 7);
        assert_eq!(cell.load().value, 9);
        drop(held);
        drop(cell);
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn hammer_concurrent_loads_and_stores() {
        const READERS: usize = 4;
        const STORES: usize = 2_000;
        let live = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(SnapCell::new(Tracked::new(0, &live)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Readers and the writer start together, so stores overlap loads.
        let start = Arc::new(std::sync::Barrier::new(READERS + 1));
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut last = 0usize;
                    let mut reads = 0usize;
                    loop {
                        // Read `stop` first: the load after it has been
                        // seen must observe the final store.
                        let stopped = stop.load(Ordering::SeqCst);
                        let v = cell.load();
                        // Published values are monotone: a reader must
                        // never observe the counter going backwards.
                        assert!(v.value >= last, "torn or stale read");
                        last = v.value;
                        reads += 1;
                        if stopped {
                            assert_eq!(last, STORES, "final store not visible after stop");
                            return reads;
                        }
                    }
                })
            })
            .collect();
        start.wait();
        for i in 1..=STORES {
            cell.store(Tracked::new(i, &live));
        }
        stop.store(true, Ordering::SeqCst);
        let mut total = 0;
        for r in readers {
            total += r.join().expect("reader panicked");
        }
        assert!(total >= READERS, "every reader loads at least once");
        assert_eq!(cell.load().value, STORES);
        drop(cell);
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "every retired version reclaimed exactly once"
        );
    }
}
