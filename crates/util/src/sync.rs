//! Read-copy-update primitives for the broker's parallel data plane.
//!
//! The broker splits its routing state into an immutable read snapshot
//! and a single-writer churn path. [`SnapshotCell`] is the publication
//! point: the writer [`SnapshotCell::store`]s a freshly built
//! `Arc<Snapshot>`, readers [`SnapshotCell::load`] a handle and keep
//! matching against it lock-free — the cell is touched only when a reader
//! decides (by comparing versions out of band) that its handle is stale.
//!
//! The implementation is deliberately `unsafe`-free, matching the rest of
//! the workspace: an `ArcSwap`-style atomic-pointer cell needs unsafe
//! pointer juggling, so the slot is a short-critical-section
//! `std::sync::Mutex<Arc<T>>` instead (lock, clone/replace an `Arc`,
//! unlock — a few nanoseconds, and *off* the per-message hot path by
//! construction). A monotonically increasing generation counter lets
//! pollers skip even that lock when nothing was published.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A shared slot holding the current `Arc<T>` snapshot. See the module
/// docs for the access pattern and the no-`unsafe` design note.
pub struct SnapshotCell<T> {
    slot: Mutex<Arc<T>>,
    generation: AtomicU64,
}

impl<T> SnapshotCell<T> {
    /// Wraps an initial snapshot (generation 0).
    pub fn new(value: Arc<T>) -> Self {
        Self { slot: Mutex::new(value), generation: AtomicU64::new(0) }
    }

    /// The slot, poison ignored: a critical section only clones or
    /// replaces an `Arc`, so a panicking holder cannot leave it torn.
    fn slot(&self) -> MutexGuard<'_, Arc<T>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns a handle to the current snapshot.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot())
    }

    /// Publishes a new snapshot, returning the previous one. Bumps the
    /// generation.
    pub fn store(&self, value: Arc<T>) -> Arc<T> {
        let mut slot = self.slot();
        let old = std::mem::replace(&mut *slot, value);
        self.generation.fetch_add(1, Ordering::Release);
        old
    }

    /// Number of [`SnapshotCell::store`]s so far: a cheap staleness probe
    /// for pollers that want to avoid the slot lock entirely.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

impl<T> fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotCell").field("generation", &self.generation()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::SnapshotCell;
    use std::sync::Arc;

    #[test]
    fn load_store_round_trip() {
        let cell = SnapshotCell::new(Arc::new(1u64));
        assert_eq!(*cell.load(), 1);
        assert_eq!(cell.generation(), 0);
        let old = cell.store(Arc::new(2));
        assert_eq!(*old, 1);
        assert_eq!(*cell.load(), 2);
        assert_eq!(cell.generation(), 1);
    }

    #[test]
    fn readers_observe_writer_updates() {
        let cell = Arc::new(SnapshotCell::new(Arc::new(0u64)));
        std::thread::scope(|s| {
            let reader = {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    // Spin until the writer's final value is visible.
                    loop {
                        if *cell.load() == 99 {
                            return;
                        }
                        std::thread::yield_now();
                    }
                })
            };
            for v in 1..=99u64 {
                cell.store(Arc::new(v));
            }
            reader.join().unwrap();
        });
        assert_eq!(cell.generation(), 99);
    }
}
