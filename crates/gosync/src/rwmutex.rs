//! A port of Go's `sync.RWMutex`.

use std::sync::atomic::{AtomicI32, Ordering};

use crate::mutex::GoMutex;
use crate::sema::Semaphore;

/// Go's `rwmutexMaxReaders`.
const MAX_READERS: i32 = 1 << 30;

/// Go's `sync.RWMutex`: a writer-preferring reader/writer lock.
///
/// Readers perform two atomic RMWs on the shared `reader_count` word per
/// `RLock`/`RUnlock` pair — under read-heavy contention those RMWs
/// serialize on the cache line and collapse scalability, which is exactly
/// the behavior the paper's Tally `HistogramExisting` and set `Len`
/// benchmarks expose and which lock elision removes (Figures 6 and 8).
///
/// A pending writer flips `reader_count` negative by `MAX_READERS`, making
/// new readers queue while it waits for the in-flight reader count
/// (`reader_wait`) to drain.
#[derive(Default)]
pub struct GoRwMutex {
    w: GoMutex,
    writer_sem: Semaphore,
    reader_sem: Semaphore,
    reader_count: AtomicI32,
    reader_wait: AtomicI32,
}

impl GoRwMutex {
    /// Creates an unlocked reader/writer mutex.
    #[must_use]
    pub fn new() -> Self {
        GoRwMutex::default()
    }

    /// Whether a writer currently holds or is acquiring the lock.
    ///
    /// This is the word `optiLib` inspects before eliding a write lock.
    #[must_use]
    pub fn is_write_locked(&self) -> bool {
        self.reader_count.load(Ordering::Relaxed) < 0
    }

    /// Acquires a read lock (Go's `RLock`).
    pub fn read(&self) -> GoRwReadGuard<'_> {
        self.rlock_raw();
        GoRwReadGuard { rw: self }
    }

    /// Acquires the write lock (Go's `Lock`).
    pub fn write(&self) -> GoRwWriteGuard<'_> {
        self.lock_raw();
        GoRwWriteGuard { rw: self }
    }

    /// Raw `RLock` for non-lexical call sites (`optiLib`).
    pub fn rlock_raw(&self) {
        if self.reader_count.fetch_add(1, Ordering::Acquire) + 1 < 0 {
            // A writer is pending; park until it finishes.
            self.reader_sem.acquire(false);
        }
    }

    /// Raw `RUnlock`.
    ///
    /// # Panics
    ///
    /// Panics on unlock of an unlocked RWMutex, like Go's fatal error.
    pub fn runlock_raw(&self) {
        let r = self.reader_count.fetch_add(-1, Ordering::Release) - 1;
        if r < 0 {
            self.runlock_slow(r);
        }
    }

    fn runlock_slow(&self, r: i32) {
        assert!(
            r + 1 != 0 && r + 1 != -MAX_READERS,
            "gosync: RUnlock of unlocked RWMutex"
        );
        // A writer is pending.
        if self.reader_wait.fetch_add(-1, Ordering::AcqRel) - 1 == 0 {
            // The last departing reader unblocks the writer.
            self.writer_sem.release(false);
        }
    }

    /// Raw write `Lock`.
    pub fn lock_raw(&self) {
        // Resolve competition with other writers first.
        self.w.lock_raw();
        // Announce to readers that a writer is pending.
        let r = self.reader_count.fetch_add(-MAX_READERS, Ordering::AcqRel);
        // Wait for active readers to drain.
        if r != 0 && self.reader_wait.fetch_add(r, Ordering::AcqRel) + r != 0 {
            self.writer_sem.acquire(false);
        }
    }

    /// Raw write `Unlock`.
    ///
    /// # Panics
    ///
    /// Panics on unlock of an unlocked RWMutex.
    pub fn unlock_raw(&self) {
        // Announce that no writer is pending.
        let r = self.reader_count.fetch_add(MAX_READERS, Ordering::Release) + MAX_READERS;
        assert!(r < MAX_READERS, "gosync: Unlock of unlocked RWMutex");
        // Unblock readers that queued behind us.
        for _ in 0..r {
            self.reader_sem.release(false);
        }
        self.w.unlock_raw();
    }
}

impl std::fmt::Debug for GoRwMutex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoRwMutex")
            .field("reader_count", &self.reader_count.load(Ordering::Relaxed))
            .field("write_locked", &self.is_write_locked())
            .finish()
    }
}

/// RAII read guard for [`GoRwMutex`].
#[must_use = "the read lock releases when the guard is dropped"]
#[derive(Debug)]
pub struct GoRwReadGuard<'a> {
    rw: &'a GoRwMutex,
}

impl Drop for GoRwReadGuard<'_> {
    fn drop(&mut self) {
        self.rw.runlock_raw();
    }
}

/// RAII write guard for [`GoRwMutex`].
#[must_use = "the write lock releases when the guard is dropped"]
#[derive(Debug)]
pub struct GoRwWriteGuard<'a> {
    rw: &'a GoRwMutex,
}

impl Drop for GoRwWriteGuard<'_> {
    fn drop(&mut self) {
        self.rw.unlock_raw();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn readers_are_concurrent() {
        let rw = GoRwMutex::new();
        let r1 = rw.read();
        let r2 = rw.read();
        drop(r1);
        drop(r2);
    }

    #[test]
    fn writer_excludes_readers() {
        let rw = Arc::new(GoRwMutex::new());
        let value = Arc::new(AtomicU64::new(0));
        let w = rw.write();
        let (rw2, value2) = (Arc::clone(&rw), Arc::clone(&value));
        let t = std::thread::spawn(move || {
            let _r = rw2.read();
            value2.load(Ordering::SeqCst)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        value.store(42, Ordering::SeqCst);
        drop(w);
        assert_eq!(
            t.join().unwrap(),
            42,
            "reader must observe the writer's store"
        );
    }

    #[test]
    fn writer_waits_for_readers() {
        let rw = Arc::new(GoRwMutex::new());
        let value = Arc::new(AtomicU64::new(0));
        let r = rw.read();
        let (rw2, value2) = (Arc::clone(&rw), Arc::clone(&value));
        let t = std::thread::spawn(move || {
            let _w = rw2.write();
            value2.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(
            value.load(Ordering::SeqCst),
            0,
            "writer must wait for active reader"
        );
        drop(r);
        t.join().unwrap();
        assert_eq!(value.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn mixed_read_write_stress() {
        let rw = Arc::new(GoRwMutex::new());
        let value = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for i in 0..6 {
                let rw = Arc::clone(&rw);
                let value = Arc::clone(&value);
                s.spawn(move || {
                    for _ in 0..500 {
                        if i % 3 == 0 {
                            let _w = rw.write();
                            let v = value.load(Ordering::Relaxed);
                            value.store(v + 1, Ordering::Relaxed);
                        } else {
                            let _r = rw.read();
                            let _ = value.load(Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(value.load(Ordering::Relaxed), 2 * 500);
    }

    #[test]
    #[should_panic(expected = "RUnlock of unlocked RWMutex")]
    fn runlock_unlocked_panics() {
        let rw = GoRwMutex::new();
        rw.runlock_raw();
    }

    #[test]
    #[should_panic(expected = "Unlock of unlocked RWMutex")]
    fn unlock_unlocked_panics() {
        let rw = GoRwMutex::new();
        rw.unlock_raw();
    }
}
