//! Locks paired with the word that transactions subscribe to.

use gocc_gosync::{GoMutex, GoRwMutex};
use gocc_htm::LockWord;

/// A `sync.Mutex` whose acquisitions are visible to fast-path transactions.
///
/// On hardware the first word of the mutex *is* the subscribable state; the
/// simulation pairs the Go mutex with an explicit [`LockWord`] and keeps the
/// two in lock-step: every pessimistic acquisition marks the word (and
/// drains in-flight speculative commits), every release clears it. This is
/// how untransformed `Lock()`/`Unlock()` call sites — which GOCC explicitly
/// supports leaving in place (§4) — interoperate with elided sections.
#[derive(Debug, Default)]
pub struct ElidableMutex {
    mutex: GoMutex,
    word: LockWord,
}

impl ElidableMutex {
    /// Creates an unlocked mutex.
    #[must_use]
    pub fn new() -> Self {
        ElidableMutex::default()
    }

    /// The subscribable lock word.
    #[must_use]
    pub fn word(&self) -> &LockWord {
        &self.word
    }

    /// Stable identity used for perceptron features and `lkMutex` matching.
    #[must_use]
    pub fn id(&self) -> usize {
        self as *const Self as usize
    }

    /// Whether the mutex is held by a pessimistic owner.
    #[must_use]
    pub fn is_locked(&self) -> bool {
        self.mutex.is_locked()
    }

    /// Pessimistic acquisition (an untransformed `Lock()` call site, and
    /// the `optiLib` slow path).
    pub fn lock_raw(&self) {
        self.mutex.lock_raw();
        // No separate coherence charge for the word: on hardware it *is*
        // the mutex's first word, so the one transfer `LockRef::acquire`
        // charges covers both.
        self.word.mark_held_and_drain();
    }

    /// Pessimistic release.
    pub fn unlock_raw(&self) {
        self.word.clear_held();
        self.mutex.unlock_raw();
    }

    /// The underlying Go mutex, bypassing the lock word.
    ///
    /// For *baseline* (untransformed) executions only: a program that
    /// mixes raw acquisitions with elided sections on the same lock loses
    /// the subscription guarantee. Benchmarks use this so the pessimistic
    /// baseline pays exactly `sync.Mutex`'s cost, nothing more.
    #[must_use]
    pub fn go_mutex(&self) -> &gocc_gosync::GoMutex {
        &self.mutex
    }

    /// RAII pessimistic acquisition.
    pub fn lock(&self) -> ElidableMutexGuard<'_> {
        self.lock_raw();
        ElidableMutexGuard { m: self }
    }
}

/// RAII guard for [`ElidableMutex`].
#[must_use = "the mutex unlocks when the guard is dropped"]
#[derive(Debug)]
pub struct ElidableMutexGuard<'a> {
    m: &'a ElidableMutex,
}

impl Drop for ElidableMutexGuard<'_> {
    fn drop(&mut self) {
        self.m.unlock_raw();
    }
}

/// A `sync.RWMutex` whose acquisitions are visible to fast-path
/// transactions.
///
/// Slow-path readers are counted in the lock word (they are compatible with
/// speculative readers but must abort speculative writers); a slow-path
/// writer marks the word held.
#[derive(Debug, Default)]
pub struct ElidableRwMutex {
    rw: GoRwMutex,
    word: LockWord,
}

impl ElidableRwMutex {
    /// Creates an unlocked reader/writer mutex.
    #[must_use]
    pub fn new() -> Self {
        ElidableRwMutex::default()
    }

    /// The subscribable lock word.
    #[must_use]
    pub fn word(&self) -> &LockWord {
        &self.word
    }

    /// Stable identity used for perceptron features and `lkMutex` matching.
    #[must_use]
    pub fn id(&self) -> usize {
        self as *const Self as usize
    }

    /// Whether a pessimistic writer holds or is acquiring the lock.
    #[must_use]
    pub fn is_write_locked(&self) -> bool {
        self.rw.is_write_locked()
    }

    /// The underlying Go RWMutex, bypassing the lock word (baseline use
    /// only; see [`ElidableMutex::go_mutex`]).
    #[must_use]
    pub fn go_rwmutex(&self) -> &gocc_gosync::GoRwMutex {
        &self.rw
    }

    /// Pessimistic `RLock`.
    pub fn rlock_raw(&self) {
        self.rw.rlock_raw();
        // Same line as the RWMutex reader count on hardware; no charge of
        // its own.
        self.word.reader_enter_and_drain();
    }

    /// Pessimistic `RUnlock`.
    pub fn runlock_raw(&self) {
        self.word.reader_exit();
        self.rw.runlock_raw();
    }

    /// Pessimistic write `Lock`.
    pub fn lock_raw(&self) {
        self.rw.lock_raw();
        self.word.mark_held_and_drain();
    }

    /// Pessimistic write `Unlock`.
    pub fn unlock_raw(&self) {
        self.word.clear_held();
        self.rw.unlock_raw();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_word_tracks_pessimistic_ops() {
        let m = ElidableMutex::new();
        let v0 = m.word().observe();
        m.lock_raw();
        assert!(m.is_locked());
        assert!(m.word().is_write_held());
        m.unlock_raw();
        assert!(!m.is_locked());
        assert!(!m.word().is_write_held());
        assert_ne!(
            m.word().observe(),
            v0,
            "overlapping subscribers must notice"
        );
    }

    #[test]
    fn rw_word_tracks_readers_and_writers() {
        let rw = ElidableRwMutex::new();
        rw.rlock_raw();
        assert_eq!(rw.word().slow_readers(), 1);
        assert!(!rw.word().is_write_held());
        rw.runlock_raw();
        assert_eq!(rw.word().slow_readers(), 0);
        rw.lock_raw();
        assert!(rw.word().is_write_held());
        rw.unlock_raw();
        assert!(!rw.word().is_write_held());
    }

    #[test]
    fn guard_releases_on_drop() {
        let m = ElidableMutex::new();
        {
            let _g = m.lock();
            assert!(m.is_locked());
        }
        assert!(!m.is_locked());
    }
}
