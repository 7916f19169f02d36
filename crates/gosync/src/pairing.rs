//! Lock/unlock pairing ledger.
//!
//! `optiLib`'s mutex-mismatch detection (Appendix C) catches mis-paired
//! `Lock`/`Unlock` sequences *inside an elided section*. This module is the
//! complementary check at the `gosync` layer: a [`LockLedger`] interposed in
//! front of raw `lock_raw`/`unlock_raw` calls verifies that every unlock
//! targets a lock that is actually held, without assuming LIFO nesting —
//! hand-over-hand locking (`Lock(a); Lock(b); Unlock(a); Unlock(b)`) is
//! legal Go and must pass.
//!
//! The ledger is a verification facility, not an enforcement one: a
//! mis-paired unlock is *recorded and reported* (the caller decides whether
//! to recover or abort), never silently swallowed. Fault-injection drivers
//! (see `gocc-faultplane`'s `PairingFaultPlan`) use it to assert that every
//! injected mispair is detected and nothing else is.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Stable identity for a lock: its address.
///
/// Matches how `optiLib` keys locks ("the first word of the Mutex
/// pointer"); two locks are the same iff they are the same object.
#[must_use]
pub fn lock_id<T>(lock: &T) -> usize {
    std::ptr::from_ref(lock) as usize
}

/// A multiset of currently-held lock identities with mispair detection.
///
/// Unlike a stack discipline, the ledger only requires that an unlock
/// target be *held*, not that it be the most recent acquisition — so
/// hand-over-hand traversals balance cleanly while a genuinely mis-paired
/// unlock (of a lock this ledger never saw locked, or already released)
/// is counted in [`LockLedger::mispairs`].
#[derive(Debug, Default)]
pub struct LockLedger {
    held: Mutex<HashMap<usize, u64>>,
    locks: AtomicU64,
    unlocks: AtomicU64,
    mispairs: AtomicU64,
}

impl LockLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        LockLedger::default()
    }

    /// Records an acquisition of the lock with identity `id`.
    pub fn note_lock(&self, id: usize) {
        self.locks.fetch_add(1, Ordering::Relaxed);
        *self.held.lock().unwrap().entry(id).or_insert(0) += 1;
    }

    /// Records a release of the lock with identity `id`.
    ///
    /// Returns `true` if the lock was held (a balanced unlock). Returns
    /// `false` — and counts a mispair — if it was not: the caller is
    /// unlocking something it never locked, or already released. The held
    /// multiset is left untouched in that case, so a subsequent correct
    /// unlock still balances.
    #[must_use]
    pub fn note_unlock(&self, id: usize) -> bool {
        let mut held = self.held.lock().unwrap();
        match held.get_mut(&id) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    held.remove(&id);
                }
                self.unlocks.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => {
                self.mispairs.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Total acquisitions recorded.
    #[must_use]
    pub fn locks(&self) -> u64 {
        self.locks.load(Ordering::Relaxed)
    }

    /// Total *balanced* releases recorded (mispairs are not included).
    #[must_use]
    pub fn unlocks(&self) -> u64 {
        self.unlocks.load(Ordering::Relaxed)
    }

    /// Mis-paired unlocks detected.
    #[must_use]
    pub fn mispairs(&self) -> u64 {
        self.mispairs.load(Ordering::Relaxed)
    }

    /// Number of lock acquisitions currently outstanding (all identities).
    #[must_use]
    pub fn held_total(&self) -> u64 {
        self.held.lock().unwrap().values().sum()
    }

    /// Outstanding acquisitions of one identity.
    #[must_use]
    pub fn held(&self, id: usize) -> u64 {
        self.held.lock().unwrap().get(&id).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GoMutex;

    #[test]
    fn lifo_and_hand_over_hand_both_balance() {
        let ledger = LockLedger::new();
        let a = GoMutex::new();
        let b = GoMutex::new();
        let (ia, ib) = (lock_id(&a), lock_id(&b));

        // LIFO nesting.
        ledger.note_lock(ia);
        ledger.note_lock(ib);
        assert!(ledger.note_unlock(ib));
        assert!(ledger.note_unlock(ia));

        // Hand-over-hand: unlock order matches lock order, not reverse.
        ledger.note_lock(ia);
        ledger.note_lock(ib);
        assert!(ledger.note_unlock(ia));
        assert!(ledger.note_unlock(ib));

        assert_eq!((ledger.mispairs(), ledger.held_total()), (0, 0));
        assert_eq!(ledger.locks(), 4);
        assert_eq!(ledger.unlocks(), 4);
    }

    #[test]
    fn mispaired_unlock_is_detected_and_recoverable() {
        let ledger = LockLedger::new();
        let a = GoMutex::new();
        let b = GoMutex::new();
        let (ia, ib) = (lock_id(&a), lock_id(&b));

        ledger.note_lock(ia);
        // Unlock of a lock that was never acquired: flagged, not applied.
        assert!(!ledger.note_unlock(ib));
        assert_eq!(ledger.mispairs(), 1);
        assert_eq!(ledger.held(ia), 1, "mispair must not disturb held state");
        // The correct unlock still balances afterwards.
        assert!(ledger.note_unlock(ia));
        assert_eq!(ledger.held_total(), 0);
        assert_ne!(ledger.mispairs(), 0, "a detected mispair is never clean");
    }

    #[test]
    fn reentrant_counts_are_per_identity() {
        let ledger = LockLedger::new();
        let a = GoMutex::new();
        let ia = lock_id(&a);
        ledger.note_lock(ia);
        ledger.note_lock(ia);
        assert_eq!(ledger.held(ia), 2);
        assert!(ledger.note_unlock(ia));
        assert!(ledger.note_unlock(ia));
        // Third release of the same identity is a mispair.
        assert!(!ledger.note_unlock(ia));
        assert_eq!(ledger.mispairs(), 1);
    }

    #[test]
    fn concurrent_ledger_counts_are_exact() {
        let ledger = LockLedger::new();
        let m = GoMutex::new();
        let id = lock_id(&m);
        const THREADS: u64 = 8;
        const ITERS: u64 = 500;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ITERS {
                        let g = m.lock();
                        ledger.note_lock(id);
                        assert!(ledger.note_unlock(id));
                        drop(g);
                    }
                });
            }
        });
        assert_eq!((ledger.mispairs(), ledger.held_total()), (0, 0));
        assert_eq!(ledger.locks(), THREADS * ITERS);
        assert_eq!(ledger.unlocks(), THREADS * ITERS);
    }
}
