//! Versioned-lock stripes at cache-line granularity.
//!
//! Each stripe is a 64-bit word: bit 0 is the lock bit, bits 63:1 hold the
//! version. A memory address maps to a stripe by hashing its cache-line
//! number, so two `TxVar`s in the same 64-byte line always share a stripe
//! (modeling false sharing), and unrelated lines may occasionally collide
//! (modeling a finite conflict-detection structure).

use std::sync::atomic::{AtomicU64, Ordering};

/// Cache-line size assumed by the address-to-stripe mapping.
pub const CACHE_LINE: usize = 64;

/// Index of a stripe within a [`StripeTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StripeId(pub(crate) u32);

/// A snapshot of a stripe word observed by a reader.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeSnapshot(pub(crate) u64);

impl StripeSnapshot {
    /// Whether the stripe was locked when observed.
    #[must_use]
    pub fn is_locked(self) -> bool {
        self.0 & 1 == 1
    }

    /// The version part of the snapshot.
    #[must_use]
    pub fn version(self) -> u64 {
        self.0 >> 1
    }
}

/// The table of versioned locks shared by all transactions of a runtime.
#[derive(Debug)]
pub struct StripeTable {
    stripes: Box<[AtomicU64]>,
    mask: usize,
}

impl StripeTable {
    /// Creates a table with `2^bits` stripes, all at version 0 and unlocked.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 30.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!(bits > 0 && bits <= 30, "stripe_bits must be in 1..=30");
        let n = 1usize << bits;
        let stripes: Box<[AtomicU64]> = (0..n).map(|_| AtomicU64::new(0)).collect();
        StripeTable {
            stripes,
            mask: n - 1,
        }
    }

    /// Number of stripes in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stripes.len()
    }

    /// Whether the table is empty (it never is).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stripes.is_empty()
    }

    /// Maps a memory address to its stripe.
    ///
    /// Addresses in the same cache line always map to the same stripe.
    /// A Fibonacci-hash of the line number spreads adjacent lines across
    /// the table so that sequential data does not alias pathologically.
    #[must_use]
    pub fn stripe_of_addr(&self, addr: usize) -> StripeId {
        let line = addr / CACHE_LINE;
        // Fibonacci hashing: multiply by 2^64/phi and take high-quality
        // upper bits folded into the table mask.
        let h = (line as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        StripeId(((h >> 32) as usize & self.mask) as u32)
    }

    fn word(&self, id: StripeId) -> &AtomicU64 {
        &self.stripes[id.0 as usize]
    }

    /// Reads the stripe word with `Acquire` ordering.
    #[must_use]
    pub fn load(&self, id: StripeId) -> StripeSnapshot {
        StripeSnapshot(self.word(id).load(Ordering::Acquire))
    }

    /// Attempts to lock the stripe at whatever version it currently holds.
    ///
    /// Returns the pre-lock snapshot on success, `None` if the stripe is
    /// already locked by someone else.
    pub fn try_lock_current(&self, id: StripeId) -> Option<StripeSnapshot> {
        let cur = self.word(id).load(Ordering::Acquire);
        if cur & 1 == 1 {
            return None;
        }
        self.word(id)
            .compare_exchange(cur, cur | 1, Ordering::AcqRel, Ordering::Relaxed)
            .ok()
            .map(StripeSnapshot)
    }

    /// Unlocks the stripe, installing `new_version`.
    ///
    /// The caller must hold the stripe lock (acquired via
    /// [`Self::try_lock_current`]); this is a plain release store, which
    /// is sound because the lock bit excludes concurrent writers.
    pub fn unlock_with_version(&self, id: StripeId, new_version: u64) {
        debug_assert!(
            self.word(id).load(Ordering::Relaxed) & 1 == 1,
            "unlocking unheld stripe"
        );
        self.word(id).store(new_version << 1, Ordering::Release);
    }

    /// Unlocks the stripe without changing its version (commit of a stripe
    /// that was locked but whose write was elided, or abort cleanup).
    pub fn unlock_restore(&self, id: StripeId, seen: StripeSnapshot) {
        debug_assert!(
            self.word(id).load(Ordering::Relaxed) & 1 == 1,
            "unlocking unheld stripe"
        );
        self.word(id).store(seen.0 & !1, Ordering::Release);
    }

    /// Validates that the stripe still matches the snapshot a reader took.
    ///
    /// Passes if the word is identical to the snapshot (same version,
    /// still unlocked). A stripe locked by the validating transaction
    /// itself must be checked via the caller's own write set instead.
    #[must_use]
    pub fn validate(&self, id: StripeId, seen: StripeSnapshot) -> bool {
        self.word(id).load(Ordering::Acquire) == seen.0
    }

    /// Prefetches the word of the stripe covering `addr`.
    #[inline]
    pub(crate) fn prefetch_word(&self, addr: usize) {
        prefetch(self.word(self.stripe_of_addr(addr)).as_ptr().cast());
    }
}

/// Asks the CPU to bring the line holding `ptr` into its caches. A hint:
/// it never faults, reads nothing a program can see and writes nothing.
/// Does nothing off x86-64.
#[inline]
pub(crate) fn prefetch(ptr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` takes any address, mapped or not, and has no
    // architectural effect.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_line_same_stripe() {
        let t = StripeTable::new(10);
        // Two addresses in the same 64-byte line must collide.
        assert_eq!(t.stripe_of_addr(0x1000), t.stripe_of_addr(0x103F));
        // Adjacent lines should (for this hash and table size) differ.
        assert_ne!(t.stripe_of_addr(0x1000), t.stripe_of_addr(0x1040));
    }

    #[test]
    fn lock_unlock_cycle() {
        let t = StripeTable::new(4);
        let id = t.stripe_of_addr(0x40);
        let snap = t.load(id);
        assert!(!snap.is_locked());
        assert_eq!(snap.version(), 0);
        assert_eq!(t.try_lock_current(id), Some(snap));
        // Second lock attempt fails while held.
        assert!(t.try_lock_current(id).is_none());
        t.unlock_with_version(id, 7);
        let snap = t.load(id);
        assert!(!snap.is_locked());
        assert_eq!(snap.version(), 7);
    }

    #[test]
    fn validate_detects_version_change() {
        let t = StripeTable::new(4);
        let id = StripeId(3);
        let seen = t.load(id);
        assert!(t.validate(id, seen));
        let held = t.try_lock_current(id).unwrap();
        assert!(!t.validate(id, seen), "locked stripe must fail validation");
        t.unlock_with_version(id, held.version() + 1);
        assert!(!t.validate(id, seen), "bumped version must fail validation");
    }

    #[test]
    fn unlock_restore_preserves_version() {
        let t = StripeTable::new(4);
        let id = StripeId(1);
        t.try_lock_current(id).unwrap();
        t.unlock_with_version(id, 41);
        let seen = t.try_lock_current(id).unwrap();
        t.unlock_restore(id, seen);
        assert_eq!(t.load(id).version(), 41);
        assert!(!t.load(id).is_locked());
    }
}
