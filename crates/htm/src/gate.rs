//! Lock-word subscription and slow-path/fast-path commit interoperation.
//!
//! The paper (§5.4) elides a lock by having the fast path *subscribe* to the
//! lock word: "the act of checking adds the lock word to the transaction
//! read-set, and hence, if a concurrent execution on the slowpath acquires
//! the same lock during the transaction, the fastpath immediately aborts".
//! An elided section therefore only ever *reads* the lock's cache line; the
//! only writers of a [`LockWord`] are the slow-path entry and exit calls.
//!
//! In the software simulation, a committing transaction's write-back is not
//! instantaneous the way a hardware commit is, so in addition to the
//! versioned lock word this module provides a *commit gate*: a slow-path
//! acquirer (writer **or** reader) waits for in-flight fast-path write-backs
//! on the same lock to drain before entering its critical section.
//!
//! The gate is an announcement, not a count on the lock. Every transaction
//! arena owns one [`CommitSlot`], a 128-byte line of its own in a
//! process-global registry. A writing commit stores the address of every
//! word it subscribed to into its slot *before* its final lock-word
//! validation and clears the slot after write-back; a slow-path acquirer
//! bumps the word and *then* scans the registry until no slot names the
//! word. Both sides are `SeqCst`, so (Dekker) either the committer sees the
//! bumped word and aborts, or the acquirer sees the announcement and
//! waits: slow-path owners always observe fully committed state. Who
//! writes which line on the fast path: the committer its own slot, nobody
//! the lock's.
//!
//! The word also models `sync.RWMutex`: it carries a writer-held bit and a
//! slow-path reader count, because eliding a *read* lock must tolerate
//! concurrent slow readers (they do not conflict) while eliding a *write*
//! lock must abort if any slow reader is present.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Writer-held flag (bit 0).
const WRITER_BIT: u64 = 1;
/// One slow-path reader (bits 1..=20).
const READER_UNIT: u64 = 1 << 1;
/// Mask extracting the reader count.
const READER_MASK: u64 = ((1 << 20) - 1) << 1;
/// One version increment (bits 21..).
const VERSION_UNIT: u64 = 1 << 21;

/// The elidable lock word.
///
/// Layout of `word`: bit 0 is the writer-held flag, bits 1..=20 count
/// slow-path readers, bits 63:21 are a version that changes on every
/// slow-path acquire and release, so transactional subscribers detect any
/// slow-path activity overlapping their execution — exactly like the lock's
/// cache line sitting in a hardware transaction's read set.
#[derive(Debug, Default)]
pub struct LockWord {
    word: AtomicU64,
}

/// Lock-word addresses one [`CommitSlot`] can announce: with the in-use
/// flag the slot fills its 128 bytes exactly.
pub(crate) const SLOT_WORDS: usize = 15;

/// Registry capacity. Slots are zero-initialised statics, so the ones never
/// claimed cost no resident memory.
const MAX_SLOTS: usize = 1024;

/// One transaction arena's commit announcement: the addresses of the lock
/// words whose write-back is in flight (0 = none), on a line no other
/// thread writes.
#[repr(align(128))]
pub(crate) struct CommitSlot {
    words: [AtomicUsize; SLOT_WORDS],
    in_use: AtomicBool,
}

const _: () = assert!(std::mem::size_of::<CommitSlot>() == 128);

/// The registry: `SLOTS[..REGISTERED]` have been handed out at least once.
/// Append-only (`REGISTERED` only grows) and never freed; a dropped arena
/// returns its slot through `in_use`, so the length follows the peak number
/// of live arenas, not thread churn.
static SLOTS: [CommitSlot; MAX_SLOTS] = [const { CommitSlot::new() }; MAX_SLOTS];
static REGISTERED: AtomicUsize = AtomicUsize::new(0);

impl CommitSlot {
    const fn new() -> Self {
        CommitSlot {
            words: [const { AtomicUsize::new(0) }; SLOT_WORDS],
            in_use: AtomicBool::new(false),
        }
    }

    /// Claims a registered slot nobody uses, growing the registry by one
    /// when there is none. `None` once all [`MAX_SLOTS`] are in use.
    pub(crate) fn claim() -> Option<&'static CommitSlot> {
        loop {
            let len = REGISTERED.load(Ordering::SeqCst);
            let free = SLOTS[..len].iter().find(|s| {
                s.in_use
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            });
            if free.is_some() || len == MAX_SLOTS {
                return free;
            }
            // Whoever wins this, the rescan sees the new slot.
            let _ = REGISTERED.compare_exchange(len, len + 1, Ordering::SeqCst, Ordering::SeqCst);
        }
    }

    /// Returns the slot to the registry (its arena is being dropped).
    pub(crate) fn release(&self) {
        debug_assert!(
            self.words.iter().all(|w| w.load(Ordering::SeqCst) == 0),
            "arena dropped between a commit's announcement and its retraction"
        );
        self.in_use.store(false, Ordering::SeqCst);
    }

    /// Announces a write-back under the `n`-th subscription of the commit;
    /// a commit announces `0..n` in order ([`LockWord::drain`] stops at a
    /// slot's first empty word).
    ///
    /// `SeqCst`, and before the commit's final [`LockWord::validate`]: the
    /// store half of the Dekker pairing with [`LockWord::drain`].
    #[inline]
    pub(crate) fn announce(&self, n: usize, lock: *const LockWord) {
        self.words[n].store(lock as usize, Ordering::SeqCst);
    }

    /// Clears the first `n` announcements, after write-back (or instead of
    /// it). `Release` pairs with the `SeqCst` load in [`LockWord::drain`]:
    /// an acquirer that sees the slot clear sees the write-back.
    #[inline]
    pub(crate) fn retract(&self, n: usize) {
        for w in &self.words[..n] {
            w.store(0, Ordering::Release);
        }
    }
}

/// `(registered, in_use)`: how many commit slots the process has ever handed
/// out at once, and how many belong to a live transaction arena right now.
#[must_use]
pub fn commit_slot_usage() -> (usize, usize) {
    let len = REGISTERED.load(Ordering::SeqCst);
    let in_use = SLOTS[..len]
        .iter()
        .filter(|s| s.in_use.load(Ordering::SeqCst))
        .count();
    (len, in_use)
}

impl LockWord {
    /// Creates a released lock word at version 0.
    #[must_use]
    pub fn new() -> Self {
        LockWord::default()
    }

    /// Whether a slow-path writer currently holds the lock.
    #[must_use]
    pub fn is_write_held(&self) -> bool {
        self.word.load(Ordering::SeqCst) & WRITER_BIT != 0
    }

    /// Number of slow-path readers currently inside the lock.
    #[must_use]
    pub fn slow_readers(&self) -> u64 {
        (self.word.load(Ordering::SeqCst) & READER_MASK) >> 1
    }

    /// Snapshot of the raw word for transactional subscription.
    #[must_use]
    pub fn observe(&self) -> u64 {
        self.word.load(Ordering::SeqCst)
    }

    /// Whether a snapshot shows the lock unavailable to a *write* elision
    /// (writer held or slow readers present).
    #[must_use]
    pub fn snapshot_blocks_write(snapshot: u64) -> bool {
        snapshot & (WRITER_BIT | READER_MASK) != 0
    }

    /// Whether a snapshot shows the lock unavailable to a *read* elision
    /// (writer held; slow readers are compatible).
    #[must_use]
    pub fn snapshot_blocks_read(snapshot: u64) -> bool {
        snapshot & WRITER_BIT != 0
    }

    /// Validates that the word has not changed since `seen` was observed.
    #[must_use]
    pub fn validate(&self, seen: u64) -> bool {
        self.word.load(Ordering::SeqCst) == seen
    }

    /// Marks the lock held by a slow-path writer (after the real mutex was
    /// acquired) and drains in-flight fast-path commits.
    pub fn mark_held_and_drain(&self) {
        let prev = self
            .word
            .fetch_add(WRITER_BIT + VERSION_UNIT, Ordering::SeqCst);
        debug_assert_eq!(prev & WRITER_BIT, 0, "lock word already writer-held");
        self.drain();
    }

    /// Clears the writer-held bit on slow-path release (bumps the version).
    pub fn clear_held(&self) {
        let prev = self
            .word
            .fetch_add(VERSION_UNIT.wrapping_sub(WRITER_BIT), Ordering::SeqCst);
        debug_assert_eq!(prev & WRITER_BIT, WRITER_BIT, "releasing unheld lock word");
    }

    /// Registers a slow-path reader (after the real `RLock` succeeded) and
    /// drains in-flight fast-path commits, which may be writers.
    pub fn reader_enter_and_drain(&self) {
        self.word
            .fetch_add(READER_UNIT + VERSION_UNIT, Ordering::SeqCst);
        self.drain();
    }

    /// Deregisters a slow-path reader (bumps the version).
    pub fn reader_exit(&self) {
        let prev = self
            .word
            .fetch_add(VERSION_UNIT.wrapping_sub(READER_UNIT), Ordering::SeqCst);
        debug_assert!(prev & READER_MASK != 0, "reader_exit without reader");
    }

    fn drain(&self) {
        // Wait for fast-path write-backs that validated before our bump:
        // their announcement was stored before that validation, so one
        // pass over the registry sees it, at a position it keeps until the
        // write-back is done. Anything announced afterwards fails
        // validation and retracts without writing. A commit announces from
        // word 0 up and retracts only after its write-back, so the first
        // empty word ends a slot: an idle slot costs one load. Spin
        // briefly, then yield — on oversubscribed machines the committer
        // needs the CPU to finish its write-back.
        let me = std::ptr::from_ref(self) as usize;
        let len = REGISTERED.load(Ordering::SeqCst);
        let mut spins = 0u32;
        for slot in &SLOTS[..len] {
            for w in &slot.words {
                let mut named = w.load(Ordering::SeqCst);
                while named == me {
                    spins += 1;
                    if spins.is_multiple_of(64) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                    named = w.load(Ordering::SeqCst);
                }
                if named == 0 {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_cycle_bumps_version() {
        let lw = LockWord::new();
        assert!(!lw.is_write_held());
        let v0 = lw.observe();
        lw.mark_held_and_drain();
        assert!(lw.is_write_held());
        assert!(!lw.validate(v0));
        lw.clear_held();
        assert!(!lw.is_write_held());
        // Version moved twice (acquire + release), flags are clear.
        assert_eq!(lw.observe(), v0 + 2 * VERSION_UNIT);
    }

    #[test]
    fn reader_cycle_counts_and_bumps() {
        let lw = LockWord::new();
        let v0 = lw.observe();
        lw.reader_enter_and_drain();
        lw.reader_enter_and_drain();
        assert_eq!(lw.slow_readers(), 2);
        assert!(!lw.is_write_held());
        assert!(!lw.validate(v0), "reader entry must invalidate subscribers");
        lw.reader_exit();
        lw.reader_exit();
        assert_eq!(lw.slow_readers(), 0);
    }

    #[test]
    fn snapshot_compatibility_rules() {
        let lw = LockWord::new();
        let free = lw.observe();
        assert!(!LockWord::snapshot_blocks_read(free));
        assert!(!LockWord::snapshot_blocks_write(free));
        lw.reader_enter_and_drain();
        let with_reader = lw.observe();
        assert!(
            !LockWord::snapshot_blocks_read(with_reader),
            "readers tolerate slow readers"
        );
        assert!(
            LockWord::snapshot_blocks_write(with_reader),
            "writers must abort on readers"
        );
        lw.reader_exit();
        lw.mark_held_and_drain();
        let with_writer = lw.observe();
        assert!(LockWord::snapshot_blocks_read(with_writer));
        assert!(LockWord::snapshot_blocks_write(with_writer));
        lw.clear_held();
    }

    /// Runs `acquire` on another thread and checks it returns only after
    /// `slot` retracts its first `announced` words.
    fn assert_blocks_until_retract(
        slot: &CommitSlot,
        announced: usize,
        lw: &LockWord,
        acquire: fn(&LockWord),
    ) {
        let seen = lw.observe();
        let drained = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                acquire(lw);
                drained.store(true, Ordering::SeqCst);
            });
            // The acquirer has bumped the word, so it is in (or about to
            // enter) the drain scan; give it time to get past it wrongly.
            while lw.validate(seen) {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(
                !drained.load(Ordering::SeqCst),
                "drain must wait while a commit on this word is announced"
            );
            slot.retract(announced);
        });
        assert!(drained.load(Ordering::SeqCst));
    }

    #[test]
    fn drain_waits_for_an_announced_commit() {
        let slot = CommitSlot::claim().expect("registry has room");
        let lw = LockWord::new();
        slot.announce(0, &lw);
        assert_blocks_until_retract(slot, 1, &lw, LockWord::mark_held_and_drain);
        assert!(lw.is_write_held());
        lw.clear_held();
        // A word nobody announces drains at once, whatever else is live.
        let other = LockWord::new();
        slot.announce(0, &lw);
        other.mark_held_and_drain();
        other.clear_held();
        slot.retract(1);
        slot.release();
    }

    #[test]
    fn drain_on_either_word_waits_for_a_two_subscription_commit() {
        // Nested locks: one commit, two subscribed words, both announced.
        let slot = CommitSlot::claim().expect("registry has room");
        let (outer, inner) = (LockWord::new(), LockWord::new());
        for (word, acquire) in [
            (&outer, LockWord::mark_held_and_drain as fn(&LockWord)),
            (&inner, LockWord::reader_enter_and_drain),
        ] {
            slot.announce(0, &outer);
            slot.announce(1, &inner);
            assert_blocks_until_retract(slot, 2, word, acquire);
        }
        assert!(outer.is_write_held());
        assert_eq!(inner.slow_readers(), 1);
        slot.release();
    }

    #[test]
    fn subscription_sees_slow_acquire() {
        let lw = LockWord::new();
        let seen = lw.observe();
        lw.mark_held_and_drain();
        assert!(!lw.validate(seen));
        lw.clear_held();
        // Even after release the version differs — overlap is detected.
        assert!(!lw.validate(seen));
    }
}
