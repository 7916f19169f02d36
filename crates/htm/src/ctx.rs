//! Reusable per-thread transaction contexts — the allocation-free hot
//! path.
//!
//! A hardware transaction costs nothing to *start*: `xbegin` checkpoints
//! registers, and the cache itself is the read/write set. The first
//! version of this engine paid a `HashMap` + `HashSet` + `Vec` heap
//! allocation per attempt instead, which dominated every uncontended
//! section (the `hotpath` bin prints it). This module replaces those with a
//! [`TxContext`]: one preallocated arena per OS thread, checked out by
//! [`acquire`] at `Tx::fast` and returned by [`release`] at
//! commit/rollback, so a steady-state section allocates nothing.
//!
//! Layout choices, and why:
//!
//! * **Write set**: an open-addressed table of [`WriteSlot`]s keyed by
//!   cell address ([`WRITE_TABLE_SLOTS`] slots, at most
//!   [`MAX_WRITE_ENTRIES`] live entries so the load factor stays ≤ 0.5
//!   and linear probes stay short). Write sets of ≤ 8 entries — the
//!   overwhelming majority of real sections — skip hashing entirely and
//!   linear-scan the insertion-order list.
//! * **Inline staged values**: each slot stores the staged value in a
//!   32-byte, 8-aligned buffer ([`INLINE_VALUE_BYTES`]) plus a
//!   monomorphized write-back function pointer, replacing the old
//!   `Box<dyn WriteSlot>` per write. Values that do not fit abort with
//!   `AbortCause::Capacity` — on hardware, too, unfriendly data aborts.
//! * **Epoch reset**: slots carry a generation tag; [`TxContext::reset`]
//!   bumps the context generation instead of touching 4096 slots, so
//!   reuse is O(live vectors), not O(table).
//! * **Commit order**: distinct write stripes are kept sorted (binary-
//!   search insertion at write time) in a preallocated buffer, so commit
//!   acquires stripe locks in deadlock-free order without the old
//!   collect-into-a-fresh-`Vec`-then-sort step.
//!
//! Capacities are *physical* bounds of the arena; the modeled HTM bounds
//! in [`HtmConfig`](crate::HtmConfig) are clamped to them. Overflowing a
//! physical bound maps to the paper's capacity-abort cause (which the
//! perceptron already learns from) and bumps a dedicated statistic so the
//! two are distinguishable in telemetry.

use std::cell::Cell;

use crate::gate::{CommitSlot, LockWord, SLOT_WORDS};
use crate::stripe::{StripeId, StripeSnapshot};

/// log2 of [`WRITE_TABLE_SLOTS`].
const WRITE_TABLE_BITS: u32 = 12;
/// Open-addressed write-table size (power of two).
pub(crate) const WRITE_TABLE_SLOTS: usize = 1 << WRITE_TABLE_BITS;
/// Hard cap on distinct staged writes (≤ 50% table load).
pub(crate) const MAX_WRITE_ENTRIES: usize = WRITE_TABLE_SLOTS / 2;
/// Hard cap on read-set entries.
pub(crate) const MAX_READ_ENTRIES: usize = 4096;
/// Hard cap on distinct written cache lines.
pub(crate) const MAX_WRITE_LINES: usize = 512;
/// Hard cap on lock-word subscriptions: what one [`CommitSlot`] can
/// announce (nesting is capped at 7, so 15 leaves slack for mixed
/// read/write elision in one flat transaction).
pub(crate) const MAX_SUBS: usize = SLOT_WORDS;
/// Staged values are stored inline up to this many bytes…
pub const INLINE_VALUE_BYTES: usize = 32;
/// …with at most this alignment (the buffer is `[u64; 4]`).
pub const INLINE_VALUE_ALIGN: usize = 8;
const INLINE_VALUE_WORDS: usize = INLINE_VALUE_BYTES / 8;
/// Write sets at or below this size are probed by linear scan over the
/// insertion order instead of hashing.
const SMALL_WRITE_SCAN: usize = 8;

/// One validated read: the stripe and the snapshot it must still match.
pub(crate) struct ReadEntry {
    pub(crate) stripe: StripeId,
    pub(crate) seen: StripeSnapshot,
}

/// # Safety
///
/// Only used as the write-back for never-claimed slots; never invoked.
unsafe fn write_back_unset(_dst: *mut u8, _src: *const u8) {
    unreachable!("write-back of an unclaimed slot");
}

/// One staged write: target address, its stripe, the staged bytes and a
/// monomorphized write-back that knows the erased type.
pub(crate) struct WriteSlot {
    /// Slot is live iff this equals the owning context's generation.
    gen: u64,
    /// The target `TxVar`'s value address (the write-set key).
    pub(crate) addr: usize,
    /// Stripe covering `addr` (cached at insert).
    pub(crate) stripe: StripeId,
    /// Volatile-stores the staged bytes to the target under the stripe
    /// lock. Monomorphized per `T` by `Tx::write`.
    ///
    /// # Safety
    ///
    /// `dst` must be the `TxVar<T>` value pointer this slot was staged
    /// for and `src` must point at a valid staged `T` (the slot buffer).
    pub(crate) write_back: unsafe fn(dst: *mut u8, src: *const u8),
    /// Inline staged value storage (size ≤ 32, align ≤ 8).
    pub(crate) buf: [u64; INLINE_VALUE_WORDS],
}

/// A reusable transaction arena. See the module docs for layout.
///
/// The raw `LockWord` pointers in `subs` (and the raw addresses in the
/// write set) make this deliberately `!Send`/`!Sync`: a context belongs
/// to the thread that checked it out, like an HTM context belongs to a
/// core.
pub(crate) struct TxContext {
    /// Current generation; slots with a different tag are free.
    gen: u64,
    /// The open-addressed write table.
    pub(crate) slots: Box<[WriteSlot]>,
    /// Live slot indices in insertion order (write-back iteration and
    /// the small-set linear-scan path).
    pub(crate) order: Vec<u32>,
    /// The read set.
    pub(crate) reads: Vec<ReadEntry>,
    /// Distinct written cache lines, sorted (the modeled L1D bound).
    pub(crate) lines: Vec<usize>,
    /// Distinct write stripes, sorted — commit's lock-acquisition order.
    pub(crate) stripes: Vec<StripeId>,
    /// Commit-time scratch: stripes actually locked, with pre-lock
    /// snapshots, in `stripes` order (so it stays sorted).
    pub(crate) held: Vec<(StripeId, StripeSnapshot)>,
    /// Lock-word subscriptions (§5.4) as raw pointers: the context is
    /// thread-owned storage and carries no lifetime; `Tx<'a>` guarantees
    /// the words outlive every dereference.
    pub(crate) subs: Vec<(*const LockWord, u64)>,
    /// Where this arena's writing commits announce themselves to slow-path
    /// acquirers, registered once, here. `None` when the registry is full:
    /// such an arena cannot commit writes under a subscription.
    slot: Option<&'static CommitSlot>,
}

impl TxContext {
    pub(crate) fn new() -> Box<TxContext> {
        let slots: Box<[WriteSlot]> = (0..WRITE_TABLE_SLOTS)
            .map(|_| WriteSlot {
                gen: 0,
                addr: 0,
                stripe: StripeId(0),
                write_back: write_back_unset,
                buf: [0; INLINE_VALUE_WORDS],
            })
            .collect();
        Box::new(TxContext {
            gen: 1,
            slots,
            order: Vec::with_capacity(MAX_WRITE_ENTRIES),
            reads: Vec::with_capacity(MAX_READ_ENTRIES),
            lines: Vec::with_capacity(MAX_WRITE_LINES),
            stripes: Vec::with_capacity(MAX_WRITE_LINES),
            held: Vec::with_capacity(MAX_WRITE_LINES),
            subs: Vec::with_capacity(MAX_SUBS),
            slot: CommitSlot::claim(),
        })
    }

    /// The current generation: differs between any two attempts this arena
    /// serves.
    pub(crate) fn generation(&self) -> u64 {
        self.gen
    }

    /// Announces every subscribed lock word in this arena's commit slot.
    /// Must precede the commit's final lock-word validation. `false` when
    /// there is something to announce and no slot to announce it in.
    pub(crate) fn announce_commit(&self) -> bool {
        let Some(slot) = self.slot else {
            return self.subs.is_empty();
        };
        for (n, &(lock, _)) in self.subs.iter().enumerate() {
            slot.announce(n, lock);
        }
        true
    }

    /// Gives the slot back early: the arena then stands for one built while
    /// the registry was full.
    #[cfg(test)]
    pub(crate) fn forfeit_slot(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.release();
        }
    }

    /// Clears what [`Self::announce_commit`] stored, after write-back.
    pub(crate) fn retract_commit(&self) {
        if let Some(slot) = self.slot {
            slot.retract(self.subs.len());
        }
    }

    /// O(1) wipe: bump the generation (freeing every table slot) and
    /// clear the live vectors (`Copy` contents, so no drop work).
    pub(crate) fn reset(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // A 2^64 generation wrap cannot happen in practice, but if it
            // did, stale slots tagged 0 would look live: hard-clear once.
            for s in self.slots.iter_mut() {
                s.gen = 0;
            }
            self.gen = 1;
        }
        self.order.clear();
        self.reads.clear();
        self.lines.clear();
        self.stripes.clear();
        self.held.clear();
        self.subs.clear();
    }

    /// Whether the context holds no transaction state (post-reset).
    pub(crate) fn is_clean(&self) -> bool {
        self.order.is_empty()
            && self.reads.is_empty()
            && self.lines.is_empty()
            && self.stripes.is_empty()
            && self.held.is_empty()
            && self.subs.is_empty()
    }

    #[inline]
    fn hash_probe(&self, addr: usize) -> (u32, bool) {
        // Fibonacci hash of the address; linear probe. Load ≤ 0.5 plus
        // no in-generation deletions guarantee termination at either the
        // entry or the first free slot.
        let mut i =
            ((addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - WRITE_TABLE_BITS)) as usize;
        loop {
            let slot = &self.slots[i];
            if slot.gen != self.gen {
                return (i as u32, false);
            }
            if slot.addr == addr {
                return (i as u32, true);
            }
            i = (i + 1) & (WRITE_TABLE_SLOTS - 1);
        }
    }

    /// Read-your-own-write lookup: `None` on a miss without probing the
    /// table when the write set is empty or small.
    #[inline]
    pub(crate) fn lookup(&self, addr: usize) -> Option<u32> {
        let n = self.order.len();
        if n == 0 {
            return None;
        }
        if n <= SMALL_WRITE_SCAN {
            return self
                .order
                .iter()
                .copied()
                .find(|&i| self.slots[i as usize].addr == addr);
        }
        let (idx, found) = self.hash_probe(addr);
        found.then_some(idx)
    }

    /// Write-path probe: `(slot index, found)`. On a miss the index is
    /// the vacant slot an insert must claim.
    #[inline]
    pub(crate) fn find_for_write(&self, addr: usize) -> (u32, bool) {
        if self.order.len() <= SMALL_WRITE_SCAN {
            for &i in &self.order {
                if self.slots[i as usize].addr == addr {
                    return (i, true);
                }
            }
            let (idx, found) = self.hash_probe(addr);
            debug_assert!(!found, "scan missed an entry the table has");
            return (idx, false);
        }
        self.hash_probe(addr)
    }

    /// Claims a vacant slot returned by [`Self::find_for_write`]. The
    /// caller writes the staged value into the returned slot's `buf`.
    #[inline]
    pub(crate) fn claim(
        &mut self,
        idx: u32,
        addr: usize,
        stripe: StripeId,
        write_back: unsafe fn(*mut u8, *const u8),
    ) -> &mut WriteSlot {
        debug_assert!(self.order.len() < MAX_WRITE_ENTRIES, "claim past cap");
        self.order.push(idx);
        let gen = self.gen;
        let slot = &mut self.slots[idx as usize];
        debug_assert!(slot.gen != gen, "claiming a live slot");
        slot.gen = gen;
        slot.addr = addr;
        slot.stripe = stripe;
        slot.write_back = write_back;
        slot
    }

    /// Records a written cache line against `limit` (the modeled L1D
    /// bound, already clamped to [`MAX_WRITE_LINES`]). `Ok(true)` = new
    /// line, `Ok(false)` = already tracked, `Err(())` = over budget.
    #[inline]
    pub(crate) fn note_write_line(&mut self, line: usize, limit: usize) -> Result<bool, ()> {
        match self.lines.binary_search(&line) {
            Ok(_) => Ok(false),
            Err(pos) => {
                if self.lines.len() >= limit {
                    return Err(());
                }
                self.lines.insert(pos, line);
                Ok(true)
            }
        }
    }

    /// Adds a write stripe to the sorted commit-order buffer (idempotent).
    #[inline]
    pub(crate) fn note_stripe(&mut self, stripe: StripeId) {
        if let Err(pos) = self.stripes.binary_search(&stripe) {
            self.stripes.insert(pos, stripe);
        }
    }
}

impl Drop for TxContext {
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            slot.release();
        }
    }
}

thread_local! {
    /// At most one cached context per thread. `const`-initialized so the
    /// first access performs no lazy-init bookkeeping.
    static CACHED: Cell<Option<Box<TxContext>>> = const { Cell::new(None) };
}

/// Checks out this thread's context (or builds one, first use only).
/// Returns `(context, reused)`.
pub(crate) fn acquire() -> (Box<TxContext>, bool) {
    match CACHED.try_with(Cell::take) {
        Ok(Some(ctx)) => {
            debug_assert!(ctx.is_clean(), "cached context not reset");
            (ctx, true)
        }
        // Slot empty (first use, or an overlapping transaction holds the
        // context) or TLS already destroyed: build a fresh arena.
        Ok(None) | Err(_) => (TxContext::new(), false),
    }
}

/// Resets `ctx` and caches it for this thread's next transaction. When
/// the slot is already occupied (overlapping transactions released out
/// of order) the extra context is simply dropped.
pub(crate) fn release(mut ctx: Box<TxContext>) {
    ctx.reset();
    let _ = CACHED.try_with(move |c| {
        let existing = c.take();
        if existing.is_none() {
            c.set(Some(ctx));
        } else {
            c.set(existing);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    unsafe fn wb_u64(dst: *mut u8, src: *const u8) {
        // SAFETY: test-only; caller passes matching u64 pointers.
        unsafe { dst.cast::<u64>().write(*src.cast::<u64>()) }
    }

    #[test]
    fn insert_lookup_roundtrip_across_the_small_scan_boundary() {
        let mut ctx = TxContext::new();
        // Addresses 8 apart (same line is fine here; lines are separate).
        let addrs: Vec<usize> = (0..64).map(|i| 0x10_0000 + i * 8).collect();
        for (n, &addr) in addrs.iter().enumerate() {
            let (idx, found) = ctx.find_for_write(addr);
            assert!(!found, "fresh addr reported found at n={n}");
            let slot = ctx.claim(idx, addr, StripeId(0), wb_u64);
            slot.buf[0] = addr as u64;
        }
        for &addr in &addrs {
            let idx = ctx.lookup(addr).expect("inserted addr must be found");
            assert_eq!(ctx.slots[idx as usize].buf[0], addr as u64);
            let (widx, found) = ctx.find_for_write(addr);
            assert!(found);
            assert_eq!(widx, idx);
        }
        assert_eq!(ctx.lookup(0xdead_0000), None);
        assert_eq!(ctx.order.len(), 64);
    }

    #[test]
    fn reset_frees_every_slot_without_touching_the_table() {
        let mut ctx = TxContext::new();
        for i in 0..100usize {
            let addr = 0x20_0000 + i * 8;
            let (idx, found) = ctx.find_for_write(addr);
            assert!(!found);
            ctx.claim(idx, addr, StripeId(0), wb_u64);
        }
        ctx.reads.push(ReadEntry {
            stripe: StripeId(1),
            seen: StripeSnapshot(0),
        });
        ctx.note_write_line(42, MAX_WRITE_LINES).unwrap();
        ctx.note_stripe(StripeId(7));
        ctx.reset();
        assert!(ctx.is_clean());
        for i in 0..100usize {
            assert_eq!(ctx.lookup(0x20_0000 + i * 8), None, "stale entry visible");
        }
    }

    #[test]
    fn lines_and_stripes_stay_sorted_and_deduped() {
        let mut ctx = TxContext::new();
        for line in [5usize, 1, 9, 5, 3, 1] {
            ctx.note_write_line(line, 4).unwrap();
        }
        assert_eq!(ctx.lines, vec![1, 3, 5, 9]);
        assert_eq!(ctx.note_write_line(7, 4), Err(()), "over the limit");
        assert_eq!(ctx.note_write_line(3, 4), Ok(false), "dup is still fine");
        for s in [8u32, 2, 8, 0, 2] {
            ctx.note_stripe(StripeId(s));
        }
        assert_eq!(ctx.stripes, vec![StripeId(0), StripeId(2), StripeId(8)]);
    }

    #[test]
    fn acquire_release_reuses_one_context_per_thread() {
        // Drain any context cached by other tests on this thread.
        let (first, _) = acquire();
        let first_ptr = &*first as *const TxContext as usize;
        release(first);
        let (second, reused) = acquire();
        assert!(reused, "released context must be reused");
        assert_eq!(&*second as *const TxContext as usize, first_ptr);
        // Overlapping acquire gets a fresh arena…
        let (third, reused) = acquire();
        assert!(!reused);
        release(second);
        // …and releasing it into an occupied slot drops it.
        release(third);
        let (fourth, reused) = acquire();
        assert!(reused);
        assert_eq!(&*fourth as *const TxContext as usize, first_ptr);
        release(fourth);
    }

    #[test]
    fn contexts_are_fresh_per_thread() {
        let (a, _) = acquire();
        let a_ptr = &*a as *const TxContext as usize;
        release(a);
        std::thread::spawn(move || {
            let (b, reused) = acquire();
            assert!(!reused, "new thread must not see another thread's arena");
            assert_ne!(&*b as *const TxContext as usize, a_ptr);
            release(b);
        })
        .join()
        .unwrap();
    }
}
