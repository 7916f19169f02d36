//! Transaction contexts: the TL2-style speculation engine and the direct
//! (slow-path) execution mode.
//!
//! Per-attempt state lives in a reusable thread-local arena
//! ([`crate::ctx`]); a steady-state fast-path attempt performs no heap
//! allocation. See DESIGN.md §10 for the memory layout.

use crate::abort::{Abort, AbortCause, TxResult, LOCK_HELD_CODE};
use crate::ctx::{self, ReadEntry, TxContext};
use crate::gate::LockWord;
use crate::runtime::HtmRuntime;
use crate::stripe::{StripeId, StripeSnapshot, CACHE_LINE};
use crate::txvar::TxVar;

/// How a transaction context executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxMode {
    /// Speculative HTM execution: reads validated, writes buffered.
    Fast,
    /// Direct execution under the real mutex (the fall-back path).
    Direct,
}

/// What kind of lock acquisition a subscription elides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Elision {
    /// Eliding a shared/read acquisition (`RLock`).
    Read,
    /// Eliding an exclusive acquisition (`Lock`).
    Write,
}

/// Bounded attempts when spinning on a stripe briefly held by a committer.
const STRIPE_SPIN_ATTEMPTS: usize = 64;

/// Monomorphized write-back: volatile-stores the staged `T` at `src`
/// (a slot buffer) to the `TxVar<T>` value pointer `dst`.
///
/// # Safety
///
/// `dst` must point at the `TxVar<T>` this write was staged for (with its
/// stripe lock held, per [`TxVar::store_locked`]'s contract) and `src` at
/// a valid `T` with at least `T`'s alignment.
unsafe fn write_back_erased<T: Copy>(dst: *mut u8, src: *const u8) {
    // SAFETY: per this function's contract; volatile mirrors
    // `TxVar::store_locked` so concurrent seqlock readers discard torn
    // copies.
    unsafe { std::ptr::write_volatile(dst.cast::<T>(), std::ptr::read(src.cast::<T>())) }
}

/// A transaction context.
///
/// Fast-path contexts ([`Tx::fast`]) speculate: reads are validated against
/// the global clock, writes are buffered and only published by
/// [`Tx::commit`]. Direct contexts ([`Tx::direct`]) access memory in place
/// and are used while the guarding mutex is held, so the same critical
/// section body runs on either path.
///
/// Once any operation returns an [`Abort`], the context is *doomed*: every
/// later operation (including commit) returns the same abort. This is the
/// safe-Rust rendering of the hardware rollback-to-`xbegin`.
pub struct Tx<'a> {
    rt: &'a HtmRuntime,
    mode: TxMode,
    /// Read version: clock snapshot the speculation is consistent with.
    rv: u64,
    /// The reusable arena (fast mode only; direct mode touches no
    /// transactional state and no thread-local).
    ctx: Option<Box<TxContext>>,
    /// Whether `ctx` came out of the thread-local cache.
    ctx_reused: bool,
    /// Sticky flag: a *physical* arena bound (not the modeled HTM
    /// capacity) forced a capacity abort.
    overflowed: bool,
    /// Modeled read-set bound, clamped to the arena's physical capacity.
    max_reads: usize,
    /// Modeled write-line bound, clamped to the arena's physical capacity.
    max_lines: usize,
    depth: usize,
    doomed: Option<AbortCause>,
    rng: u64,
    spurious_threshold: u64,
    /// Fault-injection key: the elided call site, installed by the layer
    /// above (`optilock`) right after `Tx::fast`. 0 = "unknown site".
    fault_site: usize,
    /// Whether this attempt already consumed its injection draw. One draw
    /// per attempt keeps the injected rate per-attempt (not per-op) and
    /// makes injected counts equal doomed-attempt counts.
    fault_pending: bool,
}

impl<'a> Tx<'a> {
    /// Begins a fast-path (speculative) transaction.
    ///
    /// Records nothing in [`crate::HtmStats`] (a fresh arena aside): the
    /// attempt is counted once, when it commits, aborts or is dropped.
    #[must_use]
    pub fn fast(rt: &'a HtmRuntime) -> Self {
        let rv = rt.clock().now();
        let params = rt.attempt();
        let (ctx, ctx_reused) = ctx::acquire();
        if !ctx_reused {
            rt.stats().record_ctx_fresh();
        }
        // Seeded from the clock and the arena's generation: the clock
        // stands still through read-only phases, and a retry must not
        // replay the draws that aborted the attempt before it.
        let seed = rv.wrapping_add(ctx.generation().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Tx {
            rt,
            mode: TxMode::Fast,
            rv,
            ctx: Some(ctx),
            ctx_reused,
            overflowed: false,
            max_reads: params.max_reads,
            max_lines: params.max_lines,
            depth: 1,
            doomed: None,
            rng: seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x9E37_79B9,
            spurious_threshold: params.spurious_threshold,
            fault_site: 0,
            fault_pending: params.fault_pending,
        }
    }

    /// Begins a direct (slow-path) context. The caller must hold the real
    /// mutex guarding every `TxVar` the section accesses.
    #[must_use]
    pub fn direct(rt: &'a HtmRuntime) -> Self {
        rt.stats().record_direct();
        Tx {
            rt,
            mode: TxMode::Direct,
            rv: 0,
            ctx: None,
            ctx_reused: false,
            overflowed: false,
            max_reads: 0,
            max_lines: 0,
            depth: 1,
            doomed: None,
            rng: 0,
            spurious_threshold: 0,
            fault_site: 0,
            fault_pending: false,
        }
    }

    /// Installs the fault-injection key for this attempt (the elided call
    /// site). Must be called before the first transactional operation so
    /// the lazy injection draw is attributed to the right site.
    pub fn set_fault_site(&mut self, site: usize) {
        self.fault_site = site;
    }

    /// The execution mode of this context.
    #[must_use]
    pub fn mode(&self) -> TxMode {
        self.mode
    }

    /// Whether this context speculates (HTM fast path).
    #[must_use]
    pub fn is_fastpath(&self) -> bool {
        self.mode == TxMode::Fast
    }

    /// The runtime this transaction executes in.
    #[must_use]
    pub fn runtime(&self) -> &'a HtmRuntime {
        self.rt
    }

    /// Number of read-set entries recorded so far.
    #[must_use]
    pub fn read_set_len(&self) -> usize {
        self.ctx.as_ref().map_or(0, |c| c.reads.len())
    }

    /// Number of distinct cache lines staged for writing.
    #[must_use]
    pub fn write_set_lines(&self) -> usize {
        self.ctx.as_ref().map_or(0, |c| c.lines.len())
    }

    /// Whether this attempt checked its arena out of the thread-local
    /// cache (steady state) rather than allocating it (first section on
    /// this thread, or an overlapping transaction).
    #[must_use]
    pub fn ctx_reused(&self) -> bool {
        self.ctx_reused
    }

    /// Whether a *physical* arena bound (inline write table, staged-value
    /// size, read or subscription capacity) forced a capacity abort, as
    /// opposed to the modeled HTM capacity.
    #[must_use]
    pub fn inline_overflowed(&self) -> bool {
        self.overflowed
    }

    fn doom(&mut self, cause: AbortCause) -> Abort {
        if self.doomed.is_none() {
            self.doomed = Some(cause);
            self.rt.stats().record_abort(cause);
        }
        Abort::new(self.doomed.unwrap_or(cause))
    }

    /// Marks a physical-capacity overflow and dooms with the capacity
    /// cause the perceptron already learns from.
    fn doom_overflow(&mut self) -> Abort {
        if !self.overflowed {
            self.overflowed = true;
            self.rt.stats().record_inline_overflow();
        }
        self.doom(AbortCause::Capacity)
    }

    fn check_doomed(&self) -> TxResult<()> {
        match self.doomed {
            Some(cause) => Err(Abort::new(cause)),
            None => Ok(()),
        }
    }

    fn maybe_spurious(&mut self) -> TxResult<()> {
        if self.spurious_threshold == 0 {
            return Ok(());
        }
        // xorshift64*: cheap, deterministic per transaction.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        if self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) < self.spurious_threshold {
            return Err(self.doom(AbortCause::Retry));
        }
        Ok(())
    }

    /// Draws this attempt's injected fault, if a plan is configured.
    ///
    /// Lazy (first fault-checkable operation) so the call site set by the
    /// layer above is already installed; at most one draw per attempt.
    fn maybe_injected(&mut self) -> TxResult<()> {
        if !self.fault_pending {
            return Ok(());
        }
        self.fault_pending = false;
        let Some(plan) = self.rt.config().fault_plan.as_deref() else {
            return Ok(());
        };
        use gocc_faultplane::InjectedAbort;
        match plan.draw(self.fault_site) {
            None => Ok(()),
            Some(inj) => {
                let cause = match inj {
                    InjectedAbort::Conflict => AbortCause::Conflict,
                    InjectedAbort::Capacity => AbortCause::Capacity,
                    InjectedAbort::LockHeld => AbortCause::Explicit(LOCK_HELD_CODE),
                    InjectedAbort::Spurious => AbortCause::Retry,
                };
                Err(self.doom(cause))
            }
        }
    }

    /// Revalidates the read set against the current clock and, on success,
    /// extends the read version (TL2 timestamp extension).
    fn extend(&mut self) -> TxResult<()> {
        let now = self.rt.clock().now();
        let ctx = self.ctx.as_ref().expect("fast tx has a context");
        for r in &ctx.reads {
            if !self.rt.table().validate(r.stripe, r.seen) {
                return Err(Abort::new(AbortCause::Conflict));
            }
        }
        self.rv = now;
        Ok(())
    }

    /// Reads a transactional cell.
    ///
    /// On the fast path the read is recorded for commit-time validation; on
    /// the direct path it is a plain load (the mutex is held).
    pub fn read<T: Copy>(&mut self, var: &'a TxVar<T>) -> TxResult<T> {
        self.check_doomed()?;
        self.maybe_injected()?;
        self.maybe_spurious()?;
        if self.mode == TxMode::Direct {
            // SAFETY: direct mode runs with the guarding mutex held; no
            // same-mutex fast path can commit concurrently (commit gate),
            // so no writer races with this load under the access protocol.
            return Ok(unsafe { var.load_racy() });
        }
        let rt = self.rt;
        let addr = var.addr();
        {
            let ctx = self.ctx.as_ref().expect("fast tx has a context");
            if let Some(idx) = ctx.lookup(addr) {
                // Read-your-own-write: the key is the cell address, so the
                // staged payload is a `T` by construction (one address, one
                // `TxVar<T>`), 8-aligned per the inline-buffer contract.
                let slot = &ctx.slots[idx as usize];
                return Ok(unsafe { std::ptr::read(slot.buf.as_ptr().cast::<T>()) });
            }
        }
        let stripe = rt.table().stripe_of_addr(addr);
        for attempt in 0..STRIPE_SPIN_ATTEMPTS {
            let s1 = rt.table().load(stripe);
            if s1.is_locked() {
                // A committer holds the stripe; brief, so spin (and let it
                // run when the machine is oversubscribed).
                if attempt % 16 == 15 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            if s1.version() > self.rv {
                // Newer than our snapshot: try a timestamp extension.
                if let Err(abort) = self.extend() {
                    return Err(self.doom(abort.cause));
                }
                continue;
            }
            // SAFETY: torn copies are discarded when `s2 != s1` below.
            let val = unsafe { var.load_racy() };
            let s2 = rt.table().load(stripe);
            if s2 != s1 {
                continue;
            }
            let reads = self.ctx.as_ref().map_or(0, |c| c.reads.len());
            if reads >= self.max_reads {
                if reads >= ctx::MAX_READ_ENTRIES {
                    return Err(self.doom_overflow());
                }
                return Err(self.doom(AbortCause::Capacity));
            }
            self.ctx
                .as_mut()
                .expect("fast tx has a context")
                .reads
                .push(ReadEntry { stripe, seen: s1 });
            return Ok(val);
        }
        Err(self.doom(AbortCause::Conflict))
    }

    /// Writes a transactional cell.
    ///
    /// Fast path: the write is buffered in the arena's inline write set;
    /// direct path: written in place under the cell's stripe lock so
    /// overlapping speculative readers observe the version change.
    pub fn write<T: Copy>(&mut self, var: &'a TxVar<T>, val: T) -> TxResult<()> {
        self.check_doomed()?;
        self.maybe_injected()?;
        self.maybe_spurious()?;
        let addr = var.addr();
        if self.mode == TxMode::Direct {
            self.direct_store(var, |_| val);
            return Ok(());
        }
        // Values that do not fit the inline slot buffer cannot be staged:
        // physical capacity abort (hardware aborts on unfriendly data too).
        if std::mem::size_of::<T>() > ctx::INLINE_VALUE_BYTES
            || std::mem::align_of::<T>() > ctx::INLINE_VALUE_ALIGN
        {
            return Err(self.doom_overflow());
        }
        let rt = self.rt;
        let max_lines = self.max_lines;
        let ctx = self.ctx.as_mut().expect("fast tx has a context");
        let (idx, found) = ctx.find_for_write(addr);
        if found {
            let slot = &mut ctx.slots[idx as usize];
            // SAFETY: same address ⇒ same `TxVar<T>` ⇒ same `T`; size and
            // alignment were checked above.
            unsafe { std::ptr::write(slot.buf.as_mut_ptr().cast::<T>(), val) };
            return Ok(());
        }
        if ctx.order.len() >= ctx::MAX_WRITE_ENTRIES {
            return Err(self.doom_overflow());
        }
        let line = addr / CACHE_LINE;
        match ctx.note_write_line(line, max_lines) {
            Ok(_new_line) => {}
            Err(()) => {
                if max_lines >= ctx::MAX_WRITE_LINES {
                    return Err(self.doom_overflow());
                }
                return Err(self.doom(AbortCause::Capacity));
            }
        }
        let stripe = rt.table().stripe_of_addr(addr);
        ctx.note_stripe(stripe);
        let slot = ctx.claim(idx, addr, stripe, write_back_erased::<T>);
        // SAFETY: size/align checked above; the slot buffer is 8-aligned.
        unsafe { std::ptr::write(slot.buf.as_mut_ptr().cast::<T>(), val) };
        Ok(())
    }

    /// Read-modify-write of one cell, returning the new value.
    ///
    /// Fast path: a [`Tx::read`] then a [`Tx::write`]; commit validates
    /// both. Direct path: the load and the store happen under **one** hold
    /// of the cell's stripe lock, so the update is atomic even when the
    /// guarding lock is only held *shared* — two slow-path readers bumping
    /// a statistic inside their `RLock` sections (the `atomic.AddUint64`
    /// in fastcache's `Get`), or one of them racing a speculative reader's
    /// commit. A direct `read` followed by a direct `write` would lose
    /// updates there.
    pub fn update<T: Copy>(&mut self, var: &'a TxVar<T>, f: impl FnOnce(T) -> T) -> TxResult<T> {
        if self.mode == TxMode::Direct {
            self.check_doomed()?;
            return Ok(self.direct_store(var, f));
        }
        let new = f(self.read(var)?);
        self.write(var, new)?;
        Ok(new)
    }

    /// Direct-mode store of `f(current)`, in place under the cell's stripe
    /// lock so overlapping speculative readers observe the version change.
    /// Returns the stored value.
    #[inline]
    fn direct_store<T: Copy>(&mut self, var: &'a TxVar<T>, f: impl FnOnce(T) -> T) -> T {
        let table = self.rt.table();
        let stripe = table.stripe_of_addr(var.addr());
        // Spin: stripe locks are only held across short write-backs.
        let mut spins = 0u32;
        let held = loop {
            if let Some(snap) = table.try_lock_current(stripe) {
                break snap;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                // A committer holding the stripe may need the CPU.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        };
        self.rt.charge_shared_rmw();
        // SAFETY: we hold the stripe lock, so no committer or other direct
        // store writes the cell between this load and the store.
        let val = f(unsafe { var.load_racy() });
        // SAFETY: we hold the stripe lock.
        unsafe { var.store_locked(val) };
        // Advance the global clock and stamp the stripe with the new
        // value: stripe versions must never exceed the clock, or
        // speculative readers could never extend past this write and
        // would spin to a spurious abort.
        let wv = self.rt.clock().tick();
        table.unlock_with_version(stripe, wv.max(held.version() + 1));
        val
    }

    /// Subscribes the transaction to an elidable lock's word (§5.4): aborts
    /// immediately if the lock is unavailable to this elision kind,
    /// otherwise adds the word to the validation set so any slow-path
    /// activity on the lock aborts this transaction.
    ///
    /// A [`Elision::Write`] subscription aborts if a slow-path writer holds
    /// the lock *or* slow-path readers are inside it; an [`Elision::Read`]
    /// subscription only aborts on a writer (slow readers are compatible
    /// with speculative readers).
    pub fn subscribe_lock(&mut self, lock: &'a LockWord, kind: Elision) -> TxResult<()> {
        self.check_doomed()?;
        if self.mode == TxMode::Direct {
            return Ok(());
        }
        self.maybe_injected()?;
        let seen = lock.observe();
        let blocked = match kind {
            Elision::Read => LockWord::snapshot_blocks_read(seen),
            Elision::Write => LockWord::snapshot_blocks_write(seen),
        };
        if blocked {
            return Err(self.doom(AbortCause::Explicit(LOCK_HELD_CODE)));
        }
        let ctx = self.ctx.as_mut().expect("fast tx has a context");
        if ctx.subs.len() >= ctx::MAX_SUBS {
            return Err(self.doom_overflow());
        }
        ctx.subs.push((lock as *const LockWord, seen));
        Ok(())
    }

    /// Marks execution of an HTM-unfriendly operation (IO, syscall).
    ///
    /// Fast-path transactions abort with [`AbortCause::Unfriendly`]; direct
    /// mode proceeds (locks tolerate such operations).
    pub fn unfriendly(&mut self) -> TxResult<()> {
        self.check_doomed()?;
        if self.mode == TxMode::Fast {
            return Err(self.doom(AbortCause::Unfriendly));
        }
        Ok(())
    }

    /// Requests an explicit abort with an 8-bit code (`xabort imm8`).
    pub fn explicit_abort(&mut self, code: u8) -> Abort {
        if self.mode == TxMode::Direct {
            // Direct mode cannot roll back; the caller decides. We still
            // surface the request as an abort value without dooming.
            return Abort::new(AbortCause::Explicit(code));
        }
        self.doom(AbortCause::Explicit(code))
    }

    /// Enters a nested transactional scope (flat nesting, like TSX).
    pub fn enter_nested(&mut self) -> TxResult<()> {
        self.check_doomed()?;
        self.depth += 1;
        if self.mode == TxMode::Fast && self.depth > self.rt.config().max_nesting_depth {
            return Err(self.doom(AbortCause::Nested));
        }
        Ok(())
    }

    /// Leaves a nested transactional scope.
    pub fn exit_nested(&mut self) {
        debug_assert!(self.depth > 1, "exit_nested at outermost depth");
        self.depth = self.depth.saturating_sub(1);
    }

    /// Current nesting depth (1 = outermost).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Attempts to commit.
    ///
    /// Direct-mode contexts always commit (their effects are already
    /// published). Fast-path contexts validate their read set and lock
    /// subscriptions, publish buffered writes under stripe locks, and
    /// advance the global clock.
    pub fn commit(mut self) -> TxResult<()> {
        if let Some(cause) = self.doomed {
            return Err(Abort::new(cause));
        }
        if self.mode == TxMode::Direct {
            return Ok(());
        }
        let mut ctx = self.ctx.take().expect("fast tx has a context");
        let result = commit_ctx(self.rt, &mut ctx);
        ctx::release(ctx);
        match result {
            Ok(read_only) => {
                self.rt.stats().record_commit(read_only);
                Ok(())
            }
            Err(cause) => {
                self.rt.stats().record_abort(cause);
                Err(Abort::new(cause))
            }
        }
    }

    /// Discards the transaction: buffered writes are dropped.
    ///
    /// Equivalent to letting the context fall out of scope; provided for
    /// call sites that want to make the roll-back explicit.
    pub fn rollback(self) {
        drop(self);
    }
}

impl Drop for Tx<'_> {
    fn drop(&mut self) {
        // Roll back: return the arena (reset) to the thread-local cache.
        // `commit` takes the context out first, so this only fires for
        // dropped/rolled-back transactions. A doomed one was counted by
        // its abort cause; an undoomed one is counted here, which is what
        // keeps the derived `starts` equal to the `Tx::fast` calls made.
        if let Some(ctx) = self.ctx.take() {
            if self.doomed.is_none() {
                self.rt.stats().record_rollback();
            }
            ctx::release(ctx);
        }
    }
}

/// Commits a fast-path transaction's context. Returns `Ok(read_only)` or
/// the abort cause; the caller records statistics and releases the arena.
fn commit_ctx(rt: &HtmRuntime, ctx: &mut TxContext) -> Result<bool, AbortCause> {
    let table = rt.table();
    if ctx.order.is_empty() {
        // Read-only: validate subscriptions and the read set; nothing to
        // publish, no clock tick (TL2's read-only fast path).
        for &(lock, seen) in &ctx.subs {
            // SAFETY: subscription pointers come from `&'a LockWord`s that
            // outlive the `Tx<'a>` driving this commit.
            if !unsafe { &*lock }.validate(seen) {
                return Err(AbortCause::Explicit(LOCK_HELD_CODE));
            }
        }
        for r in &ctx.reads {
            if !table.validate(r.stripe, r.seen) {
                return Err(AbortCause::Conflict);
            }
        }
        return Ok(true);
    }
    // Lock write stripes in sorted order (deadlock freedom): `stripes`
    // was kept sorted and deduped at write time, so `held` — pushed in
    // the same order — stays sorted for the binary searches below.
    debug_assert!(ctx.held.is_empty());
    {
        let stripes = &ctx.stripes;
        let held = &mut ctx.held;
        for &s in stripes {
            let mut locked = None;
            for attempt in 0..STRIPE_SPIN_ATTEMPTS {
                if let Some(snap) = table.try_lock_current(s) {
                    locked = Some(snap);
                    break;
                }
                if attempt % 16 == 15 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            match locked {
                Some(snap) => held.push((s, snap)),
                None => {
                    release_held(rt, held, None);
                    held.clear();
                    return Err(AbortCause::Conflict);
                }
            }
        }
    }
    // Announce the commit *before* the final lock-word validation so a
    // slow-path acquirer marking the word held either fails us here or
    // waits for our write-back to drain. An arena without a slot reports
    // the lock held: the section then takes it.
    let mut fail: Option<AbortCause> = None;
    // SAFETY: see the read-only path above.
    let word_moved = |&(lock, seen): &(*const LockWord, u64)| !unsafe { &*lock }.validate(seen);
    if !ctx.announce_commit() || ctx.subs.iter().any(word_moved) {
        fail = Some(AbortCause::Explicit(LOCK_HELD_CODE));
    }
    if fail.is_none() {
        // Validate the read set: untouched stripes must match their
        // snapshots; stripes we hold must not have changed before we
        // locked them.
        for r in &ctx.reads {
            let ours = ctx.held.binary_search_by_key(&r.stripe, |&(s, _)| s);
            let ok = match ours {
                Ok(i) => ctx.held[i].1 == r.seen,
                Err(_) => table.validate(r.stripe, r.seen),
            };
            if !ok {
                fail = Some(AbortCause::Conflict);
                break;
            }
        }
    }
    if let Some(cause) = fail {
        ctx.retract_commit();
        release_held(rt, &ctx.held, None);
        ctx.held.clear();
        return Err(cause);
    }
    let wv = rt.clock().tick();
    // Model the coherence cost of taking ownership of each written
    // line (symmetric with the slow path's per-write charges).
    if rt.rmw_charge_ns() != 0 {
        for _ in &ctx.held {
            rt.charge_shared_rmw();
        }
    }
    for &idx in &ctx.order {
        let slot = &ctx.slots[idx as usize];
        // SAFETY: `addr` is the staged `TxVar<T>`'s value pointer, its
        // stripe is locked (held above), and `buf` holds a valid `T` —
        // `write_back` is the `T`-monomorphized eraser.
        unsafe { (slot.write_back)(slot.addr as *mut u8, slot.buf.as_ptr().cast()) };
    }
    release_held(rt, &ctx.held, Some(wv));
    ctx.held.clear();
    ctx.retract_commit();
    Ok(false)
}

fn release_held(rt: &HtmRuntime, held: &[(StripeId, StripeSnapshot)], new_version: Option<u64>) {
    let table = rt.table();
    for &(s, snap) in held {
        match new_version {
            Some(v) => table.unlock_with_version(s, v),
            None => table.unlock_restore(s, snap),
        }
    }
}

impl std::fmt::Debug for Tx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tx")
            .field("mode", &self.mode)
            .field("rv", &self.rv)
            .field("reads", &self.read_set_len())
            .field("write_lines", &self.write_set_lines())
            .field("depth", &self.depth)
            .field("doomed", &self.doomed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HtmConfig;

    fn rt() -> HtmRuntime {
        HtmRuntime::new(HtmConfig::coffee_lake())
    }

    #[test]
    fn fast_path_read_write_commit() {
        let rt = rt();
        let v = TxVar::new(1u64);
        let mut tx = Tx::fast(&rt);
        assert_eq!(tx.read(&v).unwrap(), 1);
        tx.write(&v, 2).unwrap();
        assert_eq!(tx.read(&v).unwrap(), 2, "read-your-own-write");
        tx.commit().unwrap();
        let mut check = Tx::fast(&rt);
        assert_eq!(check.read(&v).unwrap(), 2);
        check.commit().unwrap();
    }

    #[test]
    fn rollback_discards_buffered_writes() {
        let rt = rt();
        let v = TxVar::new(10u64);
        let mut tx = Tx::fast(&rt);
        tx.write(&v, 99).unwrap();
        tx.rollback();
        let mut check = Tx::fast(&rt);
        assert_eq!(check.read(&v).unwrap(), 10);
        check.commit().unwrap();
    }

    #[test]
    fn doomed_tx_stays_doomed() {
        let rt = rt();
        let v = TxVar::new(0u32);
        let mut tx = Tx::fast(&rt);
        let abort = tx.explicit_abort(0x42);
        assert_eq!(abort.cause, AbortCause::Explicit(0x42));
        assert_eq!(tx.read(&v).unwrap_err().cause, AbortCause::Explicit(0x42));
        assert_eq!(tx.commit().unwrap_err().cause, AbortCause::Explicit(0x42));
    }

    #[test]
    fn write_capacity_aborts() {
        let rt = HtmRuntime::new(HtmConfig::tiny());
        // Heap-allocate cells so they land on distinct lines.
        let cells: Vec<Box<TxVar<u64>>> = (0..64).map(|_| Box::new(TxVar::new(0))).collect();
        let mut tx = Tx::fast(&rt);
        let mut aborted = None;
        for c in &cells {
            if let Err(a) = tx.write(c, 1) {
                aborted = Some(a);
                break;
            }
        }
        assert_eq!(aborted.expect("must abort").cause, AbortCause::Capacity);
        // The modeled (configured) bound fired, not the physical arena.
        assert!(!tx.inline_overflowed());
        assert_eq!(rt.stats().snapshot().inline_overflows, 0);
    }

    #[test]
    fn read_capacity_aborts() {
        let rt = HtmRuntime::new(HtmConfig::tiny());
        let cells: Vec<Box<TxVar<u64>>> = (0..64).map(|_| Box::new(TxVar::new(0))).collect();
        let mut tx = Tx::fast(&rt);
        let mut aborted = None;
        for c in &cells {
            if let Err(a) = tx.read(c) {
                aborted = Some(a);
                break;
            }
        }
        assert_eq!(aborted.expect("must abort").cause, AbortCause::Capacity);
        assert!(!tx.inline_overflowed());
    }

    #[test]
    fn oversized_staged_value_overflows_the_inline_slot() {
        let rt = rt();
        // 40 bytes > the 32-byte inline buffer.
        let v = TxVar::new([0u64; 5]);
        let mut tx = Tx::fast(&rt);
        assert_eq!(
            tx.write(&v, [1; 5]).unwrap_err().cause,
            AbortCause::Capacity
        );
        assert!(tx.inline_overflowed(), "physical bound, not modeled one");
        assert_eq!(rt.stats().snapshot().inline_overflows, 1);
        // Reads of the cell still work on the direct path.
        drop(tx);
        let mut slow = Tx::direct(&rt);
        assert_eq!(slow.read(&v).unwrap(), [0; 5]);
        slow.commit().unwrap();
    }

    #[test]
    fn nesting_depth_aborts() {
        let rt = HtmRuntime::new(HtmConfig::tiny());
        let mut tx = Tx::fast(&rt);
        tx.enter_nested().unwrap(); // depth 2
        tx.enter_nested().unwrap(); // depth 3
        let err = tx.enter_nested().unwrap_err(); // depth 4 > 3
        assert_eq!(err.cause, AbortCause::Nested);
    }

    #[test]
    fn conflict_detected_between_transactions() {
        let rt = rt();
        let v = TxVar::new(0u64);
        let mut a = Tx::fast(&rt);
        let mut b = Tx::fast(&rt);
        assert_eq!(a.read(&v).unwrap(), 0);
        b.write(&v, 5).unwrap();
        b.commit().unwrap();
        let err = a.commit().unwrap_err();
        assert_eq!(err.cause, AbortCause::Conflict);
    }

    #[test]
    fn disjoint_transactions_both_commit() {
        let rt = rt();
        let x = Box::new(TxVar::new(0u64));
        let y = Box::new(TxVar::new(0u64));
        let mut a = Tx::fast(&rt);
        let mut b = Tx::fast(&rt);
        a.write(&*x, 1).unwrap();
        b.write(&*y, 2).unwrap();
        a.commit().unwrap();
        b.commit().unwrap();
        let mut check = Tx::direct(&rt);
        assert_eq!(check.read(&x).unwrap(), 1);
        assert_eq!(check.read(&y).unwrap(), 2);
        check.commit().unwrap();
    }

    #[test]
    fn lock_subscription_aborts_when_held() {
        let rt = rt();
        let lw = LockWord::new();
        lw.mark_held_and_drain();
        let mut tx = Tx::fast(&rt);
        let err = tx.subscribe_lock(&lw, Elision::Write).unwrap_err();
        assert_eq!(err.cause, AbortCause::Explicit(LOCK_HELD_CODE));
    }

    #[test]
    fn lock_acquired_mid_tx_aborts_at_commit() {
        let rt = rt();
        let lw = LockWord::new();
        let v = TxVar::new(0u64);
        let mut tx = Tx::fast(&rt);
        tx.subscribe_lock(&lw, Elision::Write).unwrap();
        tx.write(&v, 1).unwrap();
        lw.mark_held_and_drain();
        let err = tx.commit().unwrap_err();
        assert_eq!(err.cause, AbortCause::Explicit(LOCK_HELD_CODE));
        lw.clear_held();
    }

    #[test]
    fn an_arena_without_a_commit_slot_sends_its_writing_sections_to_the_lock() {
        let rt = rt();
        let lw = LockWord::new();
        let v = TxVar::new(0u64);
        let mut tx = Tx::fast(&rt);
        tx.ctx.as_mut().unwrap().forfeit_slot();
        tx.subscribe_lock(&lw, Elision::Write).unwrap();
        tx.write(&v, 1).unwrap();
        let err = tx.commit().unwrap_err();
        assert_eq!(err.cause, AbortCause::Explicit(LOCK_HELD_CODE));
        // Nothing was published and the stripe is free again; what the
        // arena cannot announce it does not need to: no subscription, or no
        // write.
        let mut free = Tx::fast(&rt);
        assert_eq!(free.read(&v).unwrap(), 0);
        free.write(&v, 2).unwrap();
        free.commit().unwrap();
        let mut ro = Tx::fast(&rt);
        ro.subscribe_lock(&lw, Elision::Read).unwrap();
        assert_eq!(ro.read(&v).unwrap(), 2);
        ro.commit().unwrap();
    }

    #[test]
    fn subscription_capacity_overflows() {
        let rt = rt();
        let words: Vec<Box<LockWord>> = (0..32).map(|_| Box::new(LockWord::new())).collect();
        let mut tx = Tx::fast(&rt);
        let mut aborted = None;
        for w in &words {
            if let Err(a) = tx.subscribe_lock(w, Elision::Write) {
                aborted = Some(a);
                break;
            }
        }
        assert_eq!(aborted.expect("must abort").cause, AbortCause::Capacity);
        assert!(tx.inline_overflowed());
    }

    #[test]
    fn direct_write_aborts_overlapping_reader() {
        let rt = rt();
        let v = TxVar::new(0u64);
        let mut reader = Tx::fast(&rt);
        assert_eq!(reader.read(&v).unwrap(), 0);
        let mut slow = Tx::direct(&rt);
        slow.write(&v, 7).unwrap();
        slow.commit().unwrap();
        assert_eq!(reader.commit().unwrap_err().cause, AbortCause::Conflict);
    }

    #[test]
    fn direct_updates_under_a_shared_lock_lose_nothing() {
        // Two slow-path holders of the same *read* lock do not exclude each
        // other; `update` must still be atomic between them.
        let rt = rt();
        let v = TxVar::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..20_000 {
                        let mut slow = Tx::direct(&rt);
                        slow.update(&v, |n| n + 1).unwrap();
                        slow.commit().unwrap();
                    }
                });
            }
        });
        let mut check = Tx::direct(&rt);
        assert_eq!(check.read(&v).unwrap(), 80_000);
    }

    #[test]
    fn unfriendly_only_aborts_fast_path() {
        let rt = rt();
        let mut fast = Tx::fast(&rt);
        assert_eq!(fast.unfriendly().unwrap_err().cause, AbortCause::Unfriendly);
        let mut slow = Tx::direct(&rt);
        slow.unfriendly().unwrap();
        slow.commit().unwrap();
    }

    #[test]
    fn spurious_aborts_fire_at_rate_one() {
        let mut cfg = HtmConfig::coffee_lake();
        cfg.spurious_abort_rate = 1.0;
        let rt = HtmRuntime::new(cfg);
        let v = TxVar::new(0u64);
        let mut tx = Tx::fast(&rt);
        assert_eq!(tx.read(&v).unwrap_err().cause, AbortCause::Retry);
    }

    #[test]
    fn spurious_aborts_do_not_replay_at_the_same_operation() {
        let mut cfg = HtmConfig::coffee_lake();
        cfg.spurious_abort_rate = 0.5;
        let rt = HtmRuntime::new(cfg);
        let v = TxVar::new(0u64);
        // Read-only attempts never tick the clock, so every retry begins at
        // the same `rv`: the draws must differ all the same.
        let aborted_at: Vec<usize> = (0..16)
            .map(|_| {
                let mut tx = Tx::fast(&rt);
                (0..64)
                    .position(|_| tx.read(&v).is_err())
                    .expect("64 draws at rate 0.5 include an abort")
            })
            .collect();
        assert!(
            aborted_at.windows(2).any(|w| w[0] != w[1]),
            "every retry aborted at operation {}",
            aborted_at[0]
        );
        assert_eq!(rt.stats().snapshot().aborts_retry, 16);
    }

    #[test]
    fn injected_faults_doom_fast_transactions() {
        use gocc_faultplane::{AbortMix, HtmFaultPlan, InjectedAbort};
        use std::sync::Arc;
        for (inj, want) in [
            (InjectedAbort::Conflict, AbortCause::Conflict),
            (InjectedAbort::Capacity, AbortCause::Capacity),
            (
                InjectedAbort::LockHeld,
                AbortCause::Explicit(LOCK_HELD_CODE),
            ),
            (InjectedAbort::Spurious, AbortCause::Retry),
        ] {
            let mut mix = AbortMix::default();
            match inj {
                InjectedAbort::Conflict => mix.conflict = 1.0,
                InjectedAbort::Capacity => mix.capacity = 1.0,
                InjectedAbort::LockHeld => mix.lock_held = 1.0,
                InjectedAbort::Spurious => mix.spurious = 1.0,
            }
            let plan = Arc::new(HtmFaultPlan::new(7, mix));
            let mut cfg = HtmConfig::coffee_lake();
            cfg.fault_plan = Some(Arc::clone(&plan));
            let rt = HtmRuntime::new(cfg);
            let v = TxVar::new(0u64);
            let mut tx = Tx::fast(&rt);
            tx.set_fault_site(99);
            assert_eq!(tx.read(&v).unwrap_err().cause, want, "{inj:?}");
            // Exactly one draw per attempt, charged to the installed site.
            assert_eq!(plan.total_injected(), 1);
            // Direct mode never draws.
            let mut slow = Tx::direct(&rt);
            slow.write(&v, 1).unwrap();
            slow.commit().unwrap();
            assert_eq!(plan.total_injected(), 1);
        }
    }

    #[test]
    fn injection_draw_happens_once_per_attempt() {
        use gocc_faultplane::{AbortMix, HtmFaultPlan};
        use std::sync::Arc;
        // Rate zero: the plan is consulted but never fires; a multi-op
        // transaction must still commit and draw exactly once.
        let plan = Arc::new(HtmFaultPlan::new(
            3,
            AbortMix {
                conflict: 0.0,
                ..AbortMix::default()
            },
        ));
        let mut cfg = HtmConfig::coffee_lake();
        cfg.fault_plan = Some(Arc::clone(&plan));
        let rt = HtmRuntime::new(cfg);
        let v = TxVar::new(0u64);
        let mut tx = Tx::fast(&rt);
        tx.set_fault_site(5);
        for i in 0..10 {
            tx.write(&v, i).unwrap();
            let _ = tx.read(&v).unwrap();
        }
        tx.commit().unwrap();
        assert_eq!(plan.total_injected(), 0);
    }

    #[test]
    fn stats_track_commits_and_aborts() {
        let rt = rt();
        let v = TxVar::new(0u64);
        let mut ok = Tx::fast(&rt);
        ok.write(&v, 1).unwrap();
        ok.commit().unwrap();
        let mut ro = Tx::fast(&rt);
        let _ = ro.read(&v).unwrap();
        ro.commit().unwrap();
        let mut bad = Tx::fast(&rt);
        let _ = bad.explicit_abort(1);
        bad.rollback();
        let snap = rt.stats().snapshot();
        assert_eq!(snap.starts, 3);
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.read_only_commits, 1);
        assert_eq!(snap.aborts_explicit, 1);
    }

    #[test]
    fn stats_track_context_reuse() {
        let rt = rt();
        let v = TxVar::new(0u64);
        std::thread::spawn(move || {
            // A dedicated thread so this test owns its context cache.
            for i in 0..5u64 {
                let mut tx = Tx::fast(&rt);
                tx.write(&v, i).unwrap();
                assert_eq!(tx.ctx_reused(), i > 0, "iteration {i}");
                tx.commit().unwrap();
            }
            let snap = rt.stats().snapshot();
            assert_eq!(snap.ctx_fresh, 1, "one allocation on first use");
            assert_eq!(snap.ctx_reused, 4, "every later attempt reuses");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn timestamp_extension_allows_read_after_unrelated_commit() {
        let rt = rt();
        let x = Box::new(TxVar::new(0u64));
        let y = Box::new(TxVar::new(0u64));
        let mut a = Tx::fast(&rt); // rv snapshot taken now
                                   // An unrelated commit advances the clock and bumps y's stripe.
        let mut b = Tx::fast(&rt);
        b.write(&*y, 9).unwrap();
        b.commit().unwrap();
        // `a` now reads y: version is newer than rv, extension succeeds
        // because a's (empty) read set is trivially valid.
        assert_eq!(a.read(&y).unwrap(), 9);
        assert_eq!(a.read(&x).unwrap(), 0);
        a.commit().unwrap();
    }

    #[test]
    fn large_write_sets_cross_the_hash_path_and_commit() {
        let rt = rt();
        // 256 distinct addresses: far past the linear-scan threshold, so
        // lookups and inserts exercise the open-addressed table.
        let cells: Vec<TxVar<u64>> = (0..256).map(|_| TxVar::new(0)).collect();
        let mut tx = Tx::fast(&rt);
        for (i, c) in cells.iter().enumerate() {
            tx.write(c, i as u64).unwrap();
        }
        // Read-your-own-write through the hash path, then overwrite.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(tx.read(c).unwrap(), i as u64);
            tx.write(c, i as u64 * 2).unwrap();
        }
        tx.commit().unwrap();
        let mut check = Tx::direct(&rt);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(check.read(c).unwrap(), i as u64 * 2);
        }
        check.commit().unwrap();
    }

    #[test]
    fn reused_context_carries_no_state_between_attempts() {
        let rt = rt();
        std::thread::spawn(move || {
            let v = TxVar::new(1u64);
            let w = TxVar::new(2u64);
            let mut a = Tx::fast(&rt);
            a.write(&v, 99).unwrap();
            a.rollback();
            // Same thread, so `b` reuses `a`'s arena: it must not see the
            // rolled-back staged write, and committing must not publish it.
            let mut b = Tx::fast(&rt);
            assert!(b.ctx_reused());
            assert_eq!(b.read(&v).unwrap(), 1, "stale staged write visible");
            b.write(&w, 3).unwrap();
            b.commit().unwrap();
            let mut check = Tx::direct(&rt);
            assert_eq!(check.read(&v).unwrap(), 1);
            assert_eq!(check.read(&w).unwrap(), 3);
            check.commit().unwrap();
        })
        .join()
        .unwrap();
    }
}

#[cfg(test)]
mod direct_interop_tests {
    use super::*;
    use crate::config::HtmConfig;
    use crate::runtime::HtmRuntime;
    use crate::txvar::TxVar;

    /// Regression: direct-mode writes must keep stripe versions within the
    /// global clock, or every later speculative read of the touched lines
    /// spins through failed extensions and aborts.
    #[test]
    fn fast_reads_succeed_after_direct_writes() {
        let rt = HtmRuntime::new(HtmConfig::coffee_lake());
        let cells: Vec<TxVar<u64>> = (0..64).map(TxVar::new).collect();
        let mut slow = Tx::direct(&rt);
        for (i, c) in cells.iter().enumerate() {
            slow.write(c, i as u64 + 100).unwrap();
        }
        slow.commit().unwrap();
        // A fresh fast transaction must read every cell and commit.
        let mut fast = Tx::fast(&rt);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(fast.read(c).unwrap(), i as u64 + 100);
        }
        fast.commit()
            .expect("read-only tx after direct writes must commit");
        let snap = rt.stats().snapshot();
        assert_eq!(snap.aborts_conflict, 0, "no spurious conflicts: {snap:?}");
    }
}
