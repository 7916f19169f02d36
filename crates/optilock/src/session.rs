//! `FastLock()`/`FastUnlock()` — the paper's Listing 19, in safe Rust.
//!
//! # Model
//!
//! On hardware, a transaction is an ambient property of the executing
//! thread: `FastLock` runs `xbegin`, `FastUnlock` runs `xend`, and an abort
//! anywhere rolls control back to the outermost `xbegin`, re-executing the
//! user code in between. Safe Rust cannot jump backwards into a caller, so
//! the ambient transaction is reified as an [`HtmScope`] and the
//! re-execution loop lives either in the caller (transformed code style) or
//! in the [`critical_mutex`]/[`critical_read`]/[`critical_write`] helpers.
//!
//! [`OptiLock`] mirrors the paper's two-field struct (`lkMutex`, and
//! `slowPath` as the scope's state): one instance serves one lock/unlock
//! pair, memorizes the mutex used at the lock point, and recovers from
//! analyzer mis-pairings (e.g. hand-over-hand traversals, §5.2.3) by
//! aborting on a mutex mismatch at the unlock point and enforcing the
//! slow path on the retry.
//!
//! Nested pairs compose through the shared scope the way nested `xbegin`s
//! compose in TSX: flat subsumption, one commit at the outermost unlock.
//! Two deliberate simplifications relative to running real RTM, both noted
//! in DESIGN.md: a nested `FastLock` inside an active fast-path scope
//! always speculates (no per-nesting perceptron query), and a nested
//! `FastLock` inside a slow-path scope acquires pessimistically.

use std::time::Instant;

use gocc_htm::{Abort, Elision, LockWord, Tx, TxResult, MUTEX_MISMATCH_CODE};
use gocc_telemetry::trace::{
    self, PERCEPTRON_PENALIZE, PERCEPTRON_PREDICT_HTM, PERCEPTRON_PREDICT_SLOW, PERCEPTRON_REWARD,
};
use gocc_telemetry::{Event, EventOutcome, Span, SpanKind};

use crate::elidable::{ElidableMutex, ElidableRwMutex};
use crate::perceptron::Features;
use crate::runtime::GoccRuntime;
use crate::stats::OptiStats;

/// A reference to an elidable lock plus the acquisition kind.
#[derive(Clone, Copy, Debug)]
pub enum LockRef<'a> {
    /// `m.Lock()` on a `sync.Mutex`.
    Mutex(&'a ElidableMutex),
    /// `m.RLock()` on a `sync.RWMutex`.
    Read(&'a ElidableRwMutex),
    /// `m.Lock()` on a `sync.RWMutex`.
    Write(&'a ElidableRwMutex),
}

/// Identity of a lock acquisition for `lkMutex` matching: the lock's
/// address plus the acquisition kind.
pub(crate) type LockKey = (usize, u8);

impl<'a> LockRef<'a> {
    fn word(&self) -> &'a LockWord {
        match self {
            LockRef::Mutex(m) => m.word(),
            LockRef::Read(rw) | LockRef::Write(rw) => rw.word(),
        }
    }

    fn kind(&self) -> Elision {
        match self {
            LockRef::Mutex(_) | LockRef::Write(_) => Elision::Write,
            LockRef::Read(_) => Elision::Read,
        }
    }

    pub(crate) fn key(&self) -> LockKey {
        match self {
            LockRef::Mutex(m) => (m.id(), 0),
            LockRef::Read(rw) => (rw.id(), 1),
            LockRef::Write(rw) => (rw.id(), 2),
        }
    }

    fn lock_id(&self) -> usize {
        self.key().0
    }

    /// Acquires the lock pessimistically through its word, as an
    /// untransformed `Lock()` and the `optiLib` slow path do, and charges
    /// `rt`'s coherence model for it.
    pub fn acquire(&self, rt: &GoccRuntime) {
        self.charged_acquire(rt, || match self {
            LockRef::Mutex(m) => m.lock_raw(),
            LockRef::Read(rw) => rw.rlock_raw(),
            LockRef::Write(rw) => rw.lock_raw(),
        });
    }

    /// Releases what [`LockRef::acquire`] took.
    pub fn release(&self, rt: &GoccRuntime) {
        self.charged_release(rt, || match self {
            LockRef::Mutex(m) => m.unlock_raw(),
            LockRef::Read(rw) => rw.runlock_raw(),
            LockRef::Write(rw) => rw.unlock_raw(),
        });
    }

    /// Acquires the bare Go lock, bypassing the word: the untransformed
    /// baseline program, which has no speculating peers (see
    /// [`ElidableMutex::go_mutex`]). Charged like [`LockRef::acquire`].
    pub fn acquire_raw(&self, rt: &GoccRuntime) {
        self.charged_acquire(rt, || match self {
            LockRef::Mutex(m) => m.go_mutex().lock_raw(),
            LockRef::Read(rw) => rw.go_rwmutex().rlock_raw(),
            LockRef::Write(rw) => rw.go_rwmutex().lock_raw(),
        });
    }

    /// Releases what [`LockRef::acquire_raw`] took.
    pub fn release_raw(&self, rt: &GoccRuntime) {
        self.charged_release(rt, || match self {
            LockRef::Mutex(m) => m.go_mutex().unlock_raw(),
            LockRef::Read(rw) => rw.go_rwmutex().runlock_raw(),
            LockRef::Write(rw) => rw.go_rwmutex().unlock_raw(),
        });
    }

    /// Runs `take` with one coherence charge per RMW Go's lock makes on a
    /// shared state word: one before it, and for an RWMutex writer a
    /// second once it holds the inner mutex and flips the reader count.
    fn charged_acquire(&self, rt: &GoccRuntime, take: impl FnOnce()) {
        rt.htm().charge_shared_rmw();
        take();
        if let LockRef::Write(_) = self {
            rt.htm().charge_shared_rmw();
        }
    }

    /// Runs `give` after the charges for its RMWs, paid while the lock is
    /// still held (an RWMutex writer's two: the reader count, then the
    /// inner mutex).
    fn charged_release(&self, rt: &GoccRuntime, give: impl FnOnce()) {
        rt.htm().charge_shared_rmw();
        if let LockRef::Write(_) = self {
            rt.htm().charge_shared_rmw();
        }
        give();
    }

    fn available(&self) -> bool {
        let snapshot = self.word().observe();
        match self.kind() {
            Elision::Read => !LockWord::snapshot_blocks_read(snapshot),
            Elision::Write => !LockWord::snapshot_blocks_write(snapshot),
        }
    }
}

enum ScopeState<'a> {
    Idle,
    Fast { tx: Tx<'a>, depth: u32 },
    Slow { tx: Tx<'a>, depth: u32 },
}

/// The ambient transactional state of one critical-section execution.
///
/// Plays the role the thread's hardware transaction plays on real RTM:
/// `OptiLock`s of nested pairs share it, and an abort discards it wholesale.
pub struct HtmScope<'a> {
    rt: &'a GoccRuntime,
    state: ScopeState<'a>,
}

impl<'a> HtmScope<'a> {
    /// Creates an idle scope bound to a runtime.
    #[must_use]
    pub fn new(rt: &'a GoccRuntime) -> Self {
        HtmScope {
            rt,
            state: ScopeState::Idle,
        }
    }

    /// The runtime this scope executes against.
    #[must_use]
    pub fn runtime(&self) -> &'a GoccRuntime {
        self.rt
    }

    /// Whether a critical section is currently executing.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !matches!(self.state, ScopeState::Idle)
    }

    /// Whether the active section speculates.
    #[must_use]
    pub fn is_fastpath(&self) -> bool {
        matches!(self.state, ScopeState::Fast { .. })
    }

    /// The transaction context for data access inside the section.
    ///
    /// # Panics
    ///
    /// Panics if no critical section is active (no `FastLock` succeeded).
    pub fn tx(&mut self) -> &mut Tx<'a> {
        match &mut self.state {
            ScopeState::Fast { tx, .. } | ScopeState::Slow { tx, .. } => tx,
            ScopeState::Idle => panic!("optilock: data access outside a critical section"),
        }
    }

    /// Discards an aborted section so the caller can re-execute it.
    ///
    /// This is the equivalent of the hardware rollback landing back at the
    /// outermost `xbegin`: buffered writes are dropped and the scope
    /// becomes idle. Pessimistically held locks are *not* released — the
    /// slow path cannot abort, so an active slow scope is a caller bug.
    ///
    /// # Panics
    ///
    /// Panics if the active section runs on the slow path.
    pub fn abort_restart(&mut self) {
        match std::mem::replace(&mut self.state, ScopeState::Idle) {
            ScopeState::Idle => {}
            ScopeState::Fast { tx, .. } => {
                if tx.inline_overflowed() {
                    if let Some(t) = self.rt.telemetry() {
                        t.note_inline_overflow();
                    }
                }
                tx.rollback();
            }
            ScopeState::Slow { .. } => {
                panic!("optilock: abort_restart on a slow-path section")
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Decision {
    Htm,
    SlowPerceptron,
    SlowBypass,
    SlowExhausted,
    /// The livelock watchdog tripped: this section aborted
    /// `watchdog_abort_bound` times and is hard-forced onto the lock.
    SlowWatchdog,
}

/// The paper's `OptiLock`: per lock/unlock pair state.
///
/// Mirrors the published `lkMutex` field (the mutex memorized at the lock
/// point for mismatch detection) — `slowPath`, whether this pair fell
/// back, is the scope's state — plus the retry budget that hardware keeps
/// in registers across rollbacks, and the perceptron features of this
/// call site.
pub struct OptiLock {
    site: usize,
    lk: Option<LockKey>,
    attempts_left: u32,
    attempted_htm: bool,
    /// Aborts observed by the *current* section across all its
    /// re-executions — the monotone counter the livelock watchdog trips
    /// on. Unlike `attempts_left` (which callers can configure arbitrarily
    /// large), this only resets when the section completes.
    section_aborts: u32,
    decision: Option<Decision>,
    /// Perceptron indices for the current section, hashed once at the
    /// first prediction and reused by every later predict/train touch —
    /// the decision itself then costs exactly two weight-table reads.
    features: Option<Features>,
    /// Latest predictor verdict, traced into the telemetry event ring.
    predicted_fast: bool,
    /// When the section's first execution began; set only with telemetry
    /// on, so the disabled hot path never reads the clock.
    section_start: Option<Instant>,
    /// Flight recorder: when the in-flight HTM attempt began (trace
    /// nanoseconds; 0 = no attempt being traced). Set only for sampled
    /// requests, so the untraced hot path never reads the clock.
    trace_attempt_start: u64,
}

impl OptiLock {
    /// Creates the state object for one lock/unlock pair.
    ///
    /// `site` is the calling-context feature; use [`crate::call_site!`].
    #[must_use]
    pub fn new(site: usize) -> Self {
        OptiLock {
            site,
            lk: None,
            attempts_left: u32::MAX,
            attempted_htm: false,
            section_aborts: 0,
            decision: None,
            features: None,
            predicted_fast: false,
            section_start: None,
            trace_attempt_start: 0,
        }
    }

    /// Flight recorder: closes the in-flight HTM attempt span. `outcome`
    /// is 0 for a commit, `1 + cause_index` for an abort; the `b` payload
    /// carries the TL2 version-clock snapshot the attempt resolved at.
    #[inline]
    fn trace_attempt_outcome(&mut self, rt: &GoccRuntime, outcome: u64) {
        let id = rt.tracer().current();
        if id == 0 {
            return;
        }
        let now = trace::now_ns();
        let start = if self.trace_attempt_start == 0 {
            now
        } else {
            self.trace_attempt_start
        };
        self.trace_attempt_start = 0;
        rt.tracer().push(Span {
            trace_id: id,
            kind: SpanKind::HtmAttempt,
            start_ns: start,
            dur_ns: now.saturating_sub(start),
            a: outcome,
            b: rt.htm().clock_now(),
        });
    }

    /// Flight recorder: marks a perceptron touch (predict or train) as an
    /// instant span on the current trace.
    #[inline]
    fn trace_perceptron(rt: &GoccRuntime, site: usize, action: u64) {
        let id = rt.tracer().current();
        if id == 0 {
            return;
        }
        rt.tracer().push(Span {
            trace_id: id,
            kind: SpanKind::Perceptron,
            start_ns: trace::now_ns(),
            dur_ns: 0,
            a: action,
            b: site as u64,
        });
    }

    /// The perceptron indices for this section, computed on first use.
    fn section_features(&mut self, rt: &GoccRuntime, lock: LockRef<'_>) -> Features {
        *self
            .features
            .get_or_insert_with(|| rt.perceptron().features(lock.lock_id(), self.site))
    }

    /// The lock point: Listing 19's `FastLock`.
    ///
    /// Decides HTM vs. lock (perceptron, single-thread bypass, retry
    /// budget), spin-waits for the lock to look free, then either starts /
    /// joins a speculation or acquires the lock pessimistically.
    ///
    /// At the outermost level this never fails. Inside an active fast-path
    /// scope it may return an abort (e.g. nesting depth, inner lock held);
    /// the scope is then rolled back and the caller must re-execute the
    /// section from its outermost `fast_lock`.
    pub fn fast_lock<'a>(&mut self, scope: &mut HtmScope<'a>, lock: LockRef<'a>) -> TxResult<()> {
        // A lock point (re)starts this pair's section: drop any feature
        // indices cached for a previous lock so training cannot touch a
        // stale cell when the pair is reused with a different mutex.
        self.features = None;
        let nested_outcome = match &mut scope.state {
            ScopeState::Fast { tx, depth } => {
                // Nested pair inside a speculation: flat nesting.
                let result = tx
                    .enter_nested()
                    .and_then(|()| tx.subscribe_lock(lock.word(), lock.kind()));
                if result.is_ok() {
                    *depth += 1;
                }
                Some(result)
            }
            ScopeState::Slow { depth, .. } => {
                // Nested pair inside a slow section: acquire pessimistically.
                lock.acquire(scope.rt);
                *depth += 1;
                self.lk = Some(lock.key());
                Some(Ok(()))
            }
            ScopeState::Idle => None,
        };
        match nested_outcome {
            Some(Ok(())) => {
                if scope.is_fastpath() {
                    self.lk = Some(lock.key());
                }
                Ok(())
            }
            Some(Err(abort)) => {
                self.note_abort(scope.rt, lock, &abort);
                scope.abort_restart();
                Err(abort)
            }
            None => {
                self.begin_section(scope, lock);
                Ok(())
            }
        }
    }

    fn begin_section<'a>(&mut self, scope: &mut HtmScope<'a>, lock: LockRef<'a>) {
        let rt = scope.rt;
        if self.decision.is_none() {
            // First execution of this section by this OptiLock: take the
            // retry budget and ask the predictor.
            self.attempts_left = rt.policy().max_attempts;
            self.attempted_htm = false;
        }
        if self.section_start.is_none() && rt.telemetry().is_some() {
            // First execution only: retries and fallbacks are part of the
            // section's total latency, attributed to the completing path.
            self.section_start = Some(Instant::now());
        }
        // One decision per execution: a speculation that aborts at its
        // lock subscription decides again, like any other re-execution.
        loop {
            let decision = self.decide(rt, lock);
            self.decision = Some(decision);
            self.predicted_fast = decision == Decision::Htm;
            if decision != Decision::Htm {
                break;
            }
            // Spin with pause until the lock looks free (Listing 19).
            let mut spins = rt.policy().lock_wait_spins;
            while !lock.available() && spins > 0 {
                if spins.is_multiple_of(32) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                spins -= 1;
            }
            self.attempted_htm = true;
            if rt.tracer().current() != 0 {
                self.trace_attempt_start = trace::now_ns();
            }
            let mut tx = Tx::fast(rt.htm());
            tx.set_fault_site(self.site);
            if let Some(t) = rt.telemetry() {
                t.sites.record_start(self.site, lock.lock_id());
                if tx.ctx_reused() {
                    t.note_ctx_reused();
                }
            }
            match tx.subscribe_lock(lock.word(), lock.kind()) {
                Ok(()) => {
                    scope.state = ScopeState::Fast { tx, depth: 1 };
                    self.lk = Some(lock.key());
                    return;
                }
                Err(abort) => {
                    if tx.inline_overflowed() {
                        if let Some(t) = rt.telemetry() {
                            t.note_inline_overflow();
                        }
                    }
                    tx.rollback();
                    self.note_abort(rt, lock, &abort);
                }
            }
        }
        // Slow path: the original lock.
        lock.acquire(rt);
        scope.state = ScopeState::Slow {
            tx: Tx::direct(rt.htm()),
            depth: 1,
        };
        self.lk = Some(lock.key());
    }

    fn decide(&mut self, rt: &GoccRuntime, lock: LockRef<'_>) -> Decision {
        if self.section_aborts >= rt.policy().watchdog_abort_bound {
            // Bounded-retry guarantee: whatever the configured budget,
            // this section has re-executed enough. Force the lock path —
            // it cannot abort, so the section completes on this execution.
            OptiStats::add(&rt.stats.watchdog_forced);
            if let Some(t) = rt.telemetry() {
                t.note_watchdog_forced();
            }
            return Decision::SlowWatchdog;
        }
        if self.attempts_left == 0 {
            return Decision::SlowExhausted;
        }
        if rt.procs() == 1 {
            // §5.4.2: never speculate in a single-OS-thread process.
            OptiStats::add(&rt.stats.single_thread_bypass);
            return Decision::SlowBypass;
        }
        if !rt.perceptron_enabled() {
            return Decision::Htm;
        }
        let features = self.section_features(rt, lock);
        if rt.perceptron().predict(features) {
            Self::trace_perceptron(rt, self.site, PERCEPTRON_PREDICT_HTM);
            Decision::Htm
        } else {
            OptiStats::add(&rt.stats.perceptron_slow);
            Self::trace_perceptron(rt, self.site, PERCEPTRON_PREDICT_SLOW);
            Decision::SlowPerceptron
        }
    }

    fn note_abort(&mut self, rt: &GoccRuntime, lock: LockRef<'_>, abort: &Abort) {
        self.attempts_left = self.attempts_left.saturating_sub(1);
        self.section_aborts = self.section_aborts.saturating_add(1);
        if !abort.cause.is_transient() {
            // Deterministic causes exhaust the budget immediately.
            self.attempts_left = 0;
        }
        self.trace_attempt_outcome(rt, 1 + abort.cause.index() as u64);
        if let Some(t) = rt.telemetry() {
            let cause = abort.cause.index();
            t.sites.record_abort(self.site, lock.lock_id(), cause);
            t.events.push(Event {
                site: self.site,
                lock: lock.lock_id(),
                predicted_fast: self.predicted_fast,
                outcome: EventOutcome::Abort(cause as u8),
            });
        }
    }

    /// The unlock point: Listing 19's `FastUnlock`.
    ///
    /// On the slow path this releases the lock *passed in* (exactly like
    /// the published pseudo-code). On the fast path it verifies the mutex
    /// against the one memorized by `fast_lock`; a mismatch — the signature
    /// of an analyzer mis-pairing such as hand-over-hand locking — aborts
    /// the speculation and enforces the slow path for the re-execution.
    ///
    /// Returns `Err` when the section must be re-executed by the caller
    /// (mismatch abort or commit-time conflict).
    pub fn fast_unlock<'a>(&mut self, scope: &mut HtmScope<'a>, lock: LockRef<'a>) -> TxResult<()> {
        let rt = scope.rt;
        match std::mem::replace(&mut scope.state, ScopeState::Idle) {
            ScopeState::Idle => panic!("optilock: FastUnlock without FastLock"),
            ScopeState::Slow { tx, depth } => {
                lock.release(rt);
                if depth > 1 {
                    scope.state = ScopeState::Slow {
                        tx,
                        depth: depth - 1,
                    };
                } else {
                    drop(tx);
                    self.complete_section(rt, lock, false);
                }
                Ok(())
            }
            ScopeState::Fast { mut tx, depth } => {
                if self.lk != Some(lock.key()) {
                    // Mutex mismatch: roll everything back, enforce slow.
                    OptiStats::add(&rt.stats.mismatch_recoveries);
                    let abort = tx.explicit_abort(MUTEX_MISMATCH_CODE);
                    tx.rollback();
                    self.note_abort(rt, lock, &abort);
                    return Err(abort);
                }
                if depth > 1 {
                    tx.exit_nested();
                    // Inner pair finished speculatively; train optimistically
                    // like the hardware version, whose nested XEND also runs
                    // the weight update.
                    self.train_fast_completion(rt, lock);
                    scope.state = ScopeState::Fast {
                        tx,
                        depth: depth - 1,
                    };
                    return Ok(());
                }
                match tx.commit() {
                    Ok(()) => {
                        self.trace_attempt_outcome(rt, 0);
                        if let Some(t) = rt.telemetry() {
                            t.sites.record_commit(self.site, lock.lock_id());
                            match self.section_start.take() {
                                Some(start) => {
                                    t.fast_latency.record(start.elapsed().as_nanos() as u64);
                                }
                                None => t.note_dropped(),
                            }
                            t.events.push(Event {
                                site: self.site,
                                lock: lock.lock_id(),
                                predicted_fast: self.predicted_fast,
                                outcome: EventOutcome::FastCommit,
                            });
                        }
                        self.train_fast_completion(rt, lock);
                        self.finish();
                        Ok(())
                    }
                    Err(abort) => {
                        self.note_abort(rt, lock, &abort);
                        Err(abort)
                    }
                }
            }
        }
    }

    fn train_fast_completion(&mut self, rt: &GoccRuntime, lock: LockRef<'_>) {
        if rt.perceptron_enabled() {
            let features = self.section_features(rt, lock);
            rt.perceptron().reward(features);
            Self::trace_perceptron(rt, self.site, PERCEPTRON_REWARD);
        }
    }

    fn complete_section(&mut self, rt: &GoccRuntime, lock: LockRef<'_>, _on_fast: bool) {
        OptiStats::add(&rt.stats.slow_sections);
        if let Some(t) = rt.telemetry() {
            t.sites.record_slow(self.site, lock.lock_id());
            match self.section_start.take() {
                Some(start) => t.slow_latency.record(start.elapsed().as_nanos() as u64),
                None => t.note_dropped(),
            }
            t.events.push(Event {
                site: self.site,
                lock: lock.lock_id(),
                predicted_fast: self.predicted_fast,
                outcome: EventOutcome::SlowSection,
            });
        }
        if self.attempted_htm && rt.perceptron_enabled() {
            // HTM was tried but the section finished on the lock: penalize.
            let features = self.section_features(rt, lock);
            rt.perceptron().penalize(features);
            Self::trace_perceptron(rt, self.site, PERCEPTRON_PENALIZE);
        }
        self.finish();
    }

    fn finish(&mut self) {
        self.lk = None;
        self.decision = None;
        self.features = None;
        self.attempted_htm = false;
        self.attempts_left = u32::MAX;
        self.section_aborts = 0;
        self.section_start = None;
        self.trace_attempt_start = 0;
    }
}

/// Runs `body` as a critical section eliding `lock`, re-executing on
/// aborts exactly as hardware re-executes after rolling back to `xbegin`.
///
/// The body receives the ambient [`Tx`]; it must route every access to the
/// protected data through it and propagate aborts with `?`.
pub fn critical<'a, R>(
    rt: &'a GoccRuntime,
    site: usize,
    lock: LockRef<'a>,
    mut body: impl FnMut(&mut Tx<'a>) -> TxResult<R>,
) -> R {
    let mut ol = OptiLock::new(site);
    loop {
        let mut scope = HtmScope::new(rt);
        if ol.fast_lock(&mut scope, lock).is_err() {
            continue;
        }
        match body(scope.tx()) {
            Ok(value) => match ol.fast_unlock(&mut scope, lock) {
                Ok(()) => return value,
                Err(_) => continue,
            },
            Err(abort) => {
                debug_assert!(
                    scope.is_fastpath(),
                    "critical-section bodies must not fail in direct mode (cause: {})",
                    abort.cause
                );
                ol.note_abort(rt, lock, &abort);
                scope.abort_restart();
            }
        }
    }
}

/// [`critical`] specialized to a `sync.Mutex`.
pub fn critical_mutex<'a, R>(
    rt: &'a GoccRuntime,
    site: usize,
    m: &'a ElidableMutex,
    body: impl FnMut(&mut Tx<'a>) -> TxResult<R>,
) -> R {
    critical(rt, site, LockRef::Mutex(m), body)
}

/// [`critical`] specialized to a `sync.RWMutex` read acquisition.
pub fn critical_read<'a, R>(
    rt: &'a GoccRuntime,
    site: usize,
    rw: &'a ElidableRwMutex,
    body: impl FnMut(&mut Tx<'a>) -> TxResult<R>,
) -> R {
    critical(rt, site, LockRef::Read(rw), body)
}

/// [`critical`] specialized to a `sync.RWMutex` write acquisition.
pub fn critical_write<'a, R>(
    rt: &'a GoccRuntime,
    site: usize,
    rw: &'a ElidableRwMutex,
    body: impl FnMut(&mut Tx<'a>) -> TxResult<R>,
) -> R {
    critical(rt, site, LockRef::Write(rw), body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::GoccConfig;
    use gocc_htm::TxVar;

    #[test]
    fn critical_mutex_increments_on_fast_path() {
        let rt = GoccRuntime::new_default();
        let m = ElidableMutex::new();
        let v = TxVar::new(0u64);
        for _ in 0..10 {
            critical_mutex(&rt, crate::call_site!(), &m, |tx| {
                let cur = tx.read(&v)?;
                tx.write(&v, cur + 1)
            });
        }
        let snap = rt.stats().snapshot();
        assert_eq!(snap.fast_commits, 10, "uncontended sections must elide");
        assert_eq!(snap.slow_sections, 0);
        let mut check = Tx::direct(rt.htm());
        assert_eq!(check.read(&v).unwrap(), 10);
    }

    #[test]
    fn held_lock_forces_slow_path_eventually() {
        let rt = GoccRuntime::new_default();
        let m = ElidableMutex::new();
        let v = TxVar::new(0u64);
        // Hold the lock pessimistically from this thread?  Cannot — the
        // slow path would deadlock. Instead verify interop: a pessimistic
        // owner in another thread forces either waiting or fallback, and
        // the count stays exact.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        critical_mutex(&rt, crate::call_site!(), &m, |tx| {
                            let cur = tx.read(&v)?;
                            tx.write(&v, cur + 1)
                        });
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..50 {
                    m.lock_raw();
                    std::hint::spin_loop();
                    m.unlock_raw();
                }
            });
        });
        let mut check = Tx::direct(rt.htm());
        assert_eq!(check.read(&v).unwrap(), 400);
    }

    #[test]
    fn unfriendly_section_falls_back_and_perceptron_learns() {
        let rt = GoccRuntime::new_default();
        let m = ElidableMutex::new();
        let site = crate::call_site!();
        let mut outputs = 0u64;
        for _ in 0..50 {
            critical_mutex(&rt, site, &m, |tx| {
                tx.unfriendly()?; // models an IO operation in the section
                outputs += 1;
                Ok(())
            });
        }
        assert_eq!(
            outputs, 50,
            "every section must complete exactly once on the slow path"
        );
        let snap = rt.stats().snapshot();
        assert_eq!(snap.slow_sections, 50);
        // The perceptron must stop predicting HTM after a few penalties:
        // far fewer than 50 HTM attempts happened.
        assert!(
            snap.htm_attempts < 20,
            "perceptron failed to learn: {} attempts",
            snap.htm_attempts
        );
        assert!(snap.perceptron_slow > 0);
    }

    #[test]
    fn np_mode_always_attempts_htm() {
        let rt = GoccRuntime::new(GoccConfig::no_perceptron());
        let m = ElidableMutex::new();
        let site = crate::call_site!();
        for _ in 0..20 {
            critical_mutex(&rt, site, &m, |tx| tx.unfriendly());
        }
        let snap = rt.stats().snapshot();
        assert_eq!(snap.slow_sections, 20);
        assert_eq!(snap.htm_attempts, 20, "NP mode must attempt HTM every time");
    }

    #[test]
    fn single_thread_bypass() {
        let rt = GoccRuntime::new(GoccConfig {
            procs: 1,
            ..GoccConfig::standard()
        });
        let m = ElidableMutex::new();
        critical_mutex(&rt, crate::call_site!(), &m, |_tx| Ok(()));
        let snap = rt.stats().snapshot();
        assert_eq!(snap.htm_attempts, 0);
        assert_eq!(snap.single_thread_bypass, 1);
        assert_eq!(snap.slow_sections, 1);
    }

    #[test]
    fn perfectly_nested_pairs_commit_once() {
        let rt = GoccRuntime::new_default();
        let a = ElidableMutex::new();
        let b = ElidableMutex::new();
        let v = TxVar::new(0u64);
        let mut scope = HtmScope::new(&rt);
        let mut ol1 = OptiLock::new(crate::call_site!());
        let mut ol2 = OptiLock::new(crate::call_site!());
        // Listing 17: a.Lock(); b.Lock(); b.Unlock(); a.Unlock().
        ol1.fast_lock(&mut scope, LockRef::Mutex(&a)).unwrap();
        ol2.fast_lock(&mut scope, LockRef::Mutex(&b)).unwrap();
        let cur = scope.tx().read(&v).unwrap();
        scope.tx().write(&v, cur + 1).unwrap();
        ol2.fast_unlock(&mut scope, LockRef::Mutex(&b)).unwrap();
        ol1.fast_unlock(&mut scope, LockRef::Mutex(&a)).unwrap();
        assert!(!scope.is_active());
        let snap = rt.htm().stats().snapshot();
        assert_eq!(snap.commits, 1, "flat nesting commits exactly once");
        let mut check = Tx::direct(rt.htm());
        assert_eq!(check.read(&v).unwrap(), 1);
    }

    #[test]
    fn imperfectly_nested_pairs_commit_when_both_transformed() {
        // Listing 18 with both pairs transformed: each OptiLock's lkMutex
        // matches its own pair, so no mismatch fires.
        let rt = GoccRuntime::new_default();
        let a = ElidableMutex::new();
        let b = ElidableMutex::new();
        let mut scope = HtmScope::new(&rt);
        let mut ol1 = OptiLock::new(crate::call_site!());
        let mut ol2 = OptiLock::new(crate::call_site!());
        ol1.fast_lock(&mut scope, LockRef::Mutex(&a)).unwrap();
        ol2.fast_lock(&mut scope, LockRef::Mutex(&b)).unwrap();
        ol1.fast_unlock(&mut scope, LockRef::Mutex(&a)).unwrap();
        ol2.fast_unlock(&mut scope, LockRef::Mutex(&b)).unwrap();
        assert!(!scope.is_active());
        assert_eq!(rt.stats().snapshot().mismatch_recoveries, 0);
    }

    #[test]
    fn hand_over_hand_mismatch_recovers_to_slow_path() {
        // Listing 6: the analyzer paired b.Lock() with a.Unlock(). The
        // runtime must detect the mismatch, abort, and redo on the slow
        // path, preserving correctness.
        let rt = GoccRuntime::new_default();
        let a = ElidableMutex::new();
        let b = ElidableMutex::new();
        let v = TxVar::new(0u64);
        let mut ol = OptiLock::new(crate::call_site!());
        // Outer a.Lock() was left untransformed.
        a.lock_raw();
        loop {
            let mut scope = HtmScope::new(&rt);
            // Transformed inner pair: FastLock(b) ... FastUnlock(a).
            if ol.fast_lock(&mut scope, LockRef::Mutex(&b)).is_err() {
                continue;
            }
            let write_ok = (|| {
                let cur = scope.tx().read(&v)?;
                scope.tx().write(&v, cur + 1)
            })();
            if write_ok.is_err() {
                scope.abort_restart();
                continue;
            }
            match ol.fast_unlock(&mut scope, LockRef::Mutex(&a)) {
                Ok(()) => break,
                Err(abort) => {
                    assert_eq!(
                        abort.cause,
                        gocc_htm::AbortCause::Explicit(MUTEX_MISMATCH_CODE)
                    );
                    if scope.is_active() {
                        scope.abort_restart();
                    }
                    continue;
                }
            }
        }
        // The slow-path retry released `a` (as the paper's slowpath
        // FastUnlock(l) releases the passed-in lock) and acquired `b`,
        // which the outer untransformed b.Unlock() now releases.
        b.unlock_raw();
        assert!(!a.is_locked());
        assert!(!b.is_locked());
        let snap = rt.stats().snapshot();
        assert_eq!(snap.mismatch_recoveries, 1);
        assert_eq!(snap.slow_sections, 1);
        let mut check = Tx::direct(rt.htm());
        assert_eq!(
            check.read(&v).unwrap(),
            1,
            "the aborted speculation must not have published its write"
        );
    }

    #[test]
    fn rw_read_elision_tolerates_slow_readers() {
        let rt = GoccRuntime::new_default();
        let rw = ElidableRwMutex::new();
        let v = TxVar::new(7u64);
        // A pessimistic reader is inside the lock.
        rw.rlock_raw();
        let got = critical_read(&rt, crate::call_site!(), &rw, |tx| tx.read(&v));
        rw.runlock_raw();
        assert_eq!(got, 7);
        assert_eq!(
            rt.stats().snapshot().fast_commits,
            1,
            "read elision must not abort on slow readers"
        );
    }

    #[test]
    fn rw_write_elision_aborts_on_slow_readers() {
        let rt = GoccRuntime::new_default();
        let rw = ElidableRwMutex::new();
        let v = TxVar::new(0u64);
        rw.rlock_raw();
        // Release the read lock from another thread after a delay so the
        // slow path can make progress.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                rw.runlock_raw();
            });
            critical_write(&rt, crate::call_site!(), &rw, |tx| tx.write(&v, 1));
        });
        let mut check = Tx::direct(rt.htm());
        assert_eq!(check.read(&v).unwrap(), 1);
        let snap = rt.stats().snapshot();
        assert_eq!(
            snap.fast_commits, 0,
            "write elision must not speculate past an active slow reader"
        );
        assert_eq!(snap.slow_sections, 1);
    }

    #[test]
    fn concurrent_disjoint_sections_scale_without_aborts() {
        let rt = GoccRuntime::new_default();
        let m = ElidableMutex::new();
        // Each thread updates its own padded cell: conflict-free under HTM.
        let cells: Vec<gocc_htm::Padded<TxVar<u64>>> =
            (0..4).map(|_| gocc_htm::Padded(TxVar::new(0))).collect();
        std::thread::scope(|s| {
            for cell in &cells {
                s.spawn(|| {
                    for _ in 0..200 {
                        critical_mutex(&rt, crate::call_site!(), &m, |tx| {
                            let cur = tx.read(&cell.0)?;
                            tx.write(&cell.0, cur + 1)
                        });
                    }
                });
            }
        });
        for cell in &cells {
            let mut check = Tx::direct(rt.htm());
            assert_eq!(check.read(&cell.0).unwrap(), 200);
        }
        let snap = rt.stats().snapshot();
        assert_eq!(snap.fast_commits + snap.slow_sections, 800);
        assert!(
            snap.fast_commits > 700,
            "disjoint sections should mostly elide, got {} fast",
            snap.fast_commits
        );
    }

    #[test]
    fn conflicting_sections_remain_correct() {
        let rt = GoccRuntime::new_default();
        let m = ElidableMutex::new();
        let v = TxVar::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..250 {
                        critical_mutex(&rt, crate::call_site!(), &m, |tx| {
                            let cur = tx.read(&v)?;
                            tx.write(&v, cur + 1)
                        });
                    }
                });
            }
        });
        let mut check = Tx::direct(rt.htm());
        assert_eq!(check.read(&v).unwrap(), 1000, "lost updates under elision");
    }

    #[test]
    fn sampled_sections_record_attempt_and_perceptron_spans() {
        let rt = GoccRuntime::new_default();
        rt.tracer().configure(1, 7);
        let id = rt.tracer().begin_request();
        assert_ne!(id, 0, "sample-every-request must sample");
        trace::set_current(id);
        let m = ElidableMutex::new();
        let v = TxVar::new(0u64);
        for _ in 0..5 {
            critical_mutex(&rt, crate::call_site!(), &m, |tx| {
                let cur = tx.read(&v)?;
                tx.write(&v, cur + 1)
            });
        }
        trace::clear_current();
        let spans = rt.tracer().drain();
        rt.tracer().configure(0, 0);
        let attempts: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::HtmAttempt)
            .collect();
        assert_eq!(attempts.len(), 5, "one attempt span per committed section");
        assert!(
            attempts.iter().all(|s| s.a == 0),
            "uncontended attempts commit"
        );
        assert!(spans.iter().all(|s| s.trace_id == id));
        assert!(
            spans.iter().any(|s| s.kind == SpanKind::Perceptron),
            "predict/train activity must be traced"
        );
    }

    #[test]
    fn traced_aborts_name_their_cause() {
        let rt = GoccRuntime::new_default();
        rt.tracer().configure(1, 11);
        let id = rt.tracer().begin_request();
        trace::set_current(id);
        let m = ElidableMutex::new();
        let site = crate::call_site!();
        critical_mutex(&rt, site, &m, |tx| tx.unfriendly());
        trace::clear_current();
        let spans = rt.tracer().drain();
        rt.tracer().configure(0, 0);
        let aborted: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::HtmAttempt && s.a != 0)
            .collect();
        assert!(!aborted.is_empty(), "the unfriendly abort must be traced");
        assert_eq!(aborted[0].detail(), Some("unfriendly"));
    }

    #[test]
    #[should_panic(expected = "FastUnlock without FastLock")]
    fn unlock_without_lock_panics() {
        let rt = GoccRuntime::new_default();
        let m = ElidableMutex::new();
        let mut scope = HtmScope::new(&rt);
        let mut ol = OptiLock::new(crate::call_site!());
        let _ = ol.fast_unlock(&mut scope, LockRef::Mutex(&m));
    }
}
