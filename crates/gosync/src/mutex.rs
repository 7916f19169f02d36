//! A port of Go's `sync.Mutex`, including starvation mode.

use std::sync::atomic::{AtomicI32, Ordering};
use std::time::Instant;

use crate::sema::Semaphore;

const MUTEX_LOCKED: i32 = 1;
const MUTEX_WOKEN: i32 = 2;
const MUTEX_STARVING: i32 = 4;
const MUTEX_WAITER_SHIFT: u32 = 3;

/// 1 ms, Go's `starvationThresholdNs`.
const STARVATION_THRESHOLD_NS: u128 = 1_000_000;

/// Iterations of active spinning before blocking (Go's `active_spin`).
const ACTIVE_SPIN: u32 = 4;
/// Pause instructions per spin iteration (Go's `active_spin_cnt`).
const ACTIVE_SPIN_CNT: u32 = 30;

/// Go's `sync.Mutex`: a barging mutex with a fairness (starvation) mode.
///
/// The state word packs a locked bit, a woken bit, a starving bit and a
/// waiter count; blocked acquirers park on a FIFO/LIFO runtime
/// [`Semaphore`]. In *normal* mode arriving lockers may barge ahead of
/// queued waiters (good throughput); once a waiter has been blocked for
/// more than 1 ms the mutex flips to *starvation* mode: unlocks hand the
/// mutex directly to the queue head and arrivals go to the back.
///
/// The starvation flip is load-bearing for reproducing the paper's
/// fastcache `CacheSetGet` benchmark (§6.1), where the Go runtime
/// "recognizes it as a starved mutex and takes away the time slice of some
/// of the goroutines".
#[derive(Default)]
pub struct GoMutex {
    state: AtomicI32,
    sema: Semaphore,
}

impl GoMutex {
    /// Creates an unlocked mutex.
    #[must_use]
    pub fn new() -> Self {
        GoMutex::default()
    }

    /// Whether the locked bit is currently set.
    ///
    /// This is the raw first-word inspection `optiLib`'s `FastLock` performs
    /// on a `sync.Mutex` ("simply de-references the first word of the Mutex
    /// pointer, which contains the lock status").
    #[must_use]
    pub fn is_locked(&self) -> bool {
        self.state.load(Ordering::Relaxed) & MUTEX_LOCKED != 0
    }

    /// Whether the mutex is currently in starvation mode.
    #[must_use]
    pub fn is_starving(&self) -> bool {
        self.state.load(Ordering::Relaxed) & MUTEX_STARVING != 0
    }

    /// Acquirers counted as queued on the mutex: the waiter count of the
    /// state word. An acquirer enters it just before it parks.
    #[must_use]
    pub fn waiters(&self) -> usize {
        (self.state.load(Ordering::Relaxed) >> MUTEX_WAITER_SHIFT) as usize
    }

    /// Acquires the mutex, returning an RAII guard.
    pub fn lock(&self) -> GoMutexGuard<'_> {
        self.lock_raw();
        GoMutexGuard { mutex: self }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<GoMutexGuard<'_>> {
        let old = self.state.load(Ordering::Relaxed);
        if old & (MUTEX_LOCKED | MUTEX_STARVING) != 0 {
            return None;
        }
        self.state
            .compare_exchange(
                old,
                old | MUTEX_LOCKED,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .ok()
            .map(|_| GoMutexGuard { mutex: self })
    }

    /// Acquires the mutex without producing a guard (Go's `Lock()`).
    ///
    /// Prefer [`GoMutex::lock`]; the raw form exists for `optiLib`, whose
    /// `FastLock`/`FastUnlock` calls do not nest lexically.
    pub fn lock_raw(&self) {
        if self
            .state
            .compare_exchange(0, MUTEX_LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        self.lock_slow();
    }

    fn lock_slow(&self) {
        let mut wait_start: Option<Instant> = None;
        let mut starving = false;
        let mut awoke = false;
        let mut iter = 0u32;
        let mut old = self.state.load(Ordering::Relaxed);
        loop {
            // Active spinning while the mutex is locked, not starving, and
            // the spin budget lasts.
            if old & (MUTEX_LOCKED | MUTEX_STARVING) == MUTEX_LOCKED && can_spin(iter) {
                if !awoke
                    && old & MUTEX_WOKEN == 0
                    && (old >> MUTEX_WAITER_SHIFT) != 0
                    && self
                        .state
                        .compare_exchange(
                            old,
                            old | MUTEX_WOKEN,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                {
                    awoke = true;
                }
                do_spin();
                iter += 1;
                old = self.state.load(Ordering::Relaxed);
                continue;
            }
            let mut new = old;
            // Don't try to acquire a starving mutex; arrivals must queue.
            if old & MUTEX_STARVING == 0 {
                new |= MUTEX_LOCKED;
            }
            if old & (MUTEX_LOCKED | MUTEX_STARVING) != 0 {
                new += 1 << MUTEX_WAITER_SHIFT;
            }
            if starving && old & MUTEX_LOCKED != 0 {
                new |= MUTEX_STARVING;
            }
            if awoke {
                debug_assert!(new & MUTEX_WOKEN != 0, "inconsistent woken state");
                new &= !MUTEX_WOKEN;
            }
            if self
                .state
                .compare_exchange(old, new, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                if old & (MUTEX_LOCKED | MUTEX_STARVING) == 0 {
                    return; // acquired with the CAS
                }
                // Waiters that already waited queue at the front.
                let queue_lifo = wait_start.is_some();
                let start = *wait_start.get_or_insert_with(Instant::now);
                self.sema.acquire(queue_lifo);
                starving = starving || start.elapsed().as_nanos() > STARVATION_THRESHOLD_NS;
                old = self.state.load(Ordering::Relaxed);
                if old & MUTEX_STARVING != 0 {
                    // Handoff: the unlocker left the mutex to us directly.
                    debug_assert!(
                        old & (MUTEX_LOCKED | MUTEX_WOKEN) == 0 && (old >> MUTEX_WAITER_SHIFT) > 0,
                        "inconsistent starvation handoff state"
                    );
                    let mut delta = MUTEX_LOCKED - (1 << MUTEX_WAITER_SHIFT);
                    if !starving || (old >> MUTEX_WAITER_SHIFT) == 1 {
                        // Exit starvation mode: we are no longer starving or
                        // we are the last waiter.
                        delta -= MUTEX_STARVING;
                    }
                    self.state.fetch_add(delta, Ordering::Acquire);
                    return;
                }
                awoke = true;
                iter = 0;
            } else {
                old = self.state.load(Ordering::Relaxed);
            }
        }
    }

    /// Releases the mutex (Go's `Unlock()`).
    ///
    /// # Panics
    ///
    /// Panics if the mutex is not locked, like Go's fatal error.
    pub fn unlock_raw(&self) {
        let new = self.state.fetch_add(-MUTEX_LOCKED, Ordering::Release) - MUTEX_LOCKED;
        if new != 0 {
            self.unlock_slow(new);
        }
    }

    fn unlock_slow(&self, mut new: i32) {
        assert!(
            (new + MUTEX_LOCKED) & MUTEX_LOCKED != 0,
            "gosync: unlock of unlocked mutex"
        );
        if new & MUTEX_STARVING == 0 {
            let mut old = new;
            loop {
                // Nothing to wake, or someone else is already active.
                if (old >> MUTEX_WAITER_SHIFT) == 0
                    || old & (MUTEX_LOCKED | MUTEX_WOKEN | MUTEX_STARVING) != 0
                {
                    return;
                }
                new = (old - (1 << MUTEX_WAITER_SHIFT)) | MUTEX_WOKEN;
                if self
                    .state
                    .compare_exchange(old, new, Ordering::Release, Ordering::Relaxed)
                    .is_ok()
                {
                    self.sema.release(false);
                    return;
                }
                old = self.state.load(Ordering::Relaxed);
            }
        } else {
            // Starving: hand the mutex to the queue head. The locked bit is
            // not set here; the waiter installs it on wake-up.
            self.sema.release(true);
        }
    }
}

fn can_spin(iter: u32) -> bool {
    iter < ACTIVE_SPIN
}

fn do_spin() {
    for _ in 0..ACTIVE_SPIN_CNT {
        std::hint::spin_loop();
    }
}

impl std::fmt::Debug for GoMutex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.load(Ordering::Relaxed);
        f.debug_struct("GoMutex")
            .field("locked", &(s & MUTEX_LOCKED != 0))
            .field("starving", &(s & MUTEX_STARVING != 0))
            .field("waiters", &(s >> MUTEX_WAITER_SHIFT))
            .finish()
    }
}

/// RAII guard for [`GoMutex`].
#[must_use = "the mutex unlocks when the guard is dropped"]
#[derive(Debug)]
pub struct GoMutexGuard<'a> {
    mutex: &'a GoMutex,
}

impl Drop for GoMutexGuard<'_> {
    fn drop(&mut self) {
        self.mutex.unlock_raw();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn lock_unlock_single_thread() {
        let m = GoMutex::new();
        assert!(!m.is_locked());
        {
            let _g = m.lock();
            assert!(m.is_locked());
            assert!(m.try_lock().is_none());
        }
        assert!(!m.is_locked());
        assert!(m.try_lock().is_some());
    }

    #[test]
    #[should_panic(expected = "unlock of unlocked mutex")]
    fn unlock_unlocked_panics() {
        let m = GoMutex::new();
        // fetch_add drives state to -1; the slow path detects the
        // underflow and panics like Go's fatal error.
        m.unlock_raw();
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let m = Arc::new(GoMutex::new());
        let counter = Arc::new(AtomicU64::new(0));
        const THREADS: usize = 8;
        const ITERS: u64 = 2_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let m = Arc::clone(&m);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..ITERS {
                        let _g = m.lock();
                        // Non-atomic increment pattern under the lock.
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), THREADS as u64 * ITERS);
    }

    #[test]
    fn starvation_mode_engages_under_hold() {
        let m = Arc::new(GoMutex::new());
        let m2 = Arc::clone(&m);
        let g = m.lock();
        let waiter = std::thread::spawn(move || {
            let _g = m2.lock();
        });
        // Hold the lock past the 1 ms starvation threshold while the
        // waiter blocks.
        std::thread::sleep(std::time::Duration::from_millis(5));
        drop(g);
        waiter.join().unwrap();
        // The waiter entered starvation mode and, being the last waiter,
        // exited it again on acquire; the mutex must be fully released.
        assert!(!m.is_locked());
        assert!(!m.is_starving());
    }
}
