//! HTM abort injection.
//!
//! `gocc-htm` consults an [`HtmFaultPlan`] once per transaction attempt
//! (lazily, at the first fault-checkable operation after the call site is
//! known) and dooms the transaction with the drawn cause. The four
//! injectable classes map onto the TSX-style abort taxonomy the retry
//! policy keys on:
//!
//! | [`InjectedAbort`] | `gocc_htm::AbortCause`       | retry policy    |
//! |-------------------|------------------------------|-----------------|
//! | `Conflict`        | `Conflict`                   | transient       |
//! | `Spurious`        | `Retry`                      | transient       |
//! | `LockHeld`        | `Explicit(LOCK_HELD_CODE)`   | transient       |
//! | `Capacity`        | `Capacity`                   | give up → lock  |
//!
//! The mapping itself lives in `gocc-htm` (this crate must stay below it
//! in the dependency order).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::seq::SeqTable;
use crate::{decide, unit};

/// An abort class the plan can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedAbort {
    /// A data conflict with another transaction (transient).
    Conflict,
    /// Read/write-set overflow (non-transient: retrying cannot help).
    Capacity,
    /// The fallback lock was observed held (`Explicit(LOCK_HELD_CODE)`).
    LockHeld,
    /// A cause-less hardware hiccup (`Retry`).
    Spurious,
}

impl InjectedAbort {
    /// Stable index into [`INJECTED_ABORT_NAMES`] and counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            InjectedAbort::Conflict => 0,
            InjectedAbort::Capacity => 1,
            InjectedAbort::LockHeld => 2,
            InjectedAbort::Spurious => 3,
        }
    }
}

/// Names matching [`InjectedAbort::index`], for reports.
pub const INJECTED_ABORT_NAMES: [&str; 4] = ["conflict", "capacity", "lock_held", "spurious"];

/// Per-attempt injection probabilities for the four abort classes.
///
/// Probabilities are absolute (not conditional): `conflict: 0.1,
/// capacity: 0.05` means 10% of attempts abort with Conflict, 5% with
/// Capacity, 85% run clean. The sum must be ≤ 1.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AbortMix {
    /// P(injected Conflict) per attempt.
    pub conflict: f64,
    /// P(injected Capacity) per attempt.
    pub capacity: f64,
    /// P(injected lock-held explicit abort) per attempt.
    pub lock_held: f64,
    /// P(injected Spurious/Retry) per attempt.
    pub spurious: f64,
}

impl AbortMix {
    /// An even split of `total` across all four classes.
    #[must_use]
    pub fn uniform(total: f64) -> Self {
        let each = total / 4.0;
        AbortMix {
            conflict: each,
            capacity: each,
            lock_held: each,
            spurious: each,
        }
    }

    /// Total injection probability per attempt.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.conflict + self.capacity + self.lock_held + self.spurious
    }

    /// Classifies a uniform draw in `[0, 1)` against the cumulative mix.
    fn classify(&self, u: f64) -> Option<InjectedAbort> {
        let mut edge = self.conflict;
        if u < edge {
            return Some(InjectedAbort::Conflict);
        }
        edge += self.capacity;
        if u < edge {
            return Some(InjectedAbort::Capacity);
        }
        edge += self.lock_held;
        if u < edge {
            return Some(InjectedAbort::LockHeld);
        }
        edge += self.spurious;
        if u < edge {
            return Some(InjectedAbort::Spurious);
        }
        None
    }
}

/// Deterministic per-site HTM abort schedule.
///
/// The `n`-th draw at a site is a pure function of `(seed, site, n)`; see
/// the crate docs for the replay contract. One mix applies at every site
/// and is fixed at construction, so the hot path takes no lock.
#[derive(Debug)]
pub struct HtmFaultPlan {
    seed: u64,
    mix: AbortMix,
    seq: SeqTable,
    injected: [AtomicU64; 4],
}

impl HtmFaultPlan {
    /// A plan applying `mix` at every site.
    #[must_use]
    pub fn new(seed: u64, mix: AbortMix) -> Self {
        HtmFaultPlan {
            seed,
            mix,
            seq: SeqTable::new(),
            injected: Default::default(),
        }
    }

    /// Draws the next decision for `site`: `None` = run clean.
    ///
    /// Each call advances the site's decision index, so callers must draw
    /// exactly once per transaction attempt.
    pub fn draw(&self, site: usize) -> Option<InjectedAbort> {
        if self.mix.total() <= 0.0 {
            return None;
        }
        let n = self.seq.next(site);
        let cause = self.mix.classify(unit(decide(self.seed, site as u64, n)))?;
        self.injected[cause.index()].fetch_add(1, Ordering::Relaxed);
        Some(cause)
    }

    /// Injected-abort counts, indexed per [`InjectedAbort::index`].
    #[must_use]
    pub fn counts(&self) -> [u64; 4] {
        [
            self.injected[0].load(Ordering::Relaxed),
            self.injected[1].load(Ordering::Relaxed),
            self.injected[2].load(Ordering::Relaxed),
            self.injected[3].load(Ordering::Relaxed),
        ]
    }

    /// Total injected aborts across all classes.
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        self.counts().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_mix_never_injects_and_never_advances() {
        let plan = HtmFaultPlan::new(1, AbortMix::default());
        for _ in 0..100 {
            assert_eq!(plan.draw(9), None);
        }
        assert_eq!(plan.total_injected(), 0);
        assert_eq!(plan.seq.drawn(9), 0, "clean sites pay no sequencing");
    }

    #[test]
    fn full_mix_always_injects() {
        let plan = HtmFaultPlan::new(2, AbortMix::uniform(1.0));
        let mut seen = [false; 4];
        for _ in 0..400 {
            let cause = plan.draw(3).expect("total=1.0 must always inject");
            seen[cause.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "all four classes drawn: {seen:?}");
        assert_eq!(plan.total_injected(), 400);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = HtmFaultPlan::new(
            3,
            AbortMix {
                conflict: 0.25,
                ..AbortMix::default()
            },
        );
        let n = 20_000;
        let hits = (0..n).filter(|_| plan.draw(1).is_some()).count();
        let rate = hits as f64 / n as f64;
        assert!((0.23..0.27).contains(&rate), "rate {rate}");
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_site_index() {
        let a = HtmFaultPlan::new(11, AbortMix::uniform(0.6));
        let b = HtmFaultPlan::new(11, AbortMix::uniform(0.6));
        // b visits sites in a different global order; per-site schedules
        // must still match a's exactly.
        let a_5: Vec<_> = (0..50).map(|_| a.draw(5)).collect();
        let a_6: Vec<_> = (0..50).map(|_| a.draw(6)).collect();
        let mut b_5 = Vec::new();
        let mut b_6 = Vec::new();
        for _ in 0..50 {
            b_6.push(b.draw(6));
            b_5.push(b.draw(5));
        }
        assert_eq!(a_5, b_5);
        assert_eq!(a_6, b_6);
    }
}
