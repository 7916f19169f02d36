//! Runtime-wide transaction statistics.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::abort::AbortCause;

/// Lock-free counters describing transactional behavior.
///
/// All counters are updated with relaxed ordering; they are diagnostics, not
/// synchronization. The paper's evaluation reasons about abort causes (e.g.
/// Flatten at 8 cores aborts on conflicts until the perceptron backs off),
/// and these counters are how the reproduction observes the same dynamics.
///
/// A fast attempt is counted exactly once, at its *outcome*: one of the two
/// commit counters, one abort cause, or `rollbacks`. Beginning an attempt
/// writes nothing; [`HtmStats::snapshot`] derives `starts` and `commits`.
#[derive(Debug, Default)]
pub struct HtmStats {
    read_only_commits: AtomicU64,
    writing_commits: AtomicU64,
    /// Live attempts dropped or rolled back before any abort doomed them.
    /// Not in [`StatsSnapshot`]; it only completes the `starts` sum.
    rollbacks: AtomicU64,
    aborts_explicit: AtomicU64,
    aborts_retry: AtomicU64,
    aborts_conflict: AtomicU64,
    aborts_capacity: AtomicU64,
    aborts_debug: AtomicU64,
    aborts_nested: AtomicU64,
    aborts_unfriendly: AtomicU64,
    direct_sections: AtomicU64,
    ctx_fresh: AtomicU64,
    inline_overflows: AtomicU64,
}

/// A point-in-time copy of [`HtmStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Fast-path attempts that have *finished*: committed, aborted, or
    /// been dropped / rolled back. Derived (`commits` + total aborts +
    /// undoomed rollbacks) — beginning an attempt records nothing, so an
    /// attempt still in flight is not in this number yet. At quiescence it
    /// equals the number of `Tx::fast` calls made.
    pub starts: u64,
    /// Transactions committed. Derived: `read_only_commits` plus the
    /// writing commits, each counted once by the committing attempt.
    pub commits: u64,
    /// Committed transactions that wrote nothing.
    pub read_only_commits: u64,
    /// Aborts by cause.
    pub aborts_explicit: u64,
    /// Transient aborts.
    pub aborts_retry: u64,
    /// Data-conflict aborts.
    pub aborts_conflict: u64,
    /// Capacity-overflow aborts.
    pub aborts_capacity: u64,
    /// Debug aborts.
    pub aborts_debug: u64,
    /// Nesting-depth aborts.
    pub aborts_nested: u64,
    /// Unfriendly-instruction aborts.
    pub aborts_unfriendly: u64,
    /// Critical sections executed in direct (slow-path) mode.
    pub direct_sections: u64,
    /// Fast-path attempts that had to *allocate* their `TxContext` arena
    /// (first section on a thread, or overlapping transactions).
    pub ctx_fresh: u64,
    /// Fast-path attempts served by a cached thread-local arena. Derived:
    /// every fast start acquires exactly one context, so this is
    /// `starts - ctx_fresh`. `ctx_fresh` is counted when the attempt
    /// begins and `starts` when it finishes, so this reads low (saturating
    /// at 0) while an attempt that allocated its arena is in flight.
    pub ctx_reused: u64,
    /// Capacity aborts caused by a *physical* arena bound (inline write
    /// table, staged-value size, read/subscription capacity) rather than
    /// the modeled HTM capacity. A subset of `aborts_capacity`.
    pub inline_overflows: u64,
}

impl StatsSnapshot {
    /// Total aborts across all causes.
    #[must_use]
    pub fn total_aborts(&self) -> u64 {
        self.aborts_explicit
            + self.aborts_retry
            + self.aborts_conflict
            + self.aborts_capacity
            + self.aborts_debug
            + self.aborts_nested
            + self.aborts_unfriendly
    }

    /// Fraction of started transactions that committed, in [0, 1].
    ///
    /// Empty snapshots return 1.0 (vacuous success) — the same
    /// convention as `OptiStatsSnapshot::fast_ratio` in `gocc-optilock`.
    #[must_use]
    pub fn commit_ratio(&self) -> f64 {
        if self.starts == 0 {
            return 1.0;
        }
        self.commits as f64 / self.starts as f64
    }
}

impl HtmStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        HtmStats::default()
    }

    /// The one shared write of an attempt that commits.
    pub(crate) fn record_commit(&self, read_only: bool) {
        let counter = if read_only {
            &self.read_only_commits
        } else {
            &self.writing_commits
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A live attempt was dropped or rolled back before anything doomed it.
    pub(crate) fn record_rollback(&self) {
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_direct(&self) {
        self.direct_sections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_ctx_fresh(&self) {
        self.ctx_fresh.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_inline_overflow(&self) {
        self.inline_overflows.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_abort(&self, cause: AbortCause) {
        let counter = match cause {
            AbortCause::Explicit(_) => &self.aborts_explicit,
            AbortCause::Retry => &self.aborts_retry,
            AbortCause::Conflict => &self.aborts_conflict,
            AbortCause::Capacity => &self.aborts_capacity,
            AbortCause::Debug => &self.aborts_debug,
            AbortCause::Nested => &self.aborts_nested,
            AbortCause::Unfriendly => &self.aborts_unfriendly,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of the counters.
    ///
    /// `starts` and `commits` are sums of the outcome counters read here,
    /// so `commits + total_aborts() <= starts` holds in every snapshot and
    /// every field is monotone across snapshots.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let read_only_commits = self.read_only_commits.load(Ordering::Relaxed);
        let commits = read_only_commits + self.writing_commits.load(Ordering::Relaxed);
        let ctx_fresh = self.ctx_fresh.load(Ordering::Relaxed);
        // `starts` and `ctx_reused` are filled in below, from the causes
        // this literal loads (one load per counter, one place that sums).
        let mut snap = StatsSnapshot {
            commits,
            read_only_commits,
            aborts_explicit: self.aborts_explicit.load(Ordering::Relaxed),
            aborts_retry: self.aborts_retry.load(Ordering::Relaxed),
            aborts_conflict: self.aborts_conflict.load(Ordering::Relaxed),
            aborts_capacity: self.aborts_capacity.load(Ordering::Relaxed),
            aborts_debug: self.aborts_debug.load(Ordering::Relaxed),
            aborts_nested: self.aborts_nested.load(Ordering::Relaxed),
            aborts_unfriendly: self.aborts_unfriendly.load(Ordering::Relaxed),
            direct_sections: self.direct_sections.load(Ordering::Relaxed),
            ctx_fresh,
            inline_overflows: self.inline_overflows.load(Ordering::Relaxed),
            ..StatsSnapshot::default()
        };
        snap.starts = commits + snap.total_aborts() + self.rollbacks.load(Ordering::Relaxed);
        snap.ctx_reused = snap.starts.saturating_sub(ctx_fresh);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_records() {
        use crate::{HtmConfig, HtmRuntime, Tx, TxVar};
        // A dedicated thread, so the context cache starts empty and exactly
        // the first attempt allocates its arena.
        std::thread::spawn(|| {
            let rt = HtmRuntime::new(HtmConfig::coffee_lake());
            let v = TxVar::new(0u64);
            let mut writer = Tx::fast(&rt);
            writer.write(&v, 1).unwrap();
            writer.commit().unwrap();
            let mut reader = Tx::fast(&rt);
            assert_eq!(reader.read(&v).unwrap(), 1);
            reader.commit().unwrap();
            let mut aborted = Tx::fast(&rt);
            let _ = aborted.explicit_abort(7);
            aborted.commit().unwrap_err();
            let mut rolled_back = Tx::fast(&rt);
            rolled_back.write(&v, 9).unwrap();
            rolled_back.rollback();
            drop(Tx::fast(&rt));
            Tx::direct(&rt).commit().unwrap();
            let snap = rt.stats().snapshot();
            assert_eq!(
                snap,
                StatsSnapshot {
                    starts: 5,
                    commits: 2,
                    read_only_commits: 1,
                    aborts_explicit: 1,
                    aborts_retry: 0,
                    aborts_conflict: 0,
                    aborts_capacity: 0,
                    aborts_debug: 0,
                    aborts_nested: 0,
                    aborts_unfriendly: 0,
                    direct_sections: 1,
                    ctx_fresh: 1,
                    ctx_reused: 4,
                    inline_overflows: 0,
                }
            );
            assert_eq!(snap.total_aborts(), 1);
            assert!((snap.commit_ratio() - 0.4).abs() < f64::EPSILON);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn every_abort_cause_counts_as_one_finished_attempt() {
        let s = HtmStats::new();
        for cause in [
            AbortCause::Explicit(1),
            AbortCause::Retry,
            AbortCause::Conflict,
            AbortCause::Capacity,
            AbortCause::Debug,
            AbortCause::Nested,
            AbortCause::Unfriendly,
        ] {
            s.record_abort(cause);
        }
        let snap = s.snapshot();
        assert_eq!(snap.total_aborts(), 7);
        assert_eq!((snap.starts, snap.commits), (7, 0));
    }

    #[test]
    fn empty_stats_commit_ratio_is_one() {
        assert!((StatsSnapshot::default().commit_ratio() - 1.0).abs() < f64::EPSILON);
    }
}
