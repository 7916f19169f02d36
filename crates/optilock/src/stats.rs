//! `optiLib`-level statistics (decisions, paths taken, recoveries).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::runtime::GoccRuntime;

/// The rare-path counters `optiLib` keeps itself. A section that commits
/// on the fast path writes none of them: it is counted once, at its
/// commit, by the runtime's HTM domain, and [`StatsView::snapshot`] reads
/// the per-section figures from there.
#[derive(Debug, Default)]
pub(crate) struct OptiStats {
    pub(crate) slow_sections: AtomicU64,
    pub(crate) perceptron_slow: AtomicU64,
    pub(crate) single_thread_bypass: AtomicU64,
    pub(crate) mismatch_recoveries: AtomicU64,
    pub(crate) watchdog_forced: AtomicU64,
}

/// A point-in-time copy of a runtime's `optiLib` statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptiStatsSnapshot {
    /// Transactions started by `FastLock` that have *finished* (committed,
    /// aborted or been rolled back): an attempt still in flight is not in
    /// this number yet. Read from the runtime's HTM domain (`HtmStats`
    /// starts), so a `Tx::fast` begun by hand on `rt.htm()` counts too.
    pub htm_attempts: u64,
    /// Critical sections completed on the fast path. Read from the
    /// runtime's HTM domain (`HtmStats` commits).
    pub fast_commits: u64,
    /// Critical sections completed on the slow path (any reason).
    pub slow_sections: u64,
    /// Perceptron decisions in favor of HTM. Each one starts exactly one
    /// transaction, so this is the HTM domain's starts when the perceptron
    /// is enabled and 0 when it is not — like `htm_attempts`, a decision
    /// shows once its transaction has finished.
    pub perceptron_htm: u64,
    /// Perceptron decisions in favor of the lock.
    pub perceptron_slow: u64,
    /// Slow-path decisions due to the single-OS-thread bypass (§5.4.2).
    pub single_thread_bypass: u64,
    /// Mis-paired mutex recoveries (Appendix C hand-over-hand handling).
    pub mismatch_recoveries: u64,
    /// Sections the livelock watchdog hard-forced onto the lock path
    /// after `RetryPolicy::watchdog_abort_bound` aborts.
    pub watchdog_forced: u64,
}

impl OptiStats {
    pub(crate) fn add(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// What [`GoccRuntime::stats`] returns: the runtime's own counters joined
/// with its HTM domain's.
pub struct StatsView<'a>(pub(crate) &'a GoccRuntime);

impl StatsView<'_> {
    /// Takes a snapshot of all counters.
    #[must_use]
    pub fn snapshot(&self) -> OptiStatsSnapshot {
        let rt = self.0;
        let htm = rt.htm().stats().snapshot();
        let own = &rt.stats;
        OptiStatsSnapshot {
            htm_attempts: htm.starts,
            fast_commits: htm.commits,
            slow_sections: own.slow_sections.load(Ordering::Relaxed),
            perceptron_htm: if rt.perceptron_enabled() {
                htm.starts
            } else {
                0
            },
            perceptron_slow: own.perceptron_slow.load(Ordering::Relaxed),
            single_thread_bypass: own.single_thread_bypass.load(Ordering::Relaxed),
            mismatch_recoveries: own.mismatch_recoveries.load(Ordering::Relaxed),
            watchdog_forced: own.watchdog_forced.load(Ordering::Relaxed),
        }
    }
}

impl OptiStatsSnapshot {
    /// Fraction of critical sections that completed on the fast path.
    ///
    /// Empty snapshots return 1.0 (vacuous success), matching
    /// `StatsSnapshot::commit_ratio` in `gocc-htm`: both ratios answer
    /// "did anything go wrong?", and with zero sections nothing did.
    /// Consumers that need to distinguish "perfect" from "idle" should
    /// check `fast_commits + slow_sections` directly.
    #[must_use]
    pub fn fast_ratio(&self) -> f64 {
        let total = self.fast_commits + self.slow_sections;
        if total == 0 {
            return 1.0;
        }
        self.fast_commits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_joins_own_counters_with_the_htm_domain() {
        let rt = GoccRuntime::new_default();
        gocc_htm::Tx::fast(rt.htm()).commit().unwrap();
        OptiStats::add(&rt.stats.slow_sections);
        OptiStats::add(&rt.stats.mismatch_recoveries);
        let snap = rt.stats().snapshot();
        assert_eq!((snap.htm_attempts, snap.perceptron_htm), (1, 1));
        assert_eq!(snap.fast_commits, 1);
        assert_eq!(snap.slow_sections, 1);
        assert_eq!(snap.mismatch_recoveries, 1);
        assert!((snap.fast_ratio() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_fast_ratio_is_one() {
        // Same convention as StatsSnapshot::commit_ratio: no sections
        // means nothing failed, so the ratio is vacuously perfect.
        assert_eq!(OptiStatsSnapshot::default().fast_ratio(), 1.0);
    }
}
