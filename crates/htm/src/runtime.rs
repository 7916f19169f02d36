//! The shared state of one simulated HTM domain.

use std::sync::OnceLock;

use crate::clock::VersionClock;
use crate::config::HtmConfig;
use crate::contention;
use crate::ctx;
use crate::stats::HtmStats;
use crate::stripe::StripeTable;

/// One simulated HTM domain: a stripe table, a version clock, statistics and
/// configuration.
///
/// Like a physical machine has one cache-coherence fabric, a process
/// normally uses the single [`HtmRuntime::global`] instance; tests create
/// private runtimes (e.g. with [`HtmConfig::tiny`]) to exercise capacity
/// and collision behavior deterministically.
///
/// Conflict detection only works between transactions that share a runtime;
/// all `TxVar`s of one data structure must be accessed through the same
/// runtime, which holds by construction when using [`HtmRuntime::global`].
///
/// `repr(C)`: declaration order is memory order, so adding a field moves
/// none of the others. Which read-only words share a line with the clock
/// and the counters every section writes is worth a quarter of
/// `section_r90`'s throughput (EXPERIMENTS.md "Benchmark coupling",
/// PR 16); left to the compiler, one new field reshuffles them all.
#[derive(Debug)]
#[repr(C)]
pub struct HtmRuntime {
    table: StripeTable,
    clock: VersionClock,
    stats: HtmStats,
    attempt: AttemptParams,
    config: HtmConfig,
}

/// What every `Tx::fast` needs from the configuration, worked out once: the
/// configuration cannot change after [`HtmRuntime::new`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct AttemptParams {
    /// Modeled read-set bound, clamped to the arena's physical capacity.
    pub(crate) max_reads: usize,
    /// Modeled write-line bound, clamped to the arena's physical capacity.
    pub(crate) max_lines: usize,
    /// `spurious_abort_rate` scaled to the `u64` range; 0 = never.
    pub(crate) spurious_threshold: u64,
    /// Whether a fault plan is configured (each attempt owes it one draw).
    pub(crate) fault_pending: bool,
    /// The coherence model's charge per shared-line RMW,
    /// `RMW_PENALTY_NS × (sim_cores − 1)`; 0 = inert.
    pub(crate) rmw_charge_ns: u32,
}

impl HtmRuntime {
    /// Creates a new, private HTM domain.
    #[must_use]
    pub fn new(config: HtmConfig) -> Self {
        let rate = config.spurious_abort_rate;
        let attempt = AttemptParams {
            max_reads: config.max_read_entries.min(ctx::MAX_READ_ENTRIES),
            max_lines: config.max_write_lines.min(ctx::MAX_WRITE_LINES),
            spurious_threshold: if rate > 0.0 {
                (rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64
            } else {
                0
            },
            fault_pending: config.fault_plan.is_some(),
            rmw_charge_ns: contention::RMW_PENALTY_NS
                .saturating_mul(config.sim_cores.saturating_sub(1)),
        };
        HtmRuntime {
            table: StripeTable::new(config.stripe_bits),
            clock: VersionClock::new(),
            stats: HtmStats::new(),
            config,
            attempt,
        }
    }

    /// The process-wide HTM domain with [`HtmConfig::coffee_lake`] defaults.
    #[must_use]
    pub fn global() -> &'static HtmRuntime {
        static GLOBAL: OnceLock<HtmRuntime> = OnceLock::new();
        GLOBAL.get_or_init(|| HtmRuntime::new(HtmConfig::coffee_lake()))
    }

    /// The stripe table of this domain.
    #[must_use]
    pub fn table(&self) -> &StripeTable {
        &self.table
    }

    /// The version clock of this domain.
    #[must_use]
    pub(crate) fn clock(&self) -> &VersionClock {
        &self.clock
    }

    /// Current TL2 version-clock value — the logical timestamp the commit
    /// protocol orders by. Exposed for observability (flight-recorder HTM
    /// attempt spans carry it), not for transactional use.
    #[must_use]
    pub fn clock_now(&self) -> u64 {
        self.clock.now()
    }

    /// Statistics counters of this domain.
    #[must_use]
    pub fn stats(&self) -> &HtmStats {
        &self.stats
    }

    /// Configuration of this domain.
    #[must_use]
    pub fn config(&self) -> &HtmConfig {
        &self.config
    }

    /// Prefetches the line at `addr` and the stripe word that guards it,
    /// ahead of a transaction that will read that line: its misses are
    /// then taken while the caller does other work, not one at a time
    /// inside the section. A hint: no transaction records it, and no
    /// result changes. Does nothing off x86-64.
    #[inline]
    pub fn prefetch_line(&self, addr: *const u8) {
        crate::stripe::prefetch(addr);
        self.table.prefetch_word(addr as usize);
    }

    /// The per-attempt parameters derived from the configuration.
    pub(crate) fn attempt(&self) -> AttemptParams {
        self.attempt
    }

    /// What the coherence model charges one shared-line RMW in this
    /// domain, in nanoseconds: `RMW_PENALTY_NS × (sim_cores − 1)`.
    #[must_use]
    pub fn rmw_charge_ns(&self) -> u32 {
        self.attempt.rmw_charge_ns
    }

    /// Charges one contended-RMW line transfer under this domain's model
    /// (nothing at one core).
    ///
    /// Call sites are the places a real machine would bounce a cache line
    /// in Modified state between cores: mutex/RWMutex state words (charged
    /// by the lock paths that hold a runtime) and transactional write-backs.
    #[inline]
    pub fn charge_shared_rmw(&self) {
        let ns = self.attempt.rmw_charge_ns;
        if ns != 0 {
            contention::spin_ns(u64::from(ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_singleton() {
        let a = HtmRuntime::global() as *const _;
        let b = HtmRuntime::global() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn private_runtime_respects_config() {
        let rt = HtmRuntime::new(HtmConfig::tiny());
        assert_eq!(rt.table().len(), 64);
        assert_eq!(rt.config().max_write_lines, 8);
    }
}
