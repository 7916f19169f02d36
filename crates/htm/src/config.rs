//! Tunables for the simulated HTM.

use std::sync::Arc;

use gocc_faultplane::HtmFaultPlan;

/// Configuration of the simulated HTM's capacity and structure.
///
/// The defaults model an Intel Coffee Lake core (the paper's testbed): the
/// write set is bounded by the 32 KB 8-way L1D (512 distinct 64-byte lines),
/// the read set by a larger tracking structure (TSX tracks reads in the L3
/// to some extent; we use 4096 lines), and transaction nesting is capped at
/// 7 levels like TSX's `MAX_RTM_NEST_COUNT`.
#[derive(Clone, Debug)]
pub struct HtmConfig {
    /// Maximum number of distinct cache lines a transaction may write.
    pub max_write_lines: usize,
    /// Maximum number of read-set entries a transaction may record.
    pub max_read_entries: usize,
    /// Maximum transaction nesting depth before `AbortCause::Nested`.
    pub max_nesting_depth: usize,
    /// log2 of the number of version stripes. Stripes alias at
    /// `2^stripe_bits` lines; smaller tables increase false conflicts,
    /// which is occasionally useful in tests.
    pub stripe_bits: u32,
    /// Probability (in [0, 1]) that any given transactional read or write
    /// suffers a spurious transient abort, modeling the background abort
    /// rate real TSX exhibits even single-threaded (see the paper's §2,
    /// challenge 3). Zero by default for determinism.
    pub spurious_abort_rate: f64,
    /// Deterministic fault-injection plan. When set, each fast-path
    /// transaction attempt draws once from the plan (keyed by the call
    /// site installed via `Tx::set_fault_site`) and aborts with the drawn
    /// cause — the seeded chaos harness uses this to force every retry /
    /// fallback branch. `None` (the default) injects nothing.
    pub fault_plan: Option<Arc<HtmFaultPlan>>,
    /// Cores the coherence model charges for (see [`crate::contention`]):
    /// every RMW on a shared hot line costs
    /// `RMW_PENALTY_NS × (sim_cores − 1)` of busy-wait. `1` (the default)
    /// leaves the model inert. A `u32`, so it fits beside `stripe_bits`
    /// and the configuration keeps its size (see [`crate::HtmRuntime`] on
    /// layout).
    pub sim_cores: u32,
}

impl HtmConfig {
    /// Coffee-Lake-like defaults used throughout the evaluation.
    #[must_use]
    pub fn coffee_lake() -> Self {
        HtmConfig {
            max_write_lines: 512,
            max_read_entries: 4096,
            max_nesting_depth: 7,
            stripe_bits: 18,
            spurious_abort_rate: 0.0,
            fault_plan: None,
            sim_cores: 1,
        }
    }

    /// A deliberately tiny configuration for exercising capacity aborts in
    /// tests without allocating large working sets.
    #[must_use]
    pub fn tiny() -> Self {
        HtmConfig {
            max_write_lines: 8,
            max_read_entries: 16,
            max_nesting_depth: 3,
            stripe_bits: 6,
            spurious_abort_rate: 0.0,
            fault_plan: None,
            sim_cores: 1,
        }
    }
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig::coffee_lake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_model_l1d() {
        let cfg = HtmConfig::default();
        // 512 lines * 64 B = 32 KB, the Coffee Lake L1D size.
        assert_eq!(cfg.max_write_lines * 64, 32 * 1024);
        assert_eq!(cfg.max_nesting_depth, 7);
    }
}
