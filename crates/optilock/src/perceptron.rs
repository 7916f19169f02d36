//! The hashed perceptron that decides HTM vs. lock per call (§5.4.1).

use std::sync::atomic::{AtomicI8, AtomicU32, AtomicU64, Ordering};

/// Entries per global weight table (the paper uses two 4K-entry arrays).
const TABLE_ENTRIES: usize = 4096;
/// Index mask (lower 12 bits after alignment shift).
const INDEX_MASK: usize = TABLE_ENTRIES - 1;
/// Saturation bounds: "the weights take an integer number from -16 to 15".
const WEIGHT_MIN: i8 = -16;
const WEIGHT_MAX: i8 = 15;

/// Tunables of the perceptron predictor.
#[derive(Clone, Debug)]
pub struct PerceptronConfig {
    /// Consecutive slow-path decisions before a cell's weights reset
    /// (the paper's weight decay, threshold 1000).
    pub decay_threshold: u32,
    /// Decision threshold: predict HTM when the weight sum is at least
    /// this value.
    pub threshold: i32,
}

impl Default for PerceptronConfig {
    fn default() -> Self {
        PerceptronConfig {
            decay_threshold: 1000,
            threshold: 0,
        }
    }
}

/// The pair of weight-table indices backing one prediction.
///
/// Carried from [`Perceptron::predict`] to the update calls so prediction
/// and training touch the same cells, exactly like the hardware-inspired
/// design computes indices once per lock call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Features {
    mutex_idx: usize,
    site_idx: usize,
}

/// A hashed perceptron with two global weight tables (GWT).
///
/// Features, per the paper: (1) the mutex — XORed with the `OptiLock`
/// identity so different goroutines/sites do not fight over one cell — and
/// (2) the calling context. Reads and updates are lock-free and racy by
/// design: "perfection is not required here, but high-performance is
/// necessary".
#[derive(Debug)]
pub struct Perceptron {
    mutex_weights: Box<[AtomicI8]>,
    site_weights: Box<[AtomicI8]>,
    mutex_streak: Box<[AtomicU32]>,
    site_streak: Box<[AtomicU32]>,
    resets: AtomicU64,
    config: PerceptronConfig,
}

/// A point-in-time copy of a [`Perceptron`]'s learning state (Figure 10's
/// back-off narrative, as data): both weight tables and decay/reset
/// events. Decision counts are in `OptiStatsSnapshot`
/// (`perceptron_htm`/`perceptron_slow`) — the predictor itself keeps no
/// shared counters off its lookup path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PerceptronSnapshot {
    /// The mutex⊕site weight table.
    pub mutex_weights: Vec<i8>,
    /// The call-site weight table.
    pub site_weights: Vec<i8>,
    /// Decay-driven weight resets.
    pub resets: u64,
}

impl PerceptronSnapshot {
    /// Number of non-zero cells in a table (how much of the 4K space a
    /// workload actually trained).
    #[must_use]
    pub fn trained_cells(table: &[i8]) -> usize {
        table.iter().filter(|&&w| w != 0).count()
    }

    /// Sum of all weights in a table — negative when the workload has
    /// broadly learned to avoid HTM.
    #[must_use]
    pub fn table_bias(table: &[i8]) -> i64 {
        table.iter().map(|&w| i64::from(w)).sum()
    }
}

#[inline]
fn index_of(feature: usize) -> usize {
    // The paper takes the lower 12 bits of the address, which decorrelates
    // well for stack-allocated OptiLocks that live pages apart. This
    // implementation identifies call sites by the addresses of per-site
    // statics, which the linker may place only bytes apart — a bit-slice
    // would alias neighbors into one cell (and let one site's rewards
    // cancel another's penalties), so finalize with SplitMix64 before
    // masking.
    let mut x = feature as u64;
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x as usize) & INDEX_MASK
}

impl Perceptron {
    /// Creates a perceptron with all weights at zero (optimistic: a zero
    /// sum meets the default threshold, so unseen sites try HTM first).
    #[must_use]
    pub fn new(config: PerceptronConfig) -> Self {
        let zeroed_i8 = |n: usize| (0..n).map(|_| AtomicI8::new(0)).collect();
        let zeroed_u32 = |n: usize| (0..n).map(|_| AtomicU32::new(0)).collect();
        Perceptron {
            mutex_weights: zeroed_i8(TABLE_ENTRIES),
            site_weights: zeroed_i8(TABLE_ENTRIES),
            mutex_streak: zeroed_u32(TABLE_ENTRIES),
            site_streak: zeroed_u32(TABLE_ENTRIES),
            resets: AtomicU64::new(0),
            config,
        }
    }

    /// Computes the feature indices for a (mutex, call-site) pair.
    #[inline]
    #[must_use]
    pub fn features(&self, mutex_id: usize, site: usize) -> Features {
        Features {
            mutex_idx: index_of(mutex_id ^ site),
            site_idx: index_of(site),
        }
    }

    /// Predicts whether HTM should be attempted for this call.
    ///
    /// A slow-path prediction advances the decay streak of both cells; once
    /// a cell has steered [`PerceptronConfig::decay_threshold`] consecutive
    /// calls to the slow path its weights reset to zero, so the next call
    /// gives HTM another chance ("without this reset, perceptron would get
    /// stuck on the slowpath").
    ///
    /// The HTM branch is the steady-state hot path: it costs exactly the
    /// two weight-table reads, and only touches the streak cells when
    /// there is a nonzero streak to clear — so repeated fast predictions
    /// never dirty a shared cache line. Decision *counting* is not done
    /// here: a shared counter RMW per prediction would put every core on
    /// one cache line and cost more than the lookup it is counting. The
    /// caller counts slow predictions (`OptiStats::perceptron_slow`); an
    /// HTM prediction starts one transaction, which the HTM domain counts.
    #[inline]
    #[must_use]
    pub fn predict(&self, features: Features) -> bool {
        let sum = i32::from(self.mutex_weights[features.mutex_idx].load(Ordering::Relaxed))
            + i32::from(self.site_weights[features.site_idx].load(Ordering::Relaxed));
        if sum >= self.config.threshold {
            for (streaks, idx) in [
                (&self.mutex_streak, features.mutex_idx),
                (&self.site_streak, features.site_idx),
            ] {
                if streaks[idx].load(Ordering::Relaxed) != 0 {
                    streaks[idx].store(0, Ordering::Relaxed);
                }
            }
            return true;
        }
        self.advance_streak(features);
        false
    }

    fn advance_streak(&self, features: Features) {
        for (streaks, weights, idx) in [
            (&self.mutex_streak, &self.mutex_weights, features.mutex_idx),
            (&self.site_streak, &self.site_weights, features.site_idx),
        ] {
            let s = streaks[idx].fetch_add(1, Ordering::Relaxed) + 1;
            if s >= self.config.decay_threshold {
                weights[idx].store(0, Ordering::Relaxed);
                streaks[idx].store(0, Ordering::Relaxed);
                self.resets.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Trains towards HTM: the prediction said HTM and the section finished
    /// on the fast path.
    #[inline]
    pub fn reward(&self, features: Features) {
        bump(&self.mutex_weights[features.mutex_idx], 1);
        bump(&self.site_weights[features.site_idx], 1);
    }

    /// Trains away from HTM: the prediction said HTM but execution fell
    /// back to the lock.
    pub fn penalize(&self, features: Features) {
        bump(&self.mutex_weights[features.mutex_idx], -1);
        bump(&self.site_weights[features.site_idx], -1);
    }

    /// Number of decay-driven weight resets so far.
    #[must_use]
    pub fn reset_count(&self) -> u64 {
        self.resets.load(Ordering::Relaxed)
    }

    /// Current weight sum for a feature pair (diagnostics).
    #[must_use]
    pub fn weight_sum(&self, features: Features) -> i32 {
        i32::from(self.mutex_weights[features.mutex_idx].load(Ordering::Relaxed))
            + i32::from(self.site_weights[features.site_idx].load(Ordering::Relaxed))
    }

    /// The individual `(mutex_cell, site_cell)` weights behind a feature
    /// pair (diagnostics; [`Perceptron::weight_sum`] is their sum).
    #[must_use]
    pub fn weights(&self, features: Features) -> (i8, i8) {
        (
            self.mutex_weights[features.mutex_idx].load(Ordering::Relaxed),
            self.site_weights[features.site_idx].load(Ordering::Relaxed),
        )
    }

    /// Copies the complete learning state for offline inspection.
    #[must_use]
    pub fn snapshot(&self) -> PerceptronSnapshot {
        PerceptronSnapshot {
            mutex_weights: self
                .mutex_weights
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            site_weights: self
                .site_weights
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            resets: self.resets.load(Ordering::Relaxed),
        }
    }
}

impl Default for Perceptron {
    fn default() -> Self {
        Perceptron::new(PerceptronConfig::default())
    }
}

/// Racy saturating weight update. A lost update under contention is
/// acceptable; saturation keeps weights in [-16, 15] regardless.
fn bump(cell: &AtomicI8, delta: i8) {
    let w = cell.load(Ordering::Relaxed);
    let new = w.saturating_add(delta).clamp(WEIGHT_MIN, WEIGHT_MAX);
    if new != w {
        cell.store(new, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Perceptron {
        Perceptron::default()
    }

    #[test]
    fn fresh_perceptron_predicts_htm() {
        let p = p();
        let f = p.features(0x1000, 0x2000);
        assert!(p.predict(f), "zero weights must meet the zero threshold");
    }

    #[test]
    fn penalties_flip_prediction_to_slow() {
        let p = p();
        let f = p.features(0x1000, 0x2000);
        p.penalize(f);
        assert!(!p.predict(f), "sum -2 is below threshold 0");
    }

    #[test]
    fn rewards_recover_prediction() {
        let p = p();
        let f = p.features(0x1000, 0x2000);
        p.penalize(f);
        p.reward(f);
        assert!(p.predict(f));
    }

    #[test]
    fn weights_saturate() {
        let p = p();
        let f = p.features(0x30, 0x40);
        for _ in 0..100 {
            p.penalize(f);
        }
        assert_eq!(p.weight_sum(f), -32, "two tables saturated at -16 each");
        for _ in 0..100 {
            p.reward(f);
        }
        assert_eq!(p.weight_sum(f), 30, "two tables saturated at 15 each");
    }

    #[test]
    fn decay_resets_weights_after_slow_streak() {
        let p = Perceptron::new(PerceptronConfig {
            decay_threshold: 10,
            threshold: 0,
        });
        let f = p.features(0x1000, 0x2000);
        p.penalize(f);
        for _ in 0..9 {
            assert!(!p.predict(f));
        }
        // Tenth consecutive slow decision triggers the reset.
        assert!(!p.predict(f));
        assert!(p.reset_count() >= 1);
        assert!(p.predict(f), "after decay the cell must try HTM again");
    }

    #[test]
    fn snapshot_reflects_training() {
        let p = p();
        let f = p.features(0x10, 0x20);
        assert!(p.predict(f));
        p.penalize(f);
        assert!(!p.predict(f));
        let snap = p.snapshot();
        assert_eq!(snap.resets, 0);
        assert_eq!(PerceptronSnapshot::trained_cells(&snap.mutex_weights), 1);
        assert_eq!(PerceptronSnapshot::trained_cells(&snap.site_weights), 1);
        assert_eq!(PerceptronSnapshot::table_bias(&snap.mutex_weights), -1);
        assert_eq!(p.weights(f), (-1, -1));
    }

    #[test]
    fn distinct_mutexes_use_distinct_cells() {
        let p = p();
        let f1 = p.features(0x10, 0x2000);
        let f2 = p.features(0x20, 0x2000);
        assert_ne!(f1.mutex_idx, f2.mutex_idx);
        assert_eq!(f1.site_idx, f2.site_idx);
    }
}
