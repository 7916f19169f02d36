//! A Tally-like buffered metrics registry (Figures 6 and 10).
//!
//! Mirrors uber-go/tally's structure: a scope holds registries of
//! counters, gauges and histograms behind `RWMutex`es; the benchmark-hot
//! paths are read-only registry lookups (`HistogramExisting`), reporting
//! reads over several independent locks (`ScopeReporting1/10`), and the
//! HTM-unfriendly allocation benchmarks (`CounterAllocation`,
//! `SanitizedCounterAllocation`) whose critical sections genuinely
//! conflict on shared registry state — the workloads Figure 10 uses to
//! show the perceptron steering away from hopeless speculation.

use gocc_htm::Tx;
use gocc_optilock::{call_site, ElidableRwMutex, LockRef};
use gocc_txds::{fnv1a, TxCounter, TxMap};

use crate::engine::Engine;

/// Number of preallocated metric slots.
const SLOTS: usize = 4096;

/// A metrics scope: three independent registries, like Tally's scope
/// holding separate locks for counters, gauges and histograms.
pub struct Scope {
    counters_lock: ElidableRwMutex,
    gauges_lock: ElidableRwMutex,
    histograms_lock: ElidableRwMutex,
    /// name-hash → slot index.
    histograms: TxMap,
    counters: TxMap,
    counter_slots: Vec<TxCounter>,
    next_slot: TxCounter,
    gauge_value: TxCounter,
}

impl Scope {
    /// Creates a scope preloaded with `preload` histograms (the
    /// `HistogramExisting` benchmark looks up names that exist).
    ///
    /// `rt` must be the HTM domain the scope will later be accessed
    /// through, so preload version bumps land in the same stripe table.
    #[must_use]
    pub fn new(rt: &gocc_htm::HtmRuntime, preload: usize) -> Self {
        let scope = Scope {
            counters_lock: ElidableRwMutex::new(),
            gauges_lock: ElidableRwMutex::new(),
            histograms_lock: ElidableRwMutex::new(),
            histograms: TxMap::with_capacity(SLOTS * 2),
            counters: TxMap::with_capacity(SLOTS * 2),
            counter_slots: (0..SLOTS).map(|_| TxCounter::new(0)).collect(),
            next_slot: TxCounter::new(0),
            gauge_value: TxCounter::new(0),
        };
        // Preload without concurrency: direct single-owner writes.
        let mut tx = Tx::direct(rt);
        for i in 0..preload {
            let h = Scope::name_hash(i);
            scope
                .histograms
                .insert(&mut tx, h, i as u64)
                .expect("preload");
            scope
                .counters
                .insert(&mut tx, h, (i % SLOTS) as u64)
                .expect("preload");
        }
        scope
            .next_slot
            .set(&mut tx, preload as u64)
            .expect("preload");
        tx.commit().expect("direct commit");
        scope
    }

    /// Canonical benchmark metric name hash.
    #[must_use]
    pub fn name_hash(i: usize) -> u64 {
        fnv1a(format!("metric-{i}").as_bytes())
    }

    /// `HistogramExisting`: a read-only existence probe under the
    /// histogram registry's RWMutex — the paper's 660%-at-8-cores case.
    pub fn histogram_exists(&self, engine: &Engine<'_>, name_hash: u64) -> bool {
        engine.section(call_site!(), LockRef::Read(&self.histograms_lock), |tx| {
            self.histograms.contains(tx, name_hash)
        })
    }

    /// `ScopeReporting{n}`: reads `n` counters under each of the three
    /// registry locks in turn, like Tally's reporting loop that "holds
    /// three independent RWMutexes at different points in time".
    pub fn scope_reporting(&self, engine: &Engine<'_>, n: usize) -> u64 {
        let a = engine.section(call_site!(), LockRef::Read(&self.counters_lock), |tx| {
            let mut sum = 0u64;
            for i in 0..n {
                sum = sum.wrapping_add(self.counter_slots[i].get(tx)?);
            }
            Ok(sum)
        });
        let b = engine.section(call_site!(), LockRef::Read(&self.gauges_lock), |tx| {
            self.gauge_value.get(tx)
        });
        let c = engine.section(call_site!(), LockRef::Read(&self.histograms_lock), |tx| {
            self.histograms.len(tx)
        });
        a.wrapping_add(b).wrapping_add(c)
    }

    /// Increments an existing counter slot (a short read-write section).
    pub fn counter_inc(&self, engine: &Engine<'_>, slot: usize) {
        engine.section(call_site!(), LockRef::Write(&self.counters_lock), |tx| {
            self.counter_slots[slot % SLOTS].add(tx, 1)?;
            Ok(())
        });
    }

    /// `CounterAllocation`: registers a new counter — inserts into the
    /// shared registry and bumps the shared slot cursor, so concurrent
    /// allocations always conflict (HTM-unfriendly by construction, like
    /// the real benchmark's allocator churn).
    pub fn counter_allocation(&self, engine: &Engine<'_>, name_hash: u64) -> u64 {
        engine.section(call_site!(), LockRef::Write(&self.counters_lock), |tx| {
            if let Some(slot) = self.counters.get(tx, name_hash)? {
                return Ok(slot);
            }
            let slot = self.next_slot.add(tx, 1)? % SLOTS as u64;
            self.counters.insert(tx, name_hash, slot)?;
            self.counter_slots[slot as usize].set(tx, 0)?;
            Ok(slot)
        })
    }

    /// `SanitizedCounterAllocation`: allocation preceded by name
    /// sanitization (extra work outside, same conflicting section inside).
    pub fn sanitized_counter_allocation(&self, engine: &Engine<'_>, name: &str) -> u64 {
        let sanitized: String = name
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        self.counter_allocation(engine, fnv1a(sanitized.as_bytes()))
    }

    /// A concurrency-non-sensitive benchmark body: pure name formatting,
    /// no locks (part of the "non sensitive" group of Figure 6).
    #[must_use]
    pub fn name_generation(&self, i: usize) -> u64 {
        fnv1a(format!("scope.sub-{i}.metric").as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Mode;
    use gocc_optilock::GoccRuntime;

    fn scope_and_rt() -> (Scope, GoccRuntime) {
        let rt = GoccRuntime::new_default();
        let scope = Scope::new(rt.htm(), 64);
        (scope, rt)
    }

    #[test]
    fn histogram_exists_finds_preloaded() {
        let (scope, rt) = scope_and_rt();
        for mode in [Mode::Lock, Mode::Gocc] {
            let engine = Engine::new(&rt, mode);
            assert!(scope.histogram_exists(&engine, Scope::name_hash(3)));
            assert!(!scope.histogram_exists(&engine, Scope::name_hash(1_000_000)));
        }
    }

    #[test]
    fn allocation_is_idempotent_per_name() {
        let (scope, rt) = scope_and_rt();
        let engine = Engine::new(&rt, Mode::Gocc);
        let a = scope.counter_allocation(&engine, Scope::name_hash(500));
        let b = scope.counter_allocation(&engine, Scope::name_hash(500));
        assert_eq!(a, b, "same name must map to the same slot");
    }

    #[test]
    fn concurrent_exists_probes_elide() {
        let (scope, rt) = scope_and_rt();
        let engine = Engine::new(&rt, Mode::Gocc);
        std::thread::scope(|s| {
            for t in 0..4 {
                let engine = &engine;
                let scope = &scope;
                s.spawn(move || {
                    for i in 0..200 {
                        let _ = scope.histogram_exists(engine, Scope::name_hash((t + i) % 64));
                    }
                });
            }
        });
        let snap = rt.stats().snapshot();
        assert!(
            snap.fast_commits > 600,
            "read-only probes should overwhelmingly elide: {snap:?}"
        );
    }

    #[test]
    fn scope_reporting_sums_consistently() {
        let (scope, rt) = scope_and_rt();
        let engine = Engine::new(&rt, Mode::Gocc);
        for slot in 0..10 {
            scope.counter_inc(&engine, slot);
        }
        let r1 = scope.scope_reporting(&engine, 10);
        let r10 = scope.scope_reporting(&engine, 10);
        assert_eq!(r1, r10, "reporting without writers is stable");
    }
}
