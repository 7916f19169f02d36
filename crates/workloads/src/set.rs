//! The go-datastructures set (Figure 8).
//!
//! Operations mirror the benchmarked API: `Len` (~1000% speedup at 8
//! cores in the paper — a tiny read section whose RWMutex entry/exit cost
//! dominates), `Exists` (similar, slightly more work), `Flatten` (reads 50
//! elements into a cached array under the set's write lock; scales until
//! cache-update conflicts appear), and `Clear` (true conflicts, no
//! speedup, but no collapse either).

use gocc_htm::Tx;
use gocc_optilock::{call_site, ElidableRwMutex, LockRef};
use gocc_txds::{TxSet, TxVec};

use crate::engine::Engine;

/// Elements the `Flatten` benchmark materializes (paper: "reads 50
/// elements from a shared map into a private array").
pub const FLATTEN_ITEMS: usize = 50;

/// A thread-safe set with a cached flattened view.
pub struct Set {
    lock: ElidableRwMutex,
    items: TxSet,
    flat_cache: TxVec,
    cache_valid: gocc_txds::TxCounter,
}

impl Set {
    /// Creates a set preloaded with items `0..preload`.
    #[must_use]
    pub fn new(rt: &gocc_htm::HtmRuntime, preload: usize) -> Self {
        let s = Set {
            lock: ElidableRwMutex::new(),
            items: TxSet::with_capacity(preload.max(FLATTEN_ITEMS).max(1024) * 4),
            flat_cache: TxVec::with_capacity(preload.max(FLATTEN_ITEMS).max(1024) * 2),
            cache_valid: gocc_txds::TxCounter::new(0),
        };
        let mut tx = Tx::direct(rt);
        for i in 0..preload {
            s.items.add(&mut tx, i as u64).expect("preload");
        }
        tx.commit().expect("direct commit");
        s
    }

    /// `Len`: the shortest possible read section.
    pub fn len(&self, engine: &Engine<'_>) -> u64 {
        engine.section(call_site!(), LockRef::Read(&self.lock), |tx| {
            self.items.len(tx)
        })
    }

    /// `Exists`: membership probe.
    pub fn exists(&self, engine: &Engine<'_>, item: u64) -> bool {
        engine.section(call_site!(), LockRef::Read(&self.lock), |tx| {
            self.items.exists(tx, item)
        })
    }

    /// `Add`.
    pub fn add(&self, engine: &Engine<'_>, item: u64) -> bool {
        engine.section(call_site!(), LockRef::Write(&self.lock), |tx| {
            let fresh = self.items.add(tx, item)?;
            if fresh {
                self.cache_valid.set(tx, 0)?;
            }
            Ok(fresh)
        })
    }

    /// `Remove`.
    pub fn remove(&self, engine: &Engine<'_>, item: u64) -> bool {
        engine.section(call_site!(), LockRef::Write(&self.lock), |tx| {
            let removed = self.items.remove(tx, item)?;
            if removed {
                self.cache_valid.set(tx, 0)?;
            }
            Ok(removed)
        })
    }

    /// `Flatten`: returns the items, refreshing the shared cache when
    /// dirty. The cache update is the write that causes genuine conflicts
    /// at high core counts (paper: "at 8 cores, the number of conflicts
    /// resulting from updating the cache rises").
    pub fn flatten(&self, engine: &Engine<'_>) -> Vec<u64> {
        engine.section(call_site!(), LockRef::Write(&self.lock), |tx| {
            let mut out = Vec::with_capacity(FLATTEN_ITEMS);
            if self.cache_valid.get(tx)? == 1 {
                self.flat_cache.read_into(tx, &mut out)?;
                return Ok(out);
            }
            self.flat_cache.clear(tx)?;
            let mut items = Vec::new();
            self.items.flatten_into(tx, &mut items)?;
            for &item in &items {
                self.flat_cache.push(tx, item)?;
            }
            self.cache_valid.set(tx, 1)?;
            out.extend_from_slice(&items);
            Ok(out)
        })
    }

    /// `Clear`: removes everything — every thread writes the whole table,
    /// so sections truly conflict.
    pub fn clear(&self, engine: &Engine<'_>) {
        engine.section(call_site!(), LockRef::Write(&self.lock), |tx| {
            self.items.clear(tx)?;
            self.flat_cache.clear(tx)?;
            self.cache_valid.set(tx, 0)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Mode;
    use gocc_optilock::GoccRuntime;

    fn setup(mode: Mode) -> (GoccRuntime, Mode) {
        (GoccRuntime::new_default(), mode)
    }

    #[test]
    fn len_exists_flatten_roundtrip() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let (rt, mode) = setup(mode);
            let s = Set::new(rt.htm(), FLATTEN_ITEMS);
            let engine = Engine::new(&rt, mode);
            assert_eq!(s.len(&engine), FLATTEN_ITEMS as u64);
            assert!(s.exists(&engine, 7));
            assert!(!s.exists(&engine, 10_000));
            let mut flat = s.flatten(&engine);
            flat.sort_unstable();
            assert_eq!(flat, (0..FLATTEN_ITEMS as u64).collect::<Vec<_>>());
            // Second flatten hits the cache.
            assert_eq!(s.flatten(&engine).len(), FLATTEN_ITEMS);
        }
    }

    #[test]
    fn add_invalidates_cache() {
        let (rt, mode) = setup(Mode::Gocc);
        let s = Set::new(rt.htm(), 10);
        let engine = Engine::new(&rt, mode);
        let _ = s.flatten(&engine);
        assert!(s.add(&engine, 99));
        let flat = s.flatten(&engine);
        assert!(flat.contains(&99), "cache must refresh after add");
    }

    #[test]
    fn clear_empties() {
        let (rt, mode) = setup(Mode::Gocc);
        let s = Set::new(rt.htm(), 20);
        let engine = Engine::new(&rt, mode);
        s.clear(&engine);
        assert_eq!(s.len(&engine), 0);
        assert!(s.flatten(&engine).is_empty());
    }

    #[test]
    fn concurrent_mixed_ops_stay_consistent() {
        let (rt, mode) = setup(Mode::Gocc);
        let s = Set::new(rt.htm(), 0);
        let engine = Engine::new(&rt, mode);
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let (engine, s) = (&engine, &s);
                sc.spawn(move || {
                    for i in 0..100 {
                        s.add(engine, t * 1000 + i);
                        let _ = s.exists(engine, t * 1000 + i / 2);
                        let _ = s.len(engine);
                    }
                });
            }
        });
        assert_eq!(s.len(&engine), 400, "every add must be visible");
    }
}
