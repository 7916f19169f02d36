//! A fastcache-like sharded byte cache (Figure 9).
//!
//! Structure mirrors VictoriaMetrics/fastcache: fixed shards ("buckets")
//! each guarded by an `RWMutex`, values stored out-of-line in append-only
//! chunk storage (the [`Arena`]) and indexed by offset, plus shared stats
//! counters updated inside `Get`'s critical section — the "few atomic add
//! instructions, which update shared variables" that §6.1 blames for
//! vanishing speedups at high core counts.
//!
//! `Set` validates its inputs and may panic, which is why GOCC's analyzer
//! leaves its lock untransformed (condition 4); the workload runs it
//! through [`Engine::untransformed_section`] in GOCC mode.

use gocc_htm::Tx;
use gocc_optilock::{call_site, ElidableRwMutex, LockRef};
use gocc_txds::{fnv1a, Arena, BlobHandle, TxCounter, TxMap};

use crate::engine::Engine;

/// Shard count (fastcache uses 512; scaled to the simulation).
pub const SHARDS: usize = 16;

/// Maximum value size `Set` accepts before panicking, like fastcache's
/// 64 KB limit.
pub const MAX_VALUE_LEN: usize = 64 * 1024;

struct Shard {
    lock: ElidableRwMutex,
    index: TxMap,
}

/// The sharded cache.
pub struct FastCache {
    shards: Vec<Shard>,
    arena: Arena,
    /// Shared stats updated inside critical sections.
    get_calls: TxCounter,
    set_calls: TxCounter,
    misses: TxCounter,
}

impl FastCache {
    /// Creates an empty cache sized for roughly `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FastCache {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    lock: ElidableRwMutex::new(),
                    index: TxMap::with_capacity((capacity / SHARDS).max(16) * 4),
                })
                .collect(),
            arena: Arena::new(),
            get_calls: TxCounter::new(0),
            set_calls: TxCounter::new(0),
            misses: TxCounter::new(0),
        }
    }

    /// Benchmark key hash.
    #[must_use]
    pub fn key(i: usize) -> u64 {
        fnv1a(format!("\x00\x01key{i}").as_bytes())
    }

    fn shard(&self, key: u64) -> &Shard {
        &self.shards[(key as usize) % SHARDS]
    }

    /// `CacheGet`: look up a key and copy its value out. The critical
    /// section updates the shared `get_calls`/`misses` counters, so at
    /// high concurrency even read-mostly sections conflict (the Figure 9
    /// dynamic the perceptron then dampens).
    pub fn get(&self, engine: &Engine<'_>, key: u64) -> Option<Vec<u8>> {
        let shard = self.shard(key);
        let handle = engine.section(call_site!(), LockRef::Read(&shard.lock), |tx| {
            self.get_calls.add(tx, 1)?;
            match shard.index.get(tx, key)? {
                Some(raw) => Ok(Some(BlobHandle::from_raw(raw))),
                None => {
                    self.misses.add(tx, 1)?;
                    Ok(None)
                }
            }
        })?;
        self.arena.load(handle)
    }

    /// `CacheHas`: like `Get` but without materializing the value —
    /// shorter section, fewer conflicts, higher speedups (per the paper).
    pub fn has(&self, engine: &Engine<'_>, key: u64) -> bool {
        let shard = self.shard(key);
        engine.section(call_site!(), LockRef::Read(&shard.lock), |tx| {
            shard.index.contains(tx, key)
        })
    }

    /// `CacheSet`: validates, stores the blob, indexes it. May panic on
    /// oversized values, so GOCC leaves the lock untransformed; both modes
    /// run it pessimistically (via the elidable wrapper in GOCC mode, so
    /// concurrent elided readers abort correctly).
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds [`MAX_VALUE_LEN`], like fastcache.
    pub fn set(&self, engine: &Engine<'_>, key: u64, value: &[u8]) {
        assert!(
            value.len() <= MAX_VALUE_LEN,
            "fastcache: value too large ({} bytes)",
            value.len()
        );
        let handle = self.arena.store(value);
        let shard = self.shard(key);
        engine.untransformed_section(LockRef::Write(&shard.lock), |tx| {
            self.set_calls.add(tx, 1)?;
            shard.index.insert(tx, key, handle.to_raw())?;
            Ok(())
        });
    }

    /// `CacheDel`.
    pub fn del(&self, engine: &Engine<'_>, key: u64) {
        let shard = self.shard(key);
        engine.section(call_site!(), LockRef::Write(&shard.lock), |tx| {
            shard.index.remove(tx, key)?;
            Ok(())
        });
    }

    /// Total entries across shards (reads every shard lock).
    pub fn entry_count(&self, engine: &Engine<'_>) -> u64 {
        let mut total = 0;
        for shard in &self.shards {
            total += engine.section(call_site!(), LockRef::Read(&shard.lock), |tx| {
                shard.index.len(tx)
            });
        }
        total
    }

    /// Stats snapshot `(get_calls, set_calls, misses)`.
    pub fn stats(&self, engine: &Engine<'_>) -> (u64, u64, u64) {
        // Stats counters are owned by the cache as a whole; read them
        // under the first shard's lock (any serialization point works).
        engine.section(call_site!(), LockRef::Read(&self.shards[0].lock), |tx| {
            Ok((
                self.get_calls.get(tx)?,
                self.set_calls.get(tx)?,
                self.misses.get(tx)?,
            ))
        })
    }

    /// Preloads `n` entries without concurrency.
    pub fn preload(&self, rt: &gocc_htm::HtmRuntime, n: usize, value: &[u8]) {
        let mut tx = Tx::direct(rt);
        for i in 0..n {
            let key = Self::key(i);
            let handle = self.arena.store(value);
            self.shard(key)
                .index
                .insert(&mut tx, key, handle.to_raw())
                .expect("preload");
        }
        tx.commit().expect("direct commit");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Mode;
    use gocc_optilock::GoccRuntime;

    #[test]
    fn set_get_roundtrip_in_both_modes() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let cache = FastCache::new(256);
            let engine = Engine::new(&rt, mode);
            cache.set(&engine, FastCache::key(1), b"hello");
            assert_eq!(
                cache.get(&engine, FastCache::key(1)).as_deref(),
                Some(&b"hello"[..])
            );
            assert!(cache.has(&engine, FastCache::key(1)));
            assert!(!cache.has(&engine, FastCache::key(42)));
            assert_eq!(cache.get(&engine, FastCache::key(42)), None);
            let (gets, sets, misses) = cache.stats(&engine);
            assert_eq!((gets, sets, misses), (2, 1, 1));
        }
    }

    #[test]
    #[should_panic(expected = "value too large")]
    fn oversized_set_panics() {
        let rt = GoccRuntime::new_default();
        let cache = FastCache::new(16);
        let engine = Engine::new(&rt, Mode::Lock);
        let big = vec![0u8; MAX_VALUE_LEN + 1];
        cache.set(&engine, 1, &big);
    }

    #[test]
    fn del_and_entry_count() {
        let rt = GoccRuntime::new_default();
        let cache = FastCache::new(256);
        cache.preload(rt.htm(), 20, b"v");
        let engine = Engine::new(&rt, Mode::Gocc);
        assert_eq!(cache.entry_count(&engine), 20);
        cache.del(&engine, FastCache::key(3));
        assert_eq!(cache.entry_count(&engine), 19);
    }

    #[test]
    fn concurrent_get_set_consistent() {
        let rt = GoccRuntime::new_default();
        let cache = FastCache::new(1024);
        cache.preload(rt.htm(), 64, b"init");
        let engine = Engine::new(&rt, Mode::Gocc);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (engine, cache) = (&engine, &cache);
                s.spawn(move || {
                    for i in 0..100 {
                        if t % 2 == 0 {
                            let _ = cache.get(engine, FastCache::key(i % 64));
                        } else {
                            cache.set(engine, FastCache::key(i % 64), b"updated");
                        }
                    }
                });
            }
        });
        // All keys still resolve to a valid blob.
        for i in 0..64 {
            let v = cache.get(&engine, FastCache::key(i)).expect("present");
            assert!(v == b"init" || v == b"updated");
        }
    }
}
