//! A go-cache-like in-memory key/value store (Figure 7).
//!
//! Two layers, exactly like the original benchmarks: direct map access
//! guarded by an `RWMutex` (the group that speeds up by >100% under GOCC
//! because elision removes the contended reader-count RMWs), and the cache
//! layer that keeps an expiration beside each value — one map of items, as
//! go-cache's `map[string]Item` (mildly improved, never degraded).

use gocc_htm::{Tx, TxResult};
use gocc_optilock::{call_site, ElidableRwMutex, LockRef};
use gocc_txds::{fnv1a, TxMap};

use crate::engine::Engine;

/// The direct RWMutex-protected map of the `RWMutexMap*` benchmarks.
pub struct RwMap {
    lock: ElidableRwMutex,
    items: TxMap,
}

impl RwMap {
    /// Creates a map preloaded with `preload` keys.
    #[must_use]
    pub fn new(rt: &gocc_htm::HtmRuntime, preload: usize) -> Self {
        let map = RwMap {
            lock: ElidableRwMutex::new(),
            items: TxMap::with_capacity(preload * 4),
        };
        let mut tx = Tx::direct(rt);
        for i in 0..preload {
            map.items
                .insert(&mut tx, Self::key(i), i as u64)
                .expect("preload");
        }
        tx.commit().expect("direct commit");
        map
    }

    /// Benchmark key hash (`"foo"`-style small string keys).
    #[must_use]
    pub fn key(i: usize) -> u64 {
        fnv1a(format!("key-{i}").as_bytes())
    }

    /// `RWMutexMapGet`: read one key under `RLock`.
    pub fn get(&self, engine: &Engine<'_>, key: u64) -> Option<u64> {
        engine.section(call_site!(), LockRef::Read(&self.lock), |tx| {
            self.items.get(tx, key)
        })
    }

    /// `RWMutexMapSet`: store one key under `Lock`.
    pub fn set(&self, engine: &Engine<'_>, key: u64, value: u64) {
        engine.section(call_site!(), LockRef::Write(&self.lock), |tx| {
            self.items.insert(tx, key, value)?;
            Ok(())
        });
    }

    /// `RWMutexMapLen`: size query under `RLock`.
    pub fn len(&self, engine: &Engine<'_>) -> u64 {
        engine.section(call_site!(), LockRef::Read(&self.lock), |tx| {
            self.items.len(tx)
        })
    }
}

/// One replicated mutation for [`Cache::apply_versioned`]: the post-image
/// a primary's committed write produced, in a form a replica can apply
/// without re-running the verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOp {
    /// Store `value` with absolute expiration `exp` (0 = none).
    Put {
        /// Hashed key word.
        key: u64,
        /// Value word.
        value: u64,
        /// Absolute expiration tick.
        exp: u64,
    },
    /// Remove the key.
    Del {
        /// Hashed key word.
        key: u64,
    },
    /// Store `value`, preserving any existing expiration (the INCR
    /// post-image).
    PutVal {
        /// Hashed key word.
        key: u64,
        /// Value word.
        value: u64,
    },
}

/// One pre-decoded request in a batched shard-group, for
/// [`Cache::execute_batch`]: the subset of verbs that touch a single key
/// (SCAN and control verbs never batch), with the key already hashed so
/// the section body does no parsing or hashing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOp {
    /// Point lookup (expiration-checked, like [`Cache::get`]).
    Get {
        /// Hashed key word.
        key: u64,
    },
    /// Store with a ttl resolved against the in-section logical clock.
    Set {
        /// Hashed key word.
        key: u64,
        /// Value word.
        value: u64,
        /// Relative ttl in clock ticks (0 = never expires).
        ttl: u64,
    },
    /// Remove the key.
    Del {
        /// Hashed key word.
        key: u64,
    },
    /// Wrapping add, missing key treated as 0.
    Incr {
        /// Hashed key word.
        key: u64,
        /// Amount to add.
        delta: u64,
    },
}

/// Per-op result of [`Cache::execute_batch`], in input order. Mutating
/// replies carry the same `seq` the `_seq` single-op methods return, so
/// WAL staging and replication publishing see identical records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchReply {
    /// GET result.
    Value {
        /// Whether the key was present and unexpired.
        found: bool,
        /// The value (0 when not found).
        value: u64,
    },
    /// SET result.
    Stored {
        /// Commit sequence number of the write.
        seq: u64,
        /// Resolved absolute expiration tick (0 = none).
        exp: u64,
    },
    /// DEL result.
    Deleted {
        /// Whether the key existed.
        existed: bool,
        /// Commit sequence number of the write.
        seq: u64,
    },
    /// INCR result.
    Counter {
        /// The post-increment value.
        value: u64,
        /// Commit sequence number of the write.
        seq: u64,
    },
}

/// What the cache keeps under a key — go-cache's `Item{Object,
/// Expiration}`, the value of its one `map[string]Item`.
#[derive(Clone, Copy, Debug, Default)]
struct Item {
    value: u64,
    /// Absolute expiration tick (0 = never expires).
    exp: u64,
}

// State, generation, key, value and expiration are one 32 B slot: two to a
// cache line, and exactly what a transaction stages inline, so a SET writes
// one line and nothing takes the arena's overflow path.
const _: () = assert!(TxMap::<Item>::SLOT_BYTES == 32 && gocc_htm::INLINE_VALUE_BYTES == 32);

/// The cache layer of go-cache: values carry an expiration stamp.
pub struct Cache {
    lock: ElidableRwMutex,
    /// key → (value, expiration): one map of items, as go-cache's.
    items: TxMap<Item>,
    /// Logical clock standing in for `time.Now()` (advanced by the
    /// harness; reading wall-clock time inside a transaction would be an
    /// HTM-unfriendly operation on real hardware too).
    now: gocc_txds::TxCounter,
    /// Commit sequence number for durable writes: bumped *inside* the
    /// mutating critical section, so the sequence order equals the commit
    /// order and a WAL replay sorted by it rebuilds this exact state.
    seq: gocc_txds::TxCounter,
}

impl Cache {
    /// Creates an empty cache with room for `capacity` entries (the
    /// server's constructor: capacity is a deployment decision there, not
    /// a function of preloaded benchmark keys). `TxMap` probing degrades
    /// near full occupancy, so size at roughly 2× the expected key count.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Cache {
            lock: ElidableRwMutex::new(),
            items: TxMap::with_capacity(capacity),
            now: gocc_txds::TxCounter::new(1),
            seq: gocc_txds::TxCounter::new(0),
        }
    }

    /// Creates a cache preloaded with `preload` non-expiring keys.
    #[must_use]
    pub fn new(rt: &gocc_htm::HtmRuntime, preload: usize) -> Self {
        let c = Cache::with_capacity(preload * 4);
        let mut tx = Tx::direct(rt);
        for i in 0..preload {
            let item = Item {
                value: i as u64,
                exp: 0,
            };
            c.items
                .insert(&mut tx, RwMap::key(i), item)
                .expect("preload");
        }
        tx.commit().expect("direct commit");
        c
    }

    // ------------------------------------------------------------------
    // The verb bodies: one probe of `items` per key. Every section below
    // — single-op, `_seq`, batched, replicated — is built from these, so
    // the paths cannot drift apart.
    // ------------------------------------------------------------------

    /// GET: the value under `key` unless absent or expired.
    #[inline]
    fn get_in<'a>(&'a self, tx: &mut Tx<'a>, key: u64) -> TxResult<Option<u64>> {
        let Some(item) = self.items.get(tx, key)? else {
            return Ok(None);
        };
        if item.exp != 0 && item.exp < self.now.get(tx)? {
            return Ok(None);
        }
        Ok(Some(item.value))
    }

    /// SET: stores `value` and returns the absolute expiration `ttl`
    /// resolves to (0 for `ttl == 0`, which also clears an earlier one).
    #[inline]
    fn set_in<'a>(&'a self, tx: &mut Tx<'a>, key: u64, value: u64, ttl: u64) -> TxResult<u64> {
        let exp = if ttl == 0 { 0 } else { self.now.get(tx)? + ttl };
        self.items.insert(tx, key, Item { value, exp })?;
        Ok(exp)
    }

    /// DEL: whether the key existed.
    #[inline]
    fn del_in<'a>(&'a self, tx: &mut Tx<'a>, key: u64) -> TxResult<bool> {
        Ok(self.items.remove(tx, key)?.is_some())
    }

    /// Stores `f(previous value)` — 0 for a missing key — under `key` and
    /// returns it, keeping the expiration the slot already holds: INCR and
    /// the replicated `PutVal`.
    #[inline]
    fn put_val_in<'a>(
        &'a self,
        tx: &mut Tx<'a>,
        key: u64,
        f: impl FnOnce(u64) -> u64,
    ) -> TxResult<u64> {
        let mut new = 0;
        self.items.upsert(tx, key, |prev| {
            let prev = prev.unwrap_or_default();
            new = f(prev.value);
            Item {
                value: new,
                exp: prev.exp,
            }
        })?;
        Ok(new)
    }

    /// `CacheGet(NotExpiring)`: lookup + expiration check under `RLock`.
    pub fn get(&self, engine: &Engine<'_>, key: u64) -> Option<u64> {
        engine.section(call_site!(), LockRef::Read(&self.lock), |tx| {
            self.get_in(tx, key)
        })
    }

    /// `CacheSet`: store with expiration under `Lock`.
    pub fn set(&self, engine: &Engine<'_>, key: u64, value: u64, ttl: u64) {
        engine.section(call_site!(), LockRef::Write(&self.lock), |tx| {
            self.set_in(tx, key, value, ttl)?;
            Ok(())
        });
    }

    /// `CacheDelete`. Returns whether the key existed.
    pub fn delete(&self, engine: &Engine<'_>, key: u64) -> bool {
        engine.section(call_site!(), LockRef::Write(&self.lock), |tx| {
            self.del_in(tx, key)
        })
    }

    /// `CacheIncrement`: wrapping add to the value under `key`, treating a
    /// missing key as 0; returns the new value. The read-modify-write runs
    /// as one critical section, so concurrent increments never lose
    /// updates in either mode.
    pub fn incr(&self, engine: &Engine<'_>, key: u64, delta: u64) -> u64 {
        engine.section(call_site!(), LockRef::Write(&self.lock), |tx| {
            self.put_val_in(tx, key, |cur| cur.wrapping_add(delta))
        })
    }

    /// Dumps up to `limit` `(key, value)` pairs under `RLock`, in table
    /// order (expiration stamps are not consulted — this is the cheap
    /// diagnostic dump, not a point lookup). The full-table walk makes a
    /// deliberately large read set: under GOCC this is the
    /// capacity-abort generator among the server's verbs.
    pub fn scan(&self, engine: &Engine<'_>, limit: usize) -> Vec<(u64, u64)> {
        engine.section(call_site!(), LockRef::Read(&self.lock), |tx| {
            // Built fresh on every attempt: an aborted speculation re-runs
            // the closure, and entries from the doomed attempt must not
            // survive into the retry.
            let mut out = Vec::new();
            self.items.for_each(tx, |k, item| {
                if out.len() < limit {
                    out.push((k, item.value));
                }
            })?;
            Ok(out)
        })
    }

    /// Advances the logical clock (harness only, not a benchmark op).
    pub fn tick(&self, engine: &Engine<'_>) {
        engine.section(call_site!(), LockRef::Write(&self.lock), |tx| {
            self.now.add(tx, 1)?;
            Ok(())
        });
    }

    /// `CacheItemCount`.
    pub fn item_count(&self, engine: &Engine<'_>) -> u64 {
        engine.section(call_site!(), LockRef::Read(&self.lock), |tx| {
            self.items.len(tx)
        })
    }

    // ------------------------------------------------------------------
    // Durable-write support (the server's WAL rides on these).
    //
    // Each `_seq` variant is its plain counterpart plus a sequence bump
    // inside the same critical section; the returned `seq` totally orders
    // this write against every other mutation of the shard, which is what
    // makes a replay sorted by `seq` rebuild the same state. The plain
    // methods stay untouched — benchmarks pay nothing for durability.
    // ------------------------------------------------------------------

    /// [`Cache::set`] returning `(seq, exp)` for WAL staging (the resolved
    /// absolute expiration is what replay must restore, not the ttl).
    pub fn set_seq(&self, engine: &Engine<'_>, key: u64, value: u64, ttl: u64) -> (u64, u64) {
        engine.section(call_site!(), LockRef::Write(&self.lock), |tx| {
            let exp = self.set_in(tx, key, value, ttl)?;
            let seq = self.seq.add(tx, 1)?;
            Ok((seq, exp))
        })
    }

    /// [`Cache::delete`] returning `(existed, seq)` for WAL staging.
    pub fn delete_seq(&self, engine: &Engine<'_>, key: u64) -> (bool, u64) {
        engine.section(call_site!(), LockRef::Write(&self.lock), |tx| {
            let existed = self.del_in(tx, key)?;
            let seq = self.seq.add(tx, 1)?;
            Ok((existed, seq))
        })
    }

    /// [`Cache::incr`] returning `(new_value, seq)` for WAL staging. The
    /// log records the post-image (the new value), not the delta, so
    /// replaying any suffix of the log is idempotent per key.
    pub fn incr_seq(&self, engine: &Engine<'_>, key: u64, delta: u64) -> (u64, u64) {
        engine.section(call_site!(), LockRef::Write(&self.lock), |tx| {
            let new = self.put_val_in(tx, key, |cur| cur.wrapping_add(delta))?;
            let seq = self.seq.add(tx, 1)?;
            Ok((new, seq))
        })
    }

    /// Executes a whole shard-group of verbs through **one** critical
    /// section — the paper's amortization applied per-batch: one
    /// FastLock/FastUnlock (or one elision envelope) covers every request
    /// in `ops` instead of one per request. Replies come back in input
    /// order and are bit-identical to what the single-op methods
    /// ([`Cache::get`], [`Cache::set_seq`], [`Cache::delete_seq`],
    /// [`Cache::incr_seq`]) would have produced executed back-to-back.
    ///
    /// Takes the write lock only when the batch mutates; an all-GET batch
    /// stays on the read side so concurrent read batches still elide in
    /// parallel. Fallback under aborts is whole-shard-group retry: the
    /// engine re-runs this closure (speculatively or, after repeated
    /// aborts, under the pessimistic lock), which is still a single
    /// acquisition for the group — amortization survives the fallback.
    pub fn execute_batch(&self, engine: &Engine<'_>, ops: &[BatchOp]) -> Vec<BatchReply> {
        let mut out = Vec::with_capacity(ops.len());
        self.execute_batch_into(engine, ops, &mut out);
        out
    }

    /// [`Cache::execute_batch`] writing its replies into `out` (cleared
    /// first), so a caller that keeps `out` across calls — the server's
    /// connection pump — allocates nothing per batch.
    pub fn execute_batch_into(
        &self,
        engine: &Engine<'_>,
        ops: &[BatchOp],
        out: &mut Vec<BatchReply>,
    ) {
        let write = ops.iter().any(|op| !matches!(op, BatchOp::Get { .. }));
        let lock = if write {
            LockRef::Write(&self.lock)
        } else {
            LockRef::Read(&self.lock)
        };
        engine.section(call_site!(), lock, |tx| {
            // Refilled from empty on every attempt: an aborted speculation
            // re-runs the closure, and replies from the doomed attempt
            // must not survive into the retry.
            out.clear();
            for op in ops {
                let reply = match *op {
                    BatchOp::Get { key } => {
                        let hit = self.get_in(tx, key)?;
                        BatchReply::Value {
                            found: hit.is_some(),
                            value: hit.unwrap_or(0),
                        }
                    }
                    BatchOp::Set { key, value, ttl } => {
                        let exp = self.set_in(tx, key, value, ttl)?;
                        let seq = self.seq.add(tx, 1)?;
                        BatchReply::Stored { seq, exp }
                    }
                    BatchOp::Del { key } => {
                        let existed = self.del_in(tx, key)?;
                        let seq = self.seq.add(tx, 1)?;
                        BatchReply::Deleted { existed, seq }
                    }
                    BatchOp::Incr { key, delta } => {
                        let value = self.put_val_in(tx, key, |cur| cur.wrapping_add(delta))?;
                        let seq = self.seq.add(tx, 1)?;
                        BatchReply::Counter { value, seq }
                    }
                };
                out.push(reply);
            }
            Ok(())
        });
    }

    /// Consistent snapshot of the shard — `(key, value, exp)` triples plus
    /// the sequence and clock — taken in **one** read section, so it
    /// captures a state that actually existed: every write with `seq` ≤
    /// the returned value is included, every later one excluded.
    pub fn snapshot(&self, engine: &Engine<'_>) -> (Vec<(u64, u64, u64)>, u64, u64) {
        engine.section(call_site!(), LockRef::Read(&self.lock), |tx| {
            // Built fresh per attempt: an aborted speculation must not
            // leak doomed entries into the retry.
            let mut entries = Vec::new();
            self.items
                .for_each(tx, |k, item| entries.push((k, item.value, item.exp)))?;
            let seq = self.seq.get(tx)?;
            let now = self.now.get(tx)?;
            Ok((entries, seq, now))
        })
    }

    /// Prefetches `key`'s item slot and the stripe word guarding it, ahead
    /// of a batch that holds `key`: a server issues it as it routes each
    /// request, so a window's cache misses are taken during its decode
    /// instead of one key at a time inside the section. A hint: no
    /// transaction records it, and no result changes.
    #[inline]
    pub fn prefetch(&self, engine: &Engine<'_>, key: u64) {
        self.items.prefetch(engine.runtime().htm(), key);
    }

    /// Current shard version: the sequence number of the last committed
    /// write, read in its own read section.
    pub fn version(&self, engine: &Engine<'_>) -> u64 {
        engine.section(call_site!(), LockRef::Read(&self.lock), |tx| {
            self.seq.get(tx)
        })
    }

    /// The paper's validate-then-apply, on the wire: applies a replicated
    /// batch **only if** the shard's version equals `prev_version`, all in
    /// one write section. On match, every op is applied, the version
    /// advances to `prev_version + ops.len()`, the logical clock catches
    /// up to the primary's `now`, and the new version is returned. On
    /// mismatch nothing is applied and `Err(actual_version)` is returned —
    /// the `ConcurrencyConflict` the replication stream answers with a
    /// NAK.
    pub fn apply_versioned(
        &self,
        engine: &Engine<'_>,
        prev_version: u64,
        now: u64,
        ops: &[CacheOp],
    ) -> Result<u64, u64> {
        engine.section(call_site!(), LockRef::Write(&self.lock), |tx| {
            let cur = self.seq.get(tx)?;
            if cur != prev_version {
                return Ok(Err(cur));
            }
            for op in ops {
                match *op {
                    CacheOp::Put { key, value, exp } => {
                        self.items.insert(tx, key, Item { value, exp })?;
                    }
                    CacheOp::Del { key } => {
                        self.del_in(tx, key)?;
                    }
                    CacheOp::PutVal { key, value } => {
                        self.put_val_in(tx, key, |_| value)?;
                    }
                }
            }
            let new_version = prev_version + ops.len() as u64;
            self.seq.set(tx, new_version)?;
            if now > self.now.get(tx)? {
                self.now.set(tx, now)?;
            }
            Ok(Ok(new_version))
        })
    }

    /// Atomically replaces the shard's entire contents with a snapshot
    /// image — the resync path after a replication gap. Unlike
    /// [`Cache::restore`] this runs on a **live** shard through the
    /// engine, in one write section, so concurrent readers see either the
    /// old state or the new one, never a half-loaded mix. (The write set
    /// is the image; past 510 entries it aborts for capacity under GOCC
    /// and takes the pessimistic path, which is exactly right for a rare
    /// bulk op.)
    pub fn replace(&self, engine: &Engine<'_>, entries: &[(u64, u64, u64)], seq: u64, now: u64) {
        engine.section(call_site!(), LockRef::Write(&self.lock), |tx| {
            self.items.clear(tx)?;
            for &(key, value, exp) in entries {
                self.items.insert(tx, key, Item { value, exp })?;
            }
            self.seq.set(tx, seq)?;
            self.now.set(tx, now.max(1))?;
            Ok(())
        });
    }

    /// Rebuilds the shard from a recovered image. Boot-time only (runs as
    /// a direct transaction before the server accepts connections), which
    /// is why it takes the runtime rather than an [`Engine`].
    pub fn restore(
        &self,
        rt: &gocc_htm::HtmRuntime,
        entries: &[(u64, u64, u64)],
        seq: u64,
        now: u64,
    ) {
        let mut tx = Tx::direct(rt);
        for &(key, value, exp) in entries {
            self.items
                .insert(&mut tx, key, Item { value, exp })
                .expect("restore insert");
        }
        self.seq.set(&mut tx, seq).expect("restore seq");
        self.now.set(&mut tx, now.max(1)).expect("restore now");
        tx.commit().expect("restore commit");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Mode;
    use gocc_optilock::GoccRuntime;

    #[test]
    fn rwmap_get_set_roundtrip_in_both_modes() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let m = RwMap::new(rt.htm(), 16);
            let engine = Engine::new(&rt, mode);
            assert_eq!(m.get(&engine, RwMap::key(3)), Some(3));
            m.set(&engine, RwMap::key(100), 42);
            assert_eq!(m.get(&engine, RwMap::key(100)), Some(42));
            assert_eq!(m.len(&engine), 17);
        }
    }

    #[test]
    fn cache_expiration_semantics() {
        let rt = GoccRuntime::new_default();
        let c = Cache::new(rt.htm(), 4);
        let engine = Engine::new(&rt, Mode::Gocc);
        let k = RwMap::key(999);
        c.set(&engine, k, 7, 2);
        assert_eq!(c.get(&engine, k), Some(7));
        c.tick(&engine);
        c.tick(&engine);
        c.tick(&engine);
        assert_eq!(c.get(&engine, k), None, "expired entries read as absent");
        // Non-expiring entries survive ticks.
        assert_eq!(c.get(&engine, RwMap::key(1)), Some(1));
    }

    #[test]
    fn concurrent_readers_scale_on_fast_path() {
        let rt = GoccRuntime::new_default();
        let m = RwMap::new(rt.htm(), 64);
        let engine = Engine::new(&rt, Mode::Gocc);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (engine, m) = (&engine, &m);
                s.spawn(move || {
                    for i in 0..250 {
                        let _ = m.get(engine, RwMap::key((t * 13 + i) % 64));
                    }
                });
            }
        });
        let snap = rt.stats().snapshot();
        assert!(snap.fast_commits > 800, "reads should elide: {snap:?}");
    }

    #[test]
    fn delete_then_get_misses() {
        let rt = GoccRuntime::new_default();
        let c = Cache::new(rt.htm(), 8);
        let engine = Engine::new(&rt, Mode::Lock);
        assert_eq!(c.item_count(&engine), 8);
        assert!(c.delete(&engine, RwMap::key(2)));
        assert!(!c.delete(&engine, RwMap::key(2)), "second delete misses");
        assert_eq!(c.get(&engine, RwMap::key(2)), None);
        assert_eq!(c.item_count(&engine), 7);
    }

    #[test]
    fn incr_treats_missing_as_zero_and_wraps() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let c = Cache::new(rt.htm(), 4);
            let engine = Engine::new(&rt, mode);
            let k = RwMap::key(77);
            assert_eq!(c.incr(&engine, k, 5), 5, "missing key starts at 0");
            assert_eq!(c.incr(&engine, k, 3), 8);
            assert_eq!(c.get(&engine, k), Some(8));
            c.set(&engine, k, u64::MAX, 0);
            assert_eq!(c.incr(&engine, k, 2), 1, "wrapping add");
        }
    }

    #[test]
    fn concurrent_incrs_never_lose_updates() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let c = Cache::new(rt.htm(), 4);
            let engine = Engine::new(&rt, mode);
            let k = RwMap::key(5000);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let (engine, c) = (&engine, &c);
                    s.spawn(move || {
                        for _ in 0..250 {
                            c.incr(engine, k, 1);
                        }
                    });
                }
            });
            assert_eq!(c.get(&engine, k), Some(1000), "mode {mode:?}");
        }
    }

    #[test]
    fn seq_orders_writes_and_snapshot_restore_roundtrips() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let c = Cache::with_capacity(256);
            let engine = Engine::new(&rt, mode);
            let (s1, exp1) = c.set_seq(&engine, 10, 100, 0);
            let (s2, exp2) = c.set_seq(&engine, 11, 200, 5);
            let (v3, s3) = c.incr_seq(&engine, 10, 7);
            let (existed, s4) = c.delete_seq(&engine, 11);
            assert_eq!((s1, s2, s3, s4), (1, 2, 3, 4), "seq is dense per shard");
            assert_eq!(exp1, 0);
            assert_eq!(exp2, 6, "ttl resolves against the logical clock");
            assert_eq!(v3, 107);
            assert!(existed);

            let (entries, seq, now) = c.snapshot(&engine);
            assert_eq!(seq, 4);
            assert_eq!(now, 1);
            assert_eq!(entries, vec![(10, 107, 0)]);

            // A fresh cache restored from the snapshot serves the same
            // reads and continues the sequence where it left off.
            let rt2 = GoccRuntime::new_default();
            let c2 = Cache::with_capacity(256);
            c2.restore(rt2.htm(), &entries, seq, now);
            let engine2 = Engine::new(&rt2, mode);
            assert_eq!(c2.get(&engine2, 10), Some(107));
            assert_eq!(c2.get(&engine2, 11), None);
            let (s5, _) = c2.set_seq(&engine2, 12, 1, 0);
            assert_eq!(s5, 5, "sequence resumes after restore");
        }
    }

    #[test]
    fn concurrent_seq_writes_are_densely_ordered() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let c = Cache::with_capacity(1024);
            let engine = Engine::new(&rt, mode);
            let mut all: Vec<u64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4u64)
                    .map(|t| {
                        let (engine, c) = (&engine, &c);
                        s.spawn(move || {
                            (0..100u64)
                                .map(|i| c.set_seq(engine, t * 1000 + i, i, 0).0)
                                .collect::<Vec<u64>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            all.sort_unstable();
            assert_eq!(
                all,
                (1..=400).collect::<Vec<u64>>(),
                "every write got a unique dense seq ({mode:?})"
            );
        }
    }

    #[test]
    fn apply_versioned_is_version_checked_and_atomic() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let c = Cache::with_capacity(256);
            let engine = Engine::new(&rt, mode);
            let batch = [
                CacheOp::Put {
                    key: 1,
                    value: 10,
                    exp: 0,
                },
                CacheOp::Put {
                    key: 2,
                    value: 20,
                    exp: 9,
                },
                CacheOp::PutVal { key: 1, value: 11 },
            ];
            // Version 0 matches an empty shard: the batch applies.
            assert_eq!(c.apply_versioned(&engine, 0, 3, &batch), Ok(3));
            assert_eq!(c.version(&engine), 3);
            assert_eq!(c.get(&engine, 1), Some(11));
            assert_eq!(c.get(&engine, 2), Some(20));
            // A gap (replaying the same batch) is rejected untouched.
            assert_eq!(c.apply_versioned(&engine, 0, 3, &batch), Err(3));
            assert_eq!(c.get(&engine, 1), Some(11), "nak applied nothing");
            // The next contiguous batch applies, including deletes.
            let del = [CacheOp::Del { key: 2 }];
            assert_eq!(c.apply_versioned(&engine, 3, 3, &del), Ok(4));
            assert_eq!(c.get(&engine, 2), None, "mode {mode:?}");
        }
    }
    #[test]
    fn apply_versioned_advances_the_clock_monotonically() {
        let rt = GoccRuntime::new_default();
        let c = Cache::with_capacity(64);
        let engine = Engine::new(&rt, Mode::Gocc);
        let put = [CacheOp::Put {
            key: 5,
            value: 1,
            exp: 4,
        }];
        assert_eq!(c.apply_versioned(&engine, 0, 5, &put), Ok(1));
        // The entry expired at the primary (exp 4 < now 5).
        assert_eq!(c.get(&engine, 5), None);
        // A batch carrying an older clock must not rewind time.
        assert_eq!(c.apply_versioned(&engine, 1, 2, &[]), Ok(1));
        assert_eq!(c.get(&engine, 5), None, "clock never rewinds");
    }

    #[test]
    fn replace_swaps_the_whole_shard_in_both_modes() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let c = Cache::with_capacity(256);
            let engine = Engine::new(&rt, mode);
            c.set_seq(&engine, 1, 100, 0);
            c.set_seq(&engine, 2, 200, 0);
            let image = vec![(7u64, 70u64, 0u64), (8, 80, 3)];
            c.replace(&engine, &image, 42, 2);
            assert_eq!(c.get(&engine, 1), None, "old keys are gone");
            assert_eq!(c.get(&engine, 2), None);
            assert_eq!(c.get(&engine, 7), Some(70));
            assert_eq!(c.get(&engine, 8), Some(80));
            assert_eq!(c.version(&engine), 42, "version adopted wholesale");
            // Writes continue from the adopted version.
            let (seq, _) = c.set_seq(&engine, 9, 90, 0);
            assert_eq!(seq, 43, "mode {mode:?}");
        }
    }

    #[test]
    fn execute_batch_matches_sequential_verbs_in_both_modes() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let engine = Engine::new(&rt, mode);
            let batched = Cache::with_capacity(256);
            let oracle = Cache::with_capacity(256);

            let ops = [
                BatchOp::Set {
                    key: 1,
                    value: 10,
                    ttl: 0,
                },
                BatchOp::Get { key: 1 },
                BatchOp::Incr { key: 1, delta: 5 },
                BatchOp::Set {
                    key: 2,
                    value: 20,
                    ttl: 3,
                },
                BatchOp::Del { key: 2 },
                BatchOp::Get { key: 2 },
                BatchOp::Incr { key: 9, delta: 7 },
                BatchOp::Del { key: 42 },
            ];
            let replies = batched.execute_batch(&engine, &ops);

            // The oracle runs the same verbs through the single-op
            // methods; replies and end state must be bit-identical.
            let mut expect = Vec::new();
            for op in &ops {
                expect.push(match *op {
                    BatchOp::Get { key } => match oracle.get(&engine, key) {
                        Some(v) => BatchReply::Value {
                            found: true,
                            value: v,
                        },
                        None => BatchReply::Value {
                            found: false,
                            value: 0,
                        },
                    },
                    BatchOp::Set { key, value, ttl } => {
                        let (seq, exp) = oracle.set_seq(&engine, key, value, ttl);
                        BatchReply::Stored { seq, exp }
                    }
                    BatchOp::Del { key } => {
                        let (existed, seq) = oracle.delete_seq(&engine, key);
                        BatchReply::Deleted { existed, seq }
                    }
                    BatchOp::Incr { key, delta } => {
                        let (value, seq) = oracle.incr_seq(&engine, key, delta);
                        BatchReply::Counter { value, seq }
                    }
                });
            }
            assert_eq!(replies, expect, "mode {mode:?}");
            assert_eq!(batched.version(&engine), oracle.version(&engine));
            for k in [1u64, 2, 9, 42] {
                assert_eq!(batched.get(&engine, k), oracle.get(&engine, k));
            }
        }
    }

    #[test]
    fn read_only_batches_stay_on_the_read_side() {
        let rt = GoccRuntime::new_default();
        let c = Cache::new(rt.htm(), 64);
        let engine = Engine::new(&rt, Mode::Gocc);
        let ops: Vec<BatchOp> = (0..32)
            .map(|i| BatchOp::Get {
                key: RwMap::key(i % 64),
            })
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (engine, c, ops) = (&engine, &c, &ops);
                s.spawn(move || {
                    for _ in 0..50 {
                        let replies = c.execute_batch(engine, ops);
                        assert!(replies
                            .iter()
                            .all(|r| matches!(r, BatchReply::Value { found: true, .. })));
                    }
                });
            }
        });
        let snap = rt.stats().snapshot();
        assert!(
            snap.fast_commits > 150,
            "all-GET batches should elide concurrently: {snap:?}"
        );
    }

    #[test]
    fn scan_dumps_entries_with_limit() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let c = Cache::new(rt.htm(), 16);
            let engine = Engine::new(&rt, mode);
            let all = c.scan(&engine, 1000);
            assert_eq!(all.len(), 16);
            let mut sorted: Vec<u64> = all.iter().map(|&(_, v)| v).collect();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..16).collect::<Vec<u64>>());
            assert_eq!(c.scan(&engine, 3).len(), 3, "limit respected");
            assert_eq!(c.scan(&engine, 0).len(), 0);
        }
    }

    /// The footprint the one-map layout buys, by count: a GET validates
    /// the map's generation and one slot (the two-map layout read both of
    /// each), and a SET of an existing key stages one line (it staged one
    /// per map).
    #[test]
    fn a_get_reads_two_words_and_a_set_writes_one_line() {
        let rt = GoccRuntime::new_default();
        let c = Cache::with_capacity(256);
        // Alone in the table, the key sits in its home slot.
        c.restore(rt.htm(), &[(7, 70, 0)], 1, 1);

        let mut tx = Tx::fast(rt.htm());
        assert_eq!(c.get_in(&mut tx, 7).unwrap(), Some(70));
        assert_eq!(tx.read_set_len(), 2, "gen + slot");
        assert_eq!(tx.write_set_lines(), 0);
        tx.commit().unwrap();

        let mut tx = Tx::fast(rt.htm());
        assert_eq!(c.set_in(&mut tx, 7, 71, 0).unwrap(), 0);
        assert_eq!(tx.write_set_lines(), 1, "the slot's line, nothing else");
        assert_eq!(tx.read_set_len(), 2);
        tx.commit().unwrap();

        // An expiring key costs the GET one more word: the clock.
        let mut tx = Tx::fast(rt.htm());
        c.set_in(&mut tx, 7, 72, 5).unwrap();
        tx.commit().unwrap();
        let mut tx = Tx::fast(rt.htm());
        assert_eq!(c.get_in(&mut tx, 7).unwrap(), Some(72));
        assert_eq!(tx.read_set_len(), 3, "gen + slot + now");
        tx.commit().unwrap();
        assert_eq!(rt.htm().stats().snapshot().inline_overflows, 0);
    }

    /// `section_w50`'s shape — two threads, 16 keys, half the calls
    /// writes: every staged slot fits the arena's inline buffer, so no
    /// attempt is lost to the overflow path.
    #[test]
    fn a_contended_write_mix_stages_every_slot_inline() {
        let rt = GoccRuntime::new_default();
        let c = Cache::new(rt.htm(), 16);
        let engine = Engine::new(&rt, Mode::Gocc);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (engine, c) = (&engine, &c);
                s.spawn(move || {
                    for i in 0..4000u64 {
                        let key = RwMap::key(((i * 7 + t) % 16) as usize);
                        match i % 8 {
                            0 | 2 | 4 => c.set(engine, key, i, i % 3),
                            6 => drop(c.incr(engine, key, 1)),
                            7 => drop(c.delete(engine, key)),
                            _ => drop(c.get(engine, key)),
                        }
                    }
                });
            }
        });
        let snap = rt.htm().stats().snapshot();
        assert!(snap.commits > 4000, "the mix ran elided: {snap:?}");
        assert_eq!(snap.inline_overflows, 0);
        assert_eq!(snap.aborts_capacity, 0);
    }

    fn sorted(mut entries: Vec<(u64, u64, u64)>) -> Vec<(u64, u64, u64)> {
        entries.sort_unstable();
        entries
    }

    #[test]
    fn value_only_writes_keep_the_expiration_and_set_replaces_it() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let c = Cache::with_capacity(256);
            let engine = Engine::new(&rt, mode);
            let (_, exp) = c.set_seq(&engine, 1, 10, 4);
            assert_eq!(exp, 5);
            // INCR, single and batched, and a replicated PutVal.
            assert_eq!(c.incr(&engine, 1, 1), 11);
            assert_eq!(c.incr_seq(&engine, 1, 1).0, 12);
            c.execute_batch(&engine, &[BatchOp::Incr { key: 1, delta: 1 }]);
            let v = c.version(&engine);
            let put_val = [CacheOp::PutVal { key: 1, value: 20 }];
            assert_eq!(c.apply_versioned(&engine, v, 1, &put_val), Ok(v + 1));
            assert_eq!(c.snapshot(&engine).0, vec![(1, 20, 5)], "mode {mode:?}");
            // INCR and PutVal of a missing key create it without one.
            c.incr(&engine, 2, 3);
            let put_new = [CacheOp::PutVal { key: 3, value: 30 }];
            assert_eq!(c.apply_versioned(&engine, v + 1, 1, &put_new), Ok(v + 2));
            assert_eq!(
                sorted(c.snapshot(&engine).0),
                vec![(1, 20, 5), (2, 3, 0), (3, 30, 0)]
            );
            // SET with ttl 0 clears the expiration; a new ttl replaces it.
            c.set(&engine, 1, 21, 0);
            c.set(&engine, 2, 4, 9);
            assert_eq!(
                sorted(c.snapshot(&engine).0),
                vec![(1, 21, 0), (2, 4, 10), (3, 30, 0)]
            );
            // DEL then SET: nothing of the old item survives.
            assert!(c.delete(&engine, 2));
            c.set(&engine, 2, 5, 0);
            for _ in 0..20 {
                c.tick(&engine);
            }
            assert_eq!(c.get(&engine, 2), Some(5), "mode {mode:?}");
        }
    }

    #[test]
    fn an_expired_key_is_a_miss_single_and_batched() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let c = Cache::with_capacity(256);
            let engine = Engine::new(&rt, mode);
            c.set(&engine, 1, 10, 1); // expires after tick 2
            c.set(&engine, 2, 20, 0);
            let gets = [BatchOp::Get { key: 1 }, BatchOp::Get { key: 2 }];
            let hit = |value| BatchReply::Value { found: true, value };
            let miss = BatchReply::Value {
                found: false,
                value: 0,
            };
            c.tick(&engine);
            assert_eq!(c.get(&engine, 1), Some(10), "exp == now is still live");
            assert_eq!(c.execute_batch(&engine, &gets), vec![hit(10), hit(20)]);
            c.tick(&engine);
            assert_eq!(c.get(&engine, 1), None);
            assert_eq!(c.execute_batch(&engine, &gets), vec![miss, hit(20)]);
            // Expired, not gone: still counted, still dumped, and an INCR
            // adds to the stored value under the expiration that hides it.
            assert_eq!(c.item_count(&engine), 2);
            assert_eq!(c.incr(&engine, 1, 1), 11);
            assert_eq!(c.get(&engine, 1), None, "mode {mode:?}");
        }
    }

    #[test]
    fn triples_roundtrip_through_snapshot_restore_replace_and_apply() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let engine = Engine::new(&rt, mode);
            let image = vec![(1u64, 10u64, 0u64), (2, 20, 7), (3, u64::MAX, u64::MAX)];

            let restored = Cache::with_capacity(64);
            restored.restore(rt.htm(), &image, 9, 4);
            let (entries, seq, now) = restored.snapshot(&engine);
            assert_eq!((sorted(entries), seq, now), (image.clone(), 9, 4));

            let replaced = Cache::with_capacity(64);
            replaced.set(&engine, 2, 99, 99);
            replaced.set(&engine, 50, 5, 5);
            replaced.replace(&engine, &image, 9, 4);
            let (entries, seq, now) = replaced.snapshot(&engine);
            assert_eq!((sorted(entries), seq, now), (image.clone(), 9, 4));

            let applied = Cache::with_capacity(64);
            let ops = [
                CacheOp::Put {
                    key: 1,
                    value: 11,
                    exp: 3,
                },
                CacheOp::Put {
                    key: 2,
                    value: 20,
                    exp: 7,
                },
                CacheOp::Put {
                    key: 4,
                    value: 40,
                    exp: 8,
                },
                CacheOp::Put {
                    key: 1,
                    value: 12,
                    exp: 0,
                },
                CacheOp::Del { key: 4 },
                CacheOp::PutVal { key: 1, value: 10 },
                CacheOp::Put {
                    key: 3,
                    value: u64::MAX,
                    exp: u64::MAX,
                },
            ];
            assert_eq!(applied.apply_versioned(&engine, 0, 4, &ops), Ok(7));
            let (entries, seq, now) = applied.snapshot(&engine);
            assert_eq!((sorted(entries), seq, now), (image, 7, 4), "mode {mode:?}");
        }
    }
}
