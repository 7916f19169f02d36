//! A fixed-capacity transactional hash map.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::fmt;
use std::ops::Deref;
use std::ptr::NonNull;

use gocc_htm::{
    HtmRuntime, Tx, TxResult, TxVar, CACHE_LINE, INLINE_VALUE_ALIGN, INLINE_VALUE_BYTES,
};

use crate::hash::mix64;

/// Slot states. A `Copy` group per slot keeps each entry one transactional
/// word group, so a lookup touches O(1) cache lines — the property that
/// makes short critical sections HTM-friendly.
const EMPTY: u8 = 0;
const FULL: u8 = 1;
const TOMBSTONE: u8 = 2;

#[derive(Clone, Copy, Debug, Default)]
struct Slot<V> {
    state: u8,
    /// Generation stamp: slots from older generations read as empty, which
    /// is how [`TxMap::clear`] empties the table in O(1) — the same
    /// pointer-swap discipline Go code uses (`s.items = map[...]{}`).
    gen: u32,
    key: u64,
    value: V,
}

/// The slot array, starting on a cache-line boundary: a slot whose size
/// divides the line (the 32 B slot of a two-word value) then never
/// straddles two.
///
/// The boundary is found inside a plain zeroed allocation with a line to
/// spare, not asked of the allocator: an over-aligned request takes its
/// `posix_memalign` path, which hands out no lazily zeroed pages and does
/// not refill the holes earlier tables left (`serve_paced`, five set-ups
/// of four shards, read 3 MiB more resident that way).
struct Slots<V> {
    base: NonNull<u8>,
    first: NonNull<TxVar<Slot<V>>>,
    len: usize,
}

// SAFETY: `Slots` owns its cells like a `Box<[TxVar<Slot<V>>]>` does; the
// bounds are `TxVar`'s own.
unsafe impl<V: Send> Send for Slots<V> {}
// SAFETY: as above.
unsafe impl<V: Copy + Send> Sync for Slots<V> {}

impl<V: Copy + Default> Slots<V> {
    fn new(len: usize) -> Self {
        let layout = Self::layout(len);
        // SAFETY: the layout holds a spare line, so it is not zero-sized.
        let Some(base) = NonNull::new(unsafe { alloc_zeroed(layout) }) else {
            handle_alloc_error(layout)
        };
        // SAFETY: the first boundary is less than a line past `base`, and
        // the allocation is `len` cells and a line long.
        let first = unsafe { base.add(base.align_offset(CACHE_LINE)) }.cast::<TxVar<Slot<V>>>();
        for i in 0..len {
            // SAFETY: `len` cells fit between `first` and the end. (For a
            // slot whose default is all zeros these stores change nothing
            // and the optimiser drops them, so the pages stay untouched.)
            unsafe { first.add(i).write(TxVar::new(Slot::default())) };
        }
        Slots { base, first, len }
    }
}

impl<V> Slots<V> {
    fn layout(len: usize) -> Layout {
        let cells = Layout::array::<TxVar<Slot<V>>>(len).expect("TxMap capacity too large");
        assert!(cells.align() <= CACHE_LINE);
        Layout::from_size_align(cells.size() + CACHE_LINE, cells.align())
            .expect("TxMap capacity too large")
    }
}

impl<V> Deref for Slots<V> {
    type Target = [TxVar<Slot<V>>];

    fn deref(&self) -> &Self::Target {
        // SAFETY: `new` initialised `len` cells at `first`; they live until
        // drop.
        unsafe { std::slice::from_raw_parts(self.first.as_ptr(), self.len) }
    }
}

impl<V> Drop for Slots<V> {
    fn drop(&mut self) {
        // Slots are `Copy`, so there is nothing to drop in place.
        // SAFETY: allocated in `new` with this layout.
        unsafe { dealloc(self.base.as_ptr(), Self::layout(self.len)) };
    }
}

/// A fixed-capacity open-addressing hash map from `u64` to a small `Copy`
/// value (`u64` unless named otherwise).
///
/// All operations run inside a transaction context and therefore compose
/// into atomic critical sections. The capacity is fixed at construction
/// (a power of two); inserting into a full map returns `Ok(None)`-style
/// failure via [`TxMap::insert`]'s `inserted` flag rather than growing,
/// because a transactional rehash would overflow any realistic HTM write
/// set — real HTM-friendly designs size tables up front for the same
/// reason.
///
/// An entry is one slot — state, generation, key and value — read and
/// staged as a unit, so the value must leave the slot within the
/// transaction arena's inline buffer (two words do, exactly; checked when
/// the map is built). Structured values belong in an
/// [`Arena`](crate::Arena); store the handle here.
pub struct TxMap<V = u64> {
    slots: Slots<V>,
    len: TxVar<u64>,
    /// Current generation (wraps at 2^32; a table would need four billion
    /// clears between touches of one slot to confuse it).
    gen: TxVar<u64>,
    mask: u64,
}

impl<V> fmt::Debug for TxMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxMap")
            .field("capacity", &self.slots.len)
            .field("len", &self.len)
            .field("gen", &self.gen)
            .finish()
    }
}

impl<V: Copy + Default> TxMap<V> {
    /// Bytes one entry occupies (and stages, when written).
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<V>>();

    /// Creates a map with capacity for `capacity` entries (rounded up to a
    /// power of two, minimum 8). Probing degrades near full occupancy, so
    /// size at roughly 2× the expected element count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds `2^32` slots.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        // A wider slot would compile and then abort every elided write for
        // capacity (`Tx::write` cannot stage it).
        const {
            assert!(
                std::mem::size_of::<Slot<V>>() <= INLINE_VALUE_BYTES
                    && std::mem::align_of::<Slot<V>>() <= INLINE_VALUE_ALIGN,
                "TxMap value too wide to stage inline"
            );
        }
        let n = capacity.next_power_of_two().max(8);
        assert!(n <= (1 << 32), "TxMap capacity too large");
        TxMap {
            slots: Slots::new(n),
            len: TxVar::new(0),
            gen: TxVar::new(0),
            mask: (n - 1) as u64,
        }
    }

    /// Number of slots (the fixed capacity).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len
    }

    /// Number of entries.
    pub fn len<'a>(&'a self, tx: &mut Tx<'a>) -> TxResult<u64> {
        tx.read(&self.len)
    }

    /// Whether the map is empty.
    pub fn is_empty<'a>(&'a self, tx: &mut Tx<'a>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Looks up `key`.
    pub fn get<'a>(&'a self, tx: &mut Tx<'a>, key: u64) -> TxResult<Option<V>> {
        let gen = tx.read(&self.gen)? as u32;
        let mut idx = mix64(key) & self.mask;
        let mut probed = 0u64;
        loop {
            let slot = tx.read(&self.slots[idx as usize])?;
            if slot.state == EMPTY || slot.gen != gen {
                return Ok(None);
            }
            if slot.state == FULL && slot.key == key {
                return Ok(Some(slot.value));
            }
            idx = (idx + 1) & self.mask;
            probed += 1;
            if probed > self.mask {
                // The table contains no empty slot and the key is absent.
                return Ok(None);
            }
        }
    }

    /// Prefetches `key`'s home slot and the stripe word of `rt` that
    /// guards it, ahead of a section that looks `key` up. A hint: nothing
    /// is read transactionally and no result changes.
    #[inline]
    pub fn prefetch(&self, rt: &HtmRuntime, key: u64) {
        let slot = &self.slots[(mix64(key) & self.mask) as usize];
        rt.prefetch_line(std::ptr::from_ref(slot).cast());
    }

    /// Whether `key` is present.
    pub fn contains<'a>(&'a self, tx: &mut Tx<'a>, key: u64) -> TxResult<bool> {
        Ok(self.get(tx, key)?.is_some())
    }

    /// Inserts or updates `key`, returning the previous value. Returns
    /// `Err`-free `Ok(None)` for fresh inserts; if the table is full the
    /// insert is a no-op and `inserted` reports `false` via the returned
    /// [`InsertOutcome`].
    pub fn insert<'a>(&'a self, tx: &mut Tx<'a>, key: u64, value: V) -> TxResult<InsertOutcome<V>> {
        self.upsert(tx, key, |_| value)
    }

    /// [`TxMap::insert`] of `f(previous)`: a read-modify-write of one entry
    /// in the one probe an insert makes anyway, where a `get` followed by an
    /// `insert` makes two.
    pub fn upsert<'a>(
        &'a self,
        tx: &mut Tx<'a>,
        key: u64,
        f: impl FnOnce(Option<V>) -> V,
    ) -> TxResult<InsertOutcome<V>> {
        let gen = tx.read(&self.gen)? as u32;
        let mut idx = mix64(key) & self.mask;
        let mut first_tombstone: Option<u64> = None;
        let mut probed = 0u64;
        // Where a key not in the table goes, once the probe has shown it
        // absent: the first tombstone passed, else the empty slot found.
        let target = loop {
            let var = &self.slots[idx as usize];
            let slot = tx.read(var)?;
            let stale = slot.state != EMPTY && slot.gen != gen;
            if slot.state == FULL && !stale && slot.key == key {
                let value = f(Some(slot.value));
                tx.write(var, Slot { value, ..slot })?;
                return Ok(InsertOutcome {
                    inserted: true,
                    previous: Some(slot.value),
                });
            }
            if slot.state == EMPTY || stale {
                break first_tombstone.unwrap_or(idx);
            }
            if slot.state == TOMBSTONE && first_tombstone.is_none() {
                first_tombstone = Some(idx);
            }
            idx = (idx + 1) & self.mask;
            probed += 1;
            if probed > self.mask {
                // Table full of live FULL/TOMBSTONE slots and key absent.
                match first_tombstone {
                    Some(t) => break t,
                    None => {
                        return Ok(InsertOutcome {
                            inserted: false,
                            previous: None,
                        })
                    }
                }
            }
        };
        let slot = Slot {
            state: FULL,
            gen,
            key,
            value: f(None),
        };
        tx.write(&self.slots[target as usize], slot)?;
        let len = tx.read(&self.len)?;
        tx.write(&self.len, len + 1)?;
        Ok(InsertOutcome {
            inserted: true,
            previous: None,
        })
    }

    /// Removes `key`, returning the previous value if present.
    pub fn remove<'a>(&'a self, tx: &mut Tx<'a>, key: u64) -> TxResult<Option<V>> {
        let gen = tx.read(&self.gen)? as u32;
        let mut idx = mix64(key) & self.mask;
        let mut probed = 0u64;
        loop {
            let var = &self.slots[idx as usize];
            let slot = tx.read(var)?;
            if slot.state == EMPTY || slot.gen != gen {
                return Ok(None);
            }
            if slot.state == FULL && slot.key == key {
                tx.write(
                    var,
                    Slot {
                        state: TOMBSTONE,
                        gen,
                        key: 0,
                        value: V::default(),
                    },
                )?;
                let len = tx.read(&self.len)?;
                tx.write(&self.len, len - 1)?;
                return Ok(Some(slot.value));
            }
            idx = (idx + 1) & self.mask;
            probed += 1;
            if probed > self.mask {
                return Ok(None);
            }
        }
    }

    /// Removes every entry in O(1) by advancing the generation — the
    /// transactional equivalent of Go's `m = map[K]V{}` pointer swap,
    /// which is how go-cache's `Flush` and the set's `Clear` behave. The
    /// critical section stays tiny (two words), so concurrent `Clear`s
    /// conflict *genuinely but cheaply*, matching the paper's Figure 8
    /// description of the benchmark.
    pub fn clear<'a>(&'a self, tx: &mut Tx<'a>) -> TxResult<()> {
        let gen = tx.read(&self.gen)?;
        tx.write(&self.gen, gen + 1)?;
        tx.write(&self.len, 0)?;
        Ok(())
    }

    /// Calls `f` for every `(key, value)` pair.
    pub fn for_each<'a>(&'a self, tx: &mut Tx<'a>, mut f: impl FnMut(u64, V)) -> TxResult<()> {
        let gen = tx.read(&self.gen)? as u32;
        for var in self.slots.iter() {
            let slot = tx.read(var)?;
            if slot.state == FULL && slot.gen == gen {
                f(slot.key, slot.value);
            }
        }
        Ok(())
    }
}

/// Result of a [`TxMap::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome<V = u64> {
    /// Whether the entry was stored (`false` only when the table is full).
    pub inserted: bool,
    /// The value previously stored under the key, if any.
    pub previous: Option<V>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocc_htm::{HtmConfig, HtmRuntime};

    fn rt() -> HtmRuntime {
        HtmRuntime::new(HtmConfig::coffee_lake())
    }

    fn commit<'e, R>(rt: &'e HtmRuntime, f: impl FnOnce(&mut Tx<'e>) -> TxResult<R>) -> R {
        let mut tx = Tx::fast(rt);
        let r = f(&mut tx).expect("single-threaded tx must not abort");
        tx.commit().expect("single-threaded commit must succeed");
        r
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let rt = rt();
        let map = TxMap::with_capacity(64);
        commit(&rt, |tx| {
            assert_eq!(map.get(tx, 7)?, None);
            assert!(map.insert(tx, 7, 70)?.inserted);
            assert_eq!(map.get(tx, 7)?, Some(70));
            assert_eq!(map.len(tx)?, 1);
            Ok(())
        });
        commit(&rt, |tx| {
            assert_eq!(map.remove(tx, 7)?, Some(70));
            assert_eq!(map.get(tx, 7)?, None);
            assert_eq!(map.len(tx)?, 0);
            Ok(())
        });
    }

    #[test]
    fn update_returns_previous() {
        let rt = rt();
        let map = TxMap::with_capacity(16);
        commit(&rt, |tx| {
            map.insert(tx, 1, 10)?;
            let out = map.insert(tx, 1, 11)?;
            assert_eq!(out.previous, Some(10));
            assert_eq!(map.len(tx)?, 1, "update must not grow the map");
            Ok(())
        });
    }

    #[test]
    fn upsert_is_a_read_modify_write_in_one_probe() {
        let rt = rt();
        let map = TxMap::with_capacity(16);
        let mut tx = Tx::fast(&rt);
        let out = map
            .upsert(&mut tx, 1, |prev| prev.unwrap_or(5) + 1)
            .unwrap();
        assert_eq!((out.inserted, out.previous), (true, None));
        // gen, the home slot and `len`: what an insert of a new key reads.
        assert_eq!(tx.read_set_len(), 3);
        let out = map
            .upsert(&mut tx, 1, |prev| prev.unwrap_or(5) + 1)
            .unwrap();
        assert_eq!(out.previous, Some(6));
        assert_eq!(map.get(&mut tx, 1).unwrap(), Some(7));
        assert_eq!(map.len(&mut tx).unwrap(), 1);
        tx.commit().unwrap();
    }

    #[test]
    fn a_two_word_slot_never_straddles_a_line() {
        let map = TxMap::<[u64; 2]>::with_capacity(64);
        assert_eq!(TxMap::<[u64; 2]>::SLOT_BYTES, 32);
        assert_eq!(TxMap::<u64>::SLOT_BYTES, 24);
        assert_eq!(map.slots[0].addr() % CACHE_LINE, 0);
        for var in map.slots.iter() {
            let (first, last) = (var.addr(), var.addr() + TxMap::<[u64; 2]>::SLOT_BYTES - 1);
            assert_eq!(first / CACHE_LINE, last / CACHE_LINE);
        }
    }

    #[test]
    fn tombstones_are_reused() {
        let rt = rt();
        let map = TxMap::with_capacity(8);
        commit(&rt, |tx| {
            for k in 0..6 {
                map.insert(tx, k, k)?;
            }
            map.remove(tx, 3)?;
            let out = map.insert(tx, 100, 100)?;
            assert!(out.inserted);
            assert_eq!(map.get(tx, 100)?, Some(100));
            // All other keys still reachable across the tombstone.
            for k in [0, 1, 2, 4, 5] {
                assert_eq!(map.get(tx, k)?, Some(k));
            }
            Ok(())
        });
    }

    #[test]
    fn full_map_rejects_new_keys() {
        let rt = rt();
        let map = TxMap::with_capacity(8);
        commit(&rt, |tx| {
            for k in 0..8 {
                assert!(map.insert(tx, k, k)?.inserted);
            }
            let out = map.insert(tx, 99, 99)?;
            assert!(!out.inserted, "full table must reject");
            // Existing keys still updatable.
            assert!(map.insert(tx, 3, 33)?.inserted);
            assert_eq!(map.get(tx, 3)?, Some(33));
            Ok(())
        });
    }

    #[test]
    fn clear_empties_map() {
        let rt = rt();
        let map = TxMap::with_capacity(32);
        commit(&rt, |tx| {
            for k in 0..20 {
                map.insert(tx, k, k * 2)?;
            }
            map.clear(tx)?;
            assert_eq!(map.len(tx)?, 0);
            assert_eq!(map.get(tx, 5)?, None);
            map.insert(tx, 5, 50)?;
            assert_eq!(map.get(tx, 5)?, Some(50));
            Ok(())
        });
    }

    #[test]
    fn for_each_visits_all() {
        let rt = rt();
        let map = TxMap::with_capacity(64);
        commit(&rt, |tx| {
            for k in 0..10 {
                map.insert(tx, k, k + 100)?;
            }
            let mut seen = Vec::new();
            map.for_each(tx, |k, v| seen.push((k, v)))?;
            seen.sort_unstable();
            assert_eq!(seen, (0..10).map(|k| (k, k + 100)).collect::<Vec<_>>());
            Ok(())
        });
    }

    #[test]
    fn aborted_insert_rolls_back() {
        let rt = rt();
        let map = TxMap::with_capacity(16);
        let mut tx = Tx::fast(&rt);
        map.insert(&mut tx, 9, 90).unwrap();
        tx.rollback();
        commit(&rt, |tx| {
            assert_eq!(map.get(tx, 9)?, None);
            assert_eq!(map.len(tx)?, 0);
            Ok(())
        });
    }
}
