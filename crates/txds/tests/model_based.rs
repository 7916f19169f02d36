//! Property-based model tests: transactional containers against `std`
//! oracles under random operation sequences, with every operation running
//! in its own committed transaction (so roll-back/commit machinery is on
//! the hot path of the test, not bypassed). Operation streams come from a
//! seeded [`SplitMix64`] so the suite is deterministic with no external
//! crates.

use std::collections::HashMap;

use gocc_htm::{HtmConfig, HtmRuntime, Tx, TxResult};
use gocc_telemetry::SplitMix64;
use gocc_txds::{TxMap, TxVec};

fn commit<'e, R>(rt: &'e HtmRuntime, f: impl FnOnce(&mut Tx<'e>) -> TxResult<R>) -> R {
    let mut tx = Tx::fast(rt);
    let r = f(&mut tx).expect("single-threaded tx must not abort");
    tx.commit().expect("single-threaded commit must succeed");
    r
}

#[derive(Clone, Debug)]
enum MapOp {
    Insert(u64, u64),
    Upsert(u64, u64),
    Remove(u64),
    Get(u64),
    Len,
    Clear,
}

fn random_map_op(rng: &mut SplitMix64) -> MapOp {
    // Keys from a small domain so operations actually collide; weights
    // mirror the old proptest strategy (4:2:4:1:1), plus upserts.
    match rng.below(14) {
        0..=3 => MapOp::Insert(rng.below(32), rng.next_u64()),
        4..=5 => MapOp::Remove(rng.below(32)),
        6..=9 => MapOp::Get(rng.below(32)),
        10 => MapOp::Len,
        11 => MapOp::Clear,
        _ => MapOp::Upsert(rng.below(32), rng.next_u64()),
    }
}

/// A value the model tests can run `TxMap` over: built from the op's
/// word, and merged with it the way a read-modify-write would.
trait ModelValue: Copy + Default + Ord + std::fmt::Debug {
    fn from_word(w: u64) -> Self;
    fn merged(prev: Option<Self>, w: u64) -> Self;
}

impl ModelValue for u64 {
    fn from_word(w: u64) -> Self {
        w
    }
    fn merged(prev: Option<Self>, w: u64) -> Self {
        prev.unwrap_or(0).wrapping_add(w)
    }
}

/// Two words, as the go-cache model's item: the slot is then 32 B, the
/// widest a transaction stages inline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Pair {
    value: u64,
    stamp: u64,
}

impl ModelValue for Pair {
    fn from_word(w: u64) -> Self {
        Pair {
            value: w,
            stamp: !w.rotate_left(17),
        }
    }
    /// Adds to the first word and keeps the second, like an INCR.
    fn merged(prev: Option<Self>, w: u64) -> Self {
        let prev = prev.unwrap_or_default();
        Pair {
            value: prev.value.wrapping_add(w),
            ..prev
        }
    }
}

fn sorted_contents<V: ModelValue>(rt: &HtmRuntime, map: &TxMap<V>) -> Vec<(u64, V)> {
    let mut contents = Vec::new();
    commit(rt, |tx| map.for_each(tx, |k, v| contents.push((k, v))));
    contents.sort_unstable();
    contents
}

fn sorted_model<V: ModelValue>(model: HashMap<u64, V>) -> Vec<(u64, V)> {
    let mut expected: Vec<(u64, V)> = model.into_iter().collect();
    expected.sort_unstable();
    expected
}

fn check_txmap_against_hashmap<V: ModelValue>() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x7A9_4A9 + case);
        let ops: Vec<MapOp> = (0..rng.range(1, 200))
            .map(|_| random_map_op(&mut rng))
            .collect();

        let rt = HtmRuntime::new(HtmConfig::coffee_lake());
        let map = TxMap::<V>::with_capacity(128);
        let mut model: HashMap<u64, V> = HashMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, w) => {
                    let v = V::from_word(w);
                    let out = commit(&rt, |tx| map.insert(tx, k, v));
                    assert!(out.inserted);
                    assert_eq!(out.previous, model.insert(k, v));
                }
                MapOp::Upsert(k, w) => {
                    let out = commit(&rt, |tx| map.upsert(tx, k, |prev| V::merged(prev, w)));
                    assert!(out.inserted);
                    let prev = model.get(&k).copied();
                    assert_eq!(out.previous, prev);
                    model.insert(k, V::merged(prev, w));
                }
                MapOp::Remove(k) => {
                    let got = commit(&rt, |tx| map.remove(tx, k));
                    assert_eq!(got, model.remove(&k));
                }
                MapOp::Get(k) => {
                    let got = commit(&rt, |tx| map.get(tx, k));
                    assert_eq!(got, model.get(&k).copied());
                }
                MapOp::Len => {
                    let got = commit(&rt, |tx| map.len(tx));
                    assert_eq!(got as usize, model.len());
                }
                MapOp::Clear => {
                    commit(&rt, |tx| map.clear(tx));
                    model.clear();
                }
            }
        }
        // Final full-content check.
        assert_eq!(
            sorted_contents(&rt, &map),
            sorted_model(model),
            "case {case}"
        );
        // Every write above was staged inline: no value took the arena's
        // overflow path.
        assert_eq!(rt.stats().snapshot().inline_overflows, 0);
    }
}

#[test]
fn txmap_matches_hashmap_model() {
    check_txmap_against_hashmap::<u64>();
}

#[test]
fn txmap_matches_hashmap_model_with_two_word_values() {
    assert_eq!(TxMap::<Pair>::SLOT_BYTES, 32);
    check_txmap_against_hashmap::<Pair>();
}

#[test]
fn txvec_matches_vec_model() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x7E_C7E4 + case);
        // Some(v) = push, None = pop.
        let ops: Vec<Option<u64>> = (0..rng.range(1, 200))
            .map(|_| rng.flip().then(|| rng.next_u64()))
            .collect();

        let rt = HtmRuntime::new(HtmConfig::coffee_lake());
        let v = TxVec::with_capacity(64);
        let mut model: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Some(x) => {
                    let pushed = commit(&rt, |tx| v.push(tx, x));
                    if model.len() < 64 {
                        assert!(pushed);
                        model.push(x);
                    } else {
                        assert!(!pushed);
                    }
                }
                None => {
                    let got = commit(&rt, |tx| v.pop(tx));
                    assert_eq!(got, model.pop());
                }
            }
            let len = commit(&rt, |tx| v.len(tx));
            assert_eq!(len as usize, model.len());
        }
        let mut out = Vec::new();
        commit(&rt, |tx| v.read_into(tx, &mut out));
        assert_eq!(out, model, "case {case}");
    }
}

fn check_rollback_leaves_no_trace<V: ModelValue>() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x20_11BAC + case);
        let committed: Vec<(u64, u64)> = (0..rng.range(1, 50))
            .map(|_| (rng.below(16), rng.next_u64()))
            .collect();
        let aborted: Vec<(u64, u64)> = (0..rng.range(1, 50))
            .map(|_| (rng.below(16), rng.next_u64()))
            .collect();

        let rt = HtmRuntime::new(HtmConfig::coffee_lake());
        let map = TxMap::<V>::with_capacity(64);
        let mut model: HashMap<u64, V> = HashMap::new();
        for (k, w) in committed {
            commit(&rt, |tx| map.insert(tx, k, V::from_word(w)));
            model.insert(k, V::from_word(w));
        }
        // Perform a batch of inserts/removes and roll the whole thing back.
        let mut tx = Tx::fast(&rt);
        for (k, w) in &aborted {
            map.insert(&mut tx, *k, V::from_word(*w)).unwrap();
            map.upsert(&mut tx, k.wrapping_add(2) % 16, |prev| V::merged(prev, *w))
                .unwrap();
            map.remove(&mut tx, k.wrapping_add(1) % 16).unwrap();
        }
        tx.rollback();
        // The map must exactly match the pre-abort model.
        assert_eq!(
            sorted_contents(&rt, &map),
            sorted_model(model),
            "case {case}"
        );
    }
}

#[test]
fn rolled_back_ops_leave_no_trace() {
    check_rollback_leaves_no_trace::<u64>();
    check_rollback_leaves_no_trace::<Pair>();
}
