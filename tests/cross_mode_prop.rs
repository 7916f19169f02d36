//! Property test: for random operation sequences, the GOCC-transformed
//! program and the pessimistic program are observationally equivalent —
//! the paper's §4.1 guarantee as an executable property. Sequences are
//! drawn from a seeded [`SplitMix64`] stream, so every run covers the same
//! deterministic corpus with no external crates.

use gocc_repro::optilock::GoccRuntime;
use gocc_repro::telemetry::SplitMix64;
use std::collections::HashMap;

use gocc_repro::workloads::gocache::{BatchOp, BatchReply, Cache, RwMap};
use gocc_repro::workloads::set::Set;
use gocc_repro::workloads::{Engine, Mode};

#[derive(Clone, Debug)]
enum CacheOp {
    Set(u8, u16, u8),
    Get(u8),
    Delete(u8),
    Tick,
}

fn random_cache_op(rng: &mut SplitMix64) -> CacheOp {
    // Weights mirror the old proptest strategy (4:4:1:1).
    match rng.below(10) {
        0..=3 => CacheOp::Set(
            rng.next_u64() as u8,
            rng.next_u64() as u16,
            rng.below(4) as u8,
        ),
        4..=7 => CacheOp::Get(rng.next_u64() as u8),
        8 => CacheOp::Delete(rng.next_u64() as u8),
        _ => CacheOp::Tick,
    }
}

fn run_cache(mode: Mode, ops: &[CacheOp]) -> Vec<Option<u64>> {
    let rt = GoccRuntime::new_default();
    let cache = Cache::new(rt.htm(), 4);
    let engine = Engine::new(&rt, mode);
    let mut observations = Vec::new();
    for op in ops {
        match op {
            CacheOp::Set(k, v, ttl) => {
                cache.set(
                    &engine,
                    RwMap::key(*k as usize),
                    u64::from(*v),
                    u64::from(*ttl),
                );
            }
            CacheOp::Get(k) => observations.push(cache.get(&engine, RwMap::key(*k as usize))),
            CacheOp::Delete(k) => {
                cache.delete(&engine, RwMap::key(*k as usize));
            }
            CacheOp::Tick => cache.tick(&engine),
        }
    }
    observations.push(Some(cache.item_count(&engine)));
    observations
}

#[derive(Clone, Debug)]
enum SetOp {
    Add(u16),
    Remove(u16),
    Exists(u16),
    Len,
    Flatten,
    Clear,
}

fn random_set_op(rng: &mut SplitMix64) -> SetOp {
    // Weights mirror the old proptest strategy (5:2:3:1:1:1).
    match rng.below(13) {
        0..=4 => SetOp::Add(rng.below(512) as u16),
        5..=6 => SetOp::Remove(rng.below(512) as u16),
        7..=9 => SetOp::Exists(rng.below(512) as u16),
        10 => SetOp::Len,
        11 => SetOp::Flatten,
        _ => SetOp::Clear,
    }
}

fn run_set(mode: Mode, ops: &[SetOp]) -> Vec<u64> {
    let rt = GoccRuntime::new_default();
    let set = Set::new(rt.htm(), 0);
    let engine = Engine::new(&rt, mode);
    let mut observations = Vec::new();
    for op in ops {
        match op {
            SetOp::Add(v) => observations.push(u64::from(set.add(&engine, u64::from(*v)))),
            SetOp::Remove(v) => observations.push(u64::from(set.remove(&engine, u64::from(*v)))),
            SetOp::Exists(v) => observations.push(u64::from(set.exists(&engine, u64::from(*v)))),
            SetOp::Len => observations.push(set.len(&engine)),
            SetOp::Flatten => {
                let mut flat = set.flatten(&engine);
                flat.sort_unstable();
                observations.push(flat.len() as u64);
                observations.extend(flat);
            }
            SetOp::Clear => set.clear(&engine),
        }
    }
    observations
}

#[test]
fn cache_modes_agree() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0xCAC4E + case);
        let ops: Vec<CacheOp> = (0..rng.range(1, 60))
            .map(|_| random_cache_op(&mut rng))
            .collect();
        assert_eq!(
            run_cache(Mode::Lock, &ops),
            run_cache(Mode::Gocc, &ops),
            "case {case}"
        );
    }
}

#[test]
fn set_modes_agree() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0x5E7 + case);
        let ops: Vec<SetOp> = (0..rng.range(1, 60))
            .map(|_| random_set_op(&mut rng))
            .collect();
        assert_eq!(
            run_set(Mode::Lock, &ops),
            run_set(Mode::Gocc, &ops),
            "case {case}"
        );
    }
}

/// A verb stream with expirations in it: ttls of 0–3 ticks over 8 keys,
/// so entries expire, get overwritten with and without a ttl, deleted and
/// re-created, and incremented while live and while expired.
fn random_ttl_stream(rng: &mut SplitMix64) -> Vec<Option<BatchOp>> {
    (0..rng.range(1, 120))
        .map(|_| {
            let key = rng.below(8);
            match rng.below(12) {
                0..=3 => Some(BatchOp::Set {
                    key,
                    value: rng.below(1000),
                    ttl: rng.below(4),
                }),
                4..=6 => Some(BatchOp::Get { key }),
                7..=8 => Some(BatchOp::Incr {
                    key,
                    delta: rng.below(5),
                }),
                9 => Some(BatchOp::Del { key }),
                _ => None, // advance the clock
            }
        })
        .collect()
}

type Triples = Vec<(u64, u64, u64)>;

/// Runs the stream through `Cache`, one section per verb or one per run of
/// verbs between two ticks cut into groups of up to `group`.
fn run_ttl_stream(
    mode: Mode,
    stream: &[Option<BatchOp>],
    group: usize,
) -> (Vec<BatchReply>, Triples) {
    let rt = GoccRuntime::new_default();
    let cache = Cache::with_capacity(64);
    let engine = Engine::new(&rt, mode);
    let mut replies = Vec::new();
    for run in stream.split(Option::is_none) {
        let ops: Vec<BatchOp> = run.iter().flatten().copied().collect();
        if group == 0 {
            for op in ops {
                replies.push(match op {
                    BatchOp::Get { key } => {
                        let hit = cache.get(&engine, key);
                        BatchReply::Value {
                            found: hit.is_some(),
                            value: hit.unwrap_or(0),
                        }
                    }
                    BatchOp::Set { key, value, ttl } => {
                        let (seq, exp) = cache.set_seq(&engine, key, value, ttl);
                        BatchReply::Stored { seq, exp }
                    }
                    BatchOp::Del { key } => {
                        let (existed, seq) = cache.delete_seq(&engine, key);
                        BatchReply::Deleted { existed, seq }
                    }
                    BatchOp::Incr { key, delta } => {
                        let (value, seq) = cache.incr_seq(&engine, key, delta);
                        BatchReply::Counter { value, seq }
                    }
                });
            }
        } else {
            for chunk in ops.chunks(group) {
                replies.extend(cache.execute_batch(&engine, chunk));
            }
        }
        cache.tick(&engine);
    }
    let mut entries = cache.snapshot(&engine).0;
    entries.sort_unstable();
    (replies, entries)
}

/// What the verbs mean, independent of `Cache`: one item per key, value
/// and absolute expiration together.
fn model_ttl_stream(stream: &[Option<BatchOp>]) -> (Vec<BatchReply>, Triples) {
    let mut items: HashMap<u64, (u64, u64)> = HashMap::new();
    let (mut now, mut seq) = (1u64, 0u64);
    let mut replies = Vec::new();
    for step in stream.split(Option::is_none) {
        for op in step.iter().flatten() {
            replies.push(match *op {
                BatchOp::Get { key } => match items.get(&key) {
                    Some(&(value, exp)) if exp == 0 || exp >= now => {
                        BatchReply::Value { found: true, value }
                    }
                    _ => BatchReply::Value {
                        found: false,
                        value: 0,
                    },
                },
                BatchOp::Set { key, value, ttl } => {
                    let exp = if ttl == 0 { 0 } else { now + ttl };
                    items.insert(key, (value, exp));
                    seq += 1;
                    BatchReply::Stored { seq, exp }
                }
                BatchOp::Del { key } => {
                    seq += 1;
                    BatchReply::Deleted {
                        existed: items.remove(&key).is_some(),
                        seq,
                    }
                }
                BatchOp::Incr { key, delta } => {
                    let item = items.entry(key).or_insert((0, 0));
                    item.0 = item.0.wrapping_add(delta);
                    seq += 1;
                    BatchReply::Counter { value: item.0, seq }
                }
            });
        }
        now += 1;
    }
    let mut entries: Triples = items.into_iter().map(|(k, (v, e))| (k, v, e)).collect();
    entries.sort_unstable();
    (replies, entries)
}

#[test]
fn batched_and_sequential_cache_agree_with_the_item_model_under_ttls() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0x77_1CAC4E + case);
        let stream = random_ttl_stream(&mut rng);
        let want = model_ttl_stream(&stream);
        for mode in [Mode::Lock, Mode::Gocc] {
            for group in [0, 1, 5, 256] {
                assert_eq!(
                    run_ttl_stream(mode, &stream, group),
                    want,
                    "case {case}, {mode:?}, groups of {group}"
                );
            }
        }
    }
}
