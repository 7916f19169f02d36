//! `ShardedStore` through its public surface: routing, the one data entry
//! point (`execute_batch`, where a lone request is a batch of one), the
//! session verbs, and shard spread.

use gocc_optilock::{GoccConfig, GoccRuntime};
use gocc_server::{BatchScratch, Mode, Routed, ShardedStore};
use gocc_txds::fnv1a;
use gocc_wal::Staged;
use gocc_wire::{Request, Response};
use gocc_workloads::Engine;

/// Sequential execution: a batch of one.
fn one(
    store: &ShardedStore,
    engine: &Engine<'_>,
    req: &Request<'_>,
) -> (Response<'static>, Option<Staged>) {
    let routed = [store.route(req).expect("data verbs route")];
    let mut scratch = BatchScratch::default();
    let out = &store.execute_batch(engine, &routed, None, &mut scratch, |_, _, run| run())[0];
    (out.resp.clone(), out.staged)
}

#[test]
fn verbs_roundtrip_through_the_store() {
    for mode in [Mode::Lock, Mode::Gocc] {
        let rt = GoccRuntime::new(GoccConfig::standard());
        let engine = Engine::new(&rt, mode);
        let store = ShardedStore::new(4, 256);
        let call = |req: &Request<'_>| one(&store, &engine, req).0;
        assert_eq!(
            call(&Request::Get { key: b"a" }),
            Response::Value {
                found: false,
                value: 0
            }
        );
        let set_a = Request::Set {
            key: b"a",
            value: 11,
            ttl: 0,
        };
        assert_eq!(call(&set_a), Response::Done);
        assert_eq!(
            call(&Request::Get { key: b"a" }),
            Response::Value {
                found: true,
                value: 11
            }
        );
        let incr = Request::Incr {
            key: b"ctr",
            delta: 5,
        };
        assert_eq!(call(&incr), Response::Counter { value: 5 });
        assert_eq!(store.total_entries(&engine), 2);
        assert_eq!(store.scan(&engine, 10).len(), 2);
        assert_eq!(
            call(&Request::Del { key: b"a" }),
            Response::Deleted { existed: true }
        );
        assert_eq!(
            call(&Request::Del { key: b"a" }),
            Response::Deleted { existed: false }
        );

        // Session verbs: SET_S answers the (shard, seq) it committed
        // at; GET_S answers the value at or past its floor and
        // `Behind` (with the shard's version) below it.
        let shard = store.shard_index_for(fnv1a(b"s"));
        let before = store.shard_at(shard).version(&engine);
        let set_s = Request::SetS {
            key: b"s",
            value: 9,
            ttl: 0,
        };
        assert_eq!(
            call(&set_s),
            Response::DoneAt {
                shard: shard as u32,
                version: before + 1
            }
        );
        let get_s = |min_version| Request::GetS {
            key: b"s",
            min_version,
        };
        assert_eq!(
            call(&get_s(before + 1)),
            Response::Value {
                found: true,
                value: 9
            }
        );
        assert_eq!(
            call(&get_s(before + 2)),
            Response::Behind {
                version: before + 1
            }
        );
    }
}

#[test]
fn one_batch_matches_batches_of_one_and_groups_by_shard() {
    for mode in [Mode::Lock, Mode::Gocc] {
        let rt = GoccRuntime::new(GoccConfig::standard());
        let engine = Engine::new(&rt, mode);
        let batched = ShardedStore::new(4, 256);
        let oracle = ShardedStore::new(4, 256);

        // Six verbs over 8 keys, so later requests hit earlier writes
        // inside the same shard-group; every sixth is a GET_S whose
        // floor alternates between satisfiable and far ahead.
        let keys: Vec<String> = (0..36).map(|i| format!("key-{}", i % 8)).collect();
        let reqs: Vec<Request<'_>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| match i % 6 {
                0 => Request::Set {
                    key: k.as_bytes(),
                    value: i as u64 * 10,
                    ttl: 0,
                },
                1 => Request::Get { key: k.as_bytes() },
                2 => Request::Incr {
                    key: k.as_bytes(),
                    delta: 3,
                },
                3 => Request::SetS {
                    key: k.as_bytes(),
                    value: i as u64,
                    ttl: 0,
                },
                4 => Request::GetS {
                    key: k.as_bytes(),
                    min_version: if i % 12 == 4 { 1 } else { 1 << 40 },
                },
                _ => Request::Del { key: k.as_bytes() },
            })
            .collect();

        let routed: Vec<Routed> = reqs
            .iter()
            .map(|r| batched.route(r).expect("data verbs route"))
            .collect();
        let mut groups = Vec::new();
        let mut scratch = BatchScratch::default();
        let outcomes =
            batched.execute_batch(&engine, &routed, None, &mut scratch, |shard, pos, run| {
                groups.push((shard, pos.len()));
                run();
            });

        // One group per shard touched, group sizes sum to the batch.
        assert_eq!(groups.iter().map(|&(_, n)| n).sum::<usize>(), reqs.len());
        let mut shards_seen: Vec<u32> = groups.iter().map(|&(s, _)| s).collect();
        shards_seen.sort_unstable();
        shards_seen.dedup();
        assert_eq!(shards_seen.len(), groups.len(), "one section per shard");
        assert!(groups.len() > 1, "8 keys must spread over several shards");

        // The oracle executes the same requests as batches of one;
        // responses and staged records must agree.
        let mut behind = 0;
        for (req, outcome) in reqs.iter().zip(outcomes) {
            let (want, want_staged) = one(&oracle, &engine, req);
            assert_eq!(outcome.resp, want, "{req:?} in {mode:?}");
            behind += usize::from(matches!(outcome.resp, Response::Behind { .. }));
            assert!(outcome.ticket.is_none(), "no WAL attached");
            match (outcome.staged, want_staged) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.shard, b.shard);
                    assert_eq!(a.seq, b.seq, "per-shard seq order preserved");
                    assert_eq!(a.kind as u8, b.kind as u8);
                    assert_eq!((a.key, a.value, a.exp), (b.key, b.value, b.exp));
                }
                (a, b) => panic!("staged mismatch: {a:?} vs {b:?}"),
            }
        }
        // The three far-ahead floors answer Behind; of the three floors
        // at 1, at least request 16 (key-0, written at 0) is satisfied
        // by a write earlier in its own shard-group.
        assert!((3..=5).contains(&behind), "{behind} Behind answers");
        assert_eq!(batched.scan(&engine, 64), oracle.scan(&engine, 64));
        assert_eq!(batched.versions(&engine), oracle.versions(&engine));

        // Control verbs and SCAN never route.
        assert!(batched.route(&Request::Scan { limit: 5 }).is_none());
        assert!(batched.route(&Request::Stats).is_none());
    }
}

#[test]
fn keys_spread_across_shards() {
    let rt = GoccRuntime::new(GoccConfig::standard());
    let engine = Engine::new(&rt, Mode::Lock);
    let store = ShardedStore::new(4, 1024);
    for i in 0..256u64 {
        let key = format!("key-{i}");
        let _ = one(
            &store,
            &engine,
            &Request::Set {
                key: key.as_bytes(),
                value: i,
                ttl: 0,
            },
        );
    }
    assert_eq!(store.total_entries(&engine), 256);
    let per_shard: Vec<u64> = (0..store.shards())
        .map(|s| store.shard_at(s).item_count(&engine))
        .collect();
    assert!(
        per_shard.iter().all(|&n| n > 16),
        "fnv1a+mix64 sharding badly skewed: {per_shard:?}"
    );
}
