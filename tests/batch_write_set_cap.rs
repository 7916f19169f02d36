//! The batch site at the write-set cap: what one shard-group costs the
//! transaction that runs it, in lines written, and what happens past the
//! modeled L1D. A file of its own so that its two large tables are built
//! while nothing else runs: `tests/batch_server.rs`'s servers trip their
//! brownout controllers when they lose the CPU for 25 ms.

use gocc_repro::optilock::{GoccConfig, GoccRuntime};
use gocc_repro::workloads::{Engine, Mode};
use gocc_server::{BatchScratch, ShardedStore};
use gocc_wire::Request;

/// The batch site at the write-set cap (`HtmConfig::coffee_lake()`: 512
/// lines, the L1D). A shard-group is the retry unit and runs through one
/// call site, so its write set is the sum of its requests': one slot line
/// per written key, plus the shard's `seq` and the map's `len`. A full
/// pump of 256 SETs fits and commits elided, first attempt; a group
/// writing more lines than the cap draws one `Capacity` abort — never
/// retried — and takes the lock. Responses are the lock-mode oracle's
/// either way.
#[test]
fn the_batch_site_at_the_write_set_cap() {
    let rt = GoccRuntime::new(GoccConfig::no_perceptron());
    let engine = Engine::new(&rt, Mode::Gocc);
    // One shard: every request lands in one group. The table is large
    // enough that the keys' slots share next to no line, the worst case
    // for the write set (with value and expiration in two maps it came to
    // 2 × 255 + 3 lines here, and the group took the lock).
    let store = ShardedStore::new(1, 1 << 17);
    let oracle_rt = GoccRuntime::new(GoccConfig::standard());
    let oracle_engine = Engine::new(&oracle_rt, Mode::Lock);
    let oracle = ShardedStore::new(1, 1 << 17);
    let (mut scratch, mut oracle_scratch) = (BatchScratch::default(), BatchScratch::default());

    let keys: Vec<String> = (0..1456).map(|i| format!("cap-{i}")).collect();
    let mut run_group = |keys: &[String]| {
        let reqs: Vec<Request<'_>> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| Request::Set {
                key: key.as_bytes(),
                value: i as u64,
                ttl: 0,
            })
            .collect();
        let routed: Vec<_> = reqs
            .iter()
            .map(|r| store.route(r).expect("SET routes"))
            .collect();
        let before = (rt.htm().stats().snapshot(), rt.stats().snapshot());
        let mut got = routed.clone();
        store.execute_batch(&engine, &mut got, &mut scratch, |_, _, _, run| run());
        for (one, got) in routed.iter().zip(&got) {
            let mut want = [*one];
            oracle.execute_batch(
                &oracle_engine,
                &mut want,
                &mut oracle_scratch,
                |_, _, _, run| run(),
            );
            assert_eq!(got.response(), want[0].response());
        }
        let after = (rt.htm().stats().snapshot(), rt.stats().snapshot());
        (
            after.0.commits - before.0.commits,
            after.0.aborts_capacity - before.0.aborts_capacity,
            after.0.total_aborts() - before.0.total_aborts(),
            after.0.inline_overflows - before.0.inline_overflows,
            after.1.slow_sections - before.1.slow_sections,
        )
    };

    // 256 frames — `MAX_FRAMES_PER_PUMP`, the largest group the server
    // forms: (commits, capacity aborts, aborts, overflows, slow sections).
    assert_eq!(run_group(&keys[..256]), (1, 0, 0, 0, 0));
    // 1 200 fresh keys write some 1 190 lines, far more than 512.
    let (commits, capacity, aborts, _, slow) = run_group(&keys[256..]);
    assert_eq!((commits, capacity, aborts, slow), (0, 1, 1, 1));
    assert_eq!(store.total_entries(&engine), keys.len() as u64);
}
