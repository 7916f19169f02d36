//! Quickstart: elide a mutex around shared state.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Four threads hammer a shared map and counter through `optiLib` lock
//! elision. Disjoint operations commit concurrently on the HTM fast path;
//! conflicting ones retry or fall back to the real mutex — and the final
//! state is exactly what the pessimistic program would produce.

use gocc_repro::htm::Tx;
use gocc_repro::optilock::{call_site, critical_mutex, ElidableMutex, GoccRuntime};
use gocc_repro::txds::TxMap;

fn main() {
    // The default runtime models 8 hardware threads (GOMAXPROCS); built
    // with `procs: 1` it would bypass HTM entirely (§5.4.2 of the paper).
    let rt = GoccRuntime::new_default();
    let mutex = ElidableMutex::new();
    let map = TxMap::with_capacity(4096);

    const THREADS: u64 = 4;
    const OPS: u64 = 10_000;

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (rt, mutex, map) = (&rt, &mutex, &map);
            s.spawn(move || {
                let site = call_site!();
                for i in 0..OPS {
                    // The critical section: read-modify-write one key.
                    critical_mutex(rt, site, mutex, |tx| {
                        let key = t * OPS + i;
                        let prev = map.get(tx, key % 1024)?.unwrap_or(0);
                        map.insert(tx, key % 1024, prev + 1)?;
                        Ok(())
                    });
                }
            });
        }
    });

    // Verify: every operation landed exactly once.
    let mut tx = Tx::direct(rt.htm());
    let mut total = 0;
    let mut count = 0;
    map.for_each(&mut tx, |_, v| {
        total += v;
        count += 1;
    })
    .unwrap();
    tx.commit().unwrap();

    let opti = rt.stats().snapshot();
    let htm = rt.htm().stats().snapshot();
    println!(
        "final keys: {count}, total increments: {total} (expected {})",
        THREADS * OPS
    );
    assert_eq!(total, THREADS * OPS);
    println!(
        "critical sections: {} on the HTM fast path, {} on the mutex",
        opti.fast_commits, opti.slow_sections
    );
    println!(
        "transactions: {} started, {} committed, {} aborted ({} conflicts)",
        htm.starts,
        htm.commits,
        htm.total_aborts(),
        htm.aborts_conflict
    );
    println!("fast-path ratio: {:.1}%", opti.fast_ratio() * 100.0);
}
