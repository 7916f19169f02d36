//! A read-mostly cache under both concurrency-control regimes.
//!
//! Run with: `cargo run --release --example concurrent_cache`
//!
//! The go-cache-style workload of Figure 7: worker threads read a shared
//! RWMutex-protected map with occasional writes, once with the original
//! pessimistic locks and once through GOCC's elision. Besides throughput,
//! the example prints the runtime statistics that explain *why* elision
//! helps: read sections commit concurrently instead of serializing on the
//! reader-count RMWs.

use std::time::{Duration, Instant};

use gocc_repro::optilock::GoccRuntime;
use gocc_repro::workloads::gocache::RwMap;
use gocc_repro::workloads::{Engine, Mode};

const KEYS: usize = 256;
const THREADS: usize = 4;
const WINDOW: Duration = Duration::from_millis(400);

fn run(mode: Mode) -> (f64, String) {
    let rt = GoccRuntime::new_default();
    let map = RwMap::new(rt.htm(), KEYS);
    let engine = Engine::new(&rt, mode);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let ops = std::sync::atomic::AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (engine, map, stop, ops) = (&engine, &map, &stop, &ops);
            s.spawn(move || {
                let mut local = 0u64;
                let mut i = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let k = (t * 31 + i) % KEYS;
                    if i % 100 == 99 {
                        map.set(engine, RwMap::key(k), i as u64);
                    } else {
                        let _ = map.get(engine, RwMap::key(k));
                    }
                    i += 1;
                    local += 1;
                    if t == 0 && local.is_multiple_of(128) && start.elapsed() >= WINDOW {
                        stop.store(true, std::sync::atomic::Ordering::Relaxed);
                    }
                }
                ops.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    let total = ops.load(std::sync::atomic::Ordering::Relaxed).max(1);
    let ns_per_op = start.elapsed().as_nanos() as f64 / total as f64;
    let s = rt.stats().snapshot();
    let detail = format!(
        "fast={} slow={} (fast ratio {:.1}%)",
        s.fast_commits,
        s.slow_sections,
        s.fast_ratio() * 100.0
    );
    (ns_per_op, detail)
}

fn main() {
    println!("read-mostly cache, {THREADS} workers, 99% reads / 1% writes\n");
    let (lock_ns, _) = run(Mode::Lock);
    println!("pessimistic locks : {lock_ns:>9.1} ns/op");
    let (gocc_ns, detail) = run(Mode::Gocc);
    println!("GOCC elision      : {gocc_ns:>9.1} ns/op   [{detail}]");
    println!(
        "\nspeedup: {:+.1}%  (positive = GOCC wins)",
        (lock_ns / gocc_ns - 1.0) * 100.0
    );
    println!(
        "\nNote: this container has {} CPU(s); on real multicore hardware the gap",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    println!("widens with core count as the baseline's reader-count RMWs serialize.");
}
