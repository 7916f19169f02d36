//! `StatsSnapshot::{starts, commits}` are derived from outcome counters:
//! an attempt is counted once, when it commits, aborts, or is dropped.
//! That is exact only if every way a `Tx::fast` can end bumps exactly one
//! of them — checked here at quiescence against the harness's own tally,
//! and throughout the run by a sampler (attempts in flight are simply not
//! counted yet, so every snapshot must still be internally consistent).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use gocc_htm::{HtmConfig, HtmRuntime, StatsSnapshot, Tx, TxVar};
use gocc_telemetry::SplitMix64;

const THREADS: usize = 4;
const ATTEMPTS: u64 = 3_000;

/// What one worker did, by its own count.
#[derive(Default)]
struct Tally {
    fast_calls: u64,
    read_only_commits: u64,
    writing_commits: u64,
    hot_increments: u64,
    explicit_aborts: u64,
    /// Undoomed `rollback()`s and plain drops.
    discarded: u64,
}

fn worker<'a>(rt: &'a HtmRuntime, hot: &'a TxVar<u64>, own: &'a TxVar<u64>, seed: u64) -> Tally {
    let mut t = Tally::default();
    let mut rng = SplitMix64::new(seed);
    for i in 0..ATTEMPTS {
        let mut tx = Tx::fast(rt);
        t.fast_calls += 1;
        match rng.below(6) {
            0 => {
                if tx.read(hot).and_then(|_| tx.commit()).is_ok() {
                    t.read_only_commits += 1;
                }
            }
            1 => {
                if tx.write(own, i).and_then(|()| tx.commit()).is_ok() {
                    t.writing_commits += 1;
                }
            }
            2 => {
                // A real conflict window: another thread that commits an
                // increment while this one is off the CPU invalidates the
                // read, and this commit aborts.
                let bumped = tx.read(hot).and_then(|cur| {
                    std::thread::yield_now();
                    tx.write(hot, cur + 1)
                });
                if bumped.and_then(|()| tx.commit()).is_ok() {
                    t.writing_commits += 1;
                    t.hot_increments += 1;
                }
            }
            3 => {
                let abort = tx.explicit_abort(3);
                assert_eq!(tx.commit().unwrap_err().cause, abort.cause);
                t.explicit_aborts += 1;
            }
            4 => {
                tx.write(own, u64::MAX).unwrap();
                tx.rollback();
                t.discarded += 1;
            }
            _ => {
                drop(tx);
                t.discarded += 1;
            }
        }
    }
    t
}

fn fields(s: &StatsSnapshot) -> [u64; 14] {
    [
        s.starts,
        s.commits,
        s.read_only_commits,
        s.aborts_explicit,
        s.aborts_retry,
        s.aborts_conflict,
        s.aborts_capacity,
        s.aborts_debug,
        s.aborts_nested,
        s.aborts_unfriendly,
        s.direct_sections,
        s.ctx_fresh,
        s.ctx_reused,
        s.inline_overflows,
    ]
}

#[test]
fn derived_counts_are_exact_at_quiescence_and_consistent_in_flight() {
    let rt = HtmRuntime::new(HtmConfig::coffee_lake());
    let hot = TxVar::new(0u64);
    let owns: Vec<Box<TxVar<u64>>> = (0..THREADS).map(|_| Box::new(TxVar::new(0))).collect();
    // Workers allocate their arena in one warm-up attempt before the
    // sampler starts: `ctx_fresh` is counted when an attempt begins and
    // `starts` when it ends, so `ctx_reused` may dip while a fresh-arena
    // attempt is in flight and is monotone only once arenas are warm.
    let warm = Barrier::new(THREADS + 1);
    let done = AtomicBool::new(false);

    let (tallies, samples) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            warm.wait();
            let mut prev = rt.stats().snapshot();
            let mut samples = 0u64;
            while !done.load(Ordering::Acquire) {
                let snap = rt.stats().snapshot();
                assert!(
                    snap.commits + snap.total_aborts() <= snap.starts,
                    "{snap:?}"
                );
                assert!(snap.read_only_commits <= snap.commits, "{snap:?}");
                for (now, before) in fields(&snap).iter().zip(fields(&prev)) {
                    assert!(*now >= before, "not monotone: {prev:?} then {snap:?}");
                }
                prev = snap;
                samples += 1;
                std::thread::yield_now();
            }
            samples
        });
        let workers: Vec<_> = owns
            .iter()
            .enumerate()
            .map(|(i, own)| {
                let (rt, hot, warm) = (&rt, &hot, &warm);
                s.spawn(move || {
                    Tx::fast(rt).commit().unwrap();
                    warm.wait();
                    let mut t = worker(rt, hot, own, 0xD371_7ED5 + i as u64);
                    t.fast_calls += 1;
                    t.read_only_commits += 1;
                    t
                })
            })
            .collect();
        let tallies: Vec<Tally> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        done.store(true, Ordering::Release);
        (tallies, sampler.join().unwrap())
    });
    assert!(samples > 0, "the sampler never ran");

    let sum = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>();
    let fast_calls = sum(|t| t.fast_calls);
    let commits = sum(|t| t.read_only_commits) + sum(|t| t.writing_commits);
    let snap = rt.stats().snapshot();
    assert_eq!(fast_calls, THREADS as u64 * (ATTEMPTS + 1));
    assert_eq!(snap.starts, fast_calls, "{snap:?}");
    assert_eq!(snap.commits, commits, "{snap:?}");
    assert_eq!(snap.read_only_commits, sum(|t| t.read_only_commits));
    assert_eq!(snap.aborts_explicit, sum(|t| t.explicit_aborts));
    assert_eq!(
        snap.total_aborts(),
        fast_calls - commits - sum(|t| t.discarded),
        "{snap:?}"
    );
    // Nothing but conflicts and the explicit aborts can have fired here.
    assert_eq!(
        snap.total_aborts(),
        snap.aborts_conflict + snap.aborts_explicit,
        "{snap:?}"
    );
    assert!(snap.aborts_conflict > 0, "no real conflict: {snap:?}");
    assert_eq!(snap.ctx_fresh, THREADS as u64);
    assert_eq!(snap.ctx_reused, fast_calls - THREADS as u64);
    assert_eq!(snap.direct_sections, 0);

    let mut check = Tx::fast(&rt);
    assert_eq!(check.read(&hot).unwrap(), sum(|t| t.hot_increments));
    check.commit().unwrap();
}
