//! The commit gate seen from outside: a slow-path owner of a lock never
//! observes half of an elided section's write-back, and the per-arena commit
//! slots behind that guarantee are recycled, not leaked.
//!
//! The blocking behaviour of one drain against one announced slot (one and
//! two subscriptions) is pinned next to the slot itself, in `gate.rs`'s unit
//! tests: holding a commit open between its announcement and its write-back
//! needs the crate-private slot.
//!
//! One `#[test]` for both phases: the registry is process-global, and the
//! churn phase counts its slots exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use gocc_htm::{
    commit_slot_usage, Elision, HtmConfig, HtmRuntime, LockWord, Padded, Tx, TxResult, TxVar,
};
use gocc_telemetry::SplitMix64;

// The fast path only reads the lock word: there is nothing else in it.
const _: () = assert!(std::mem::size_of::<LockWord>() == 8);

const TOTAL: u64 = 1 << 40;
const WRITERS: u64 = 2;
const COMMITS_PER_WRITER: u64 = 20_000;
/// Cells written between `x` and `y`: they stretch the write-back, so a
/// slow-path owner that did not wait would land inside it.
const FILLERS: usize = 32;

struct Account {
    /// Stands for the real mutex: it orders slow-path owners among
    /// themselves; elided sections never touch it.
    real: RwLock<()>,
    /// Every section elides both (nested locks), so a slow-path owner of
    /// either excludes it.
    outer: LockWord,
    inner: LockWord,
    x: Padded<TxVar<u64>>,
    y: Padded<TxVar<u64>>,
    fillers: Vec<Padded<TxVar<u64>>>,
}

/// One elided section: move `d` from `y` to `x`, so `x + y` stays `TOTAL`.
fn transfer<'a>(tx: &mut Tx<'a>, acct: &'a Account, d: u64) -> TxResult<()> {
    tx.subscribe_lock(&acct.outer, Elision::Write)?;
    tx.subscribe_lock(&acct.inner, Elision::Write)?;
    let x = tx.read(&acct.x.0)?;
    let y = tx.read(&acct.y.0)?;
    tx.write(&acct.x.0, x.wrapping_add(d))?;
    for f in &acct.fillers {
        tx.write(&f.0, d)?;
    }
    tx.write(&acct.y.0, y.wrapping_sub(d))
}

/// A slow-path owner's view: plain loads, as under the held lock.
fn direct_pair(rt: &HtmRuntime, acct: &Account) -> (u64, u64) {
    let mut tx = Tx::direct(rt);
    let x = tx.read(&acct.x.0).expect("direct reads cannot abort");
    let y = tx.read(&acct.y.0).expect("direct reads cannot abort");
    (x, y)
}

/// Asserted after the word is released, so a failure ends the writers'
/// retry loops instead of hanging them.
fn assert_not_torn((x, y): (u64, u64), who: &str) {
    assert_eq!(
        x.wrapping_add(y),
        TOTAL,
        "{who} saw a half-written section: x = {x}, y = {y}"
    );
}

/// An explicit join returns after the thread's TLS destructors (which drop
/// its arena and release its slot); the scope's implicit one may not.
fn join_all(threads: Vec<std::thread::ScopedJoinHandle<'_, ()>>) {
    for t in threads {
        t.join().expect("worker panicked");
    }
}

fn elided_writers_never_tear_a_slow_path_read() {
    let rt = HtmRuntime::new(HtmConfig::coffee_lake());
    let acct = Account {
        real: RwLock::new(()),
        outer: LockWord::new(),
        inner: LockWord::new(),
        x: Padded(TxVar::new(TOTAL)),
        y: Padded(TxVar::new(0)),
        fillers: (0..FILLERS).map(|_| Padded(TxVar::new(0))).collect(),
    };
    let writers_left = AtomicU64::new(WRITERS);
    let slow_sections = AtomicU64::new(0);
    std::thread::scope(|s| {
        let mut threads = Vec::new();
        for w in 0..WRITERS {
            let (rt, acct, writers_left) = (&rt, &acct, &writers_left);
            threads.push(s.spawn(move || {
                let mut rng = SplitMix64::new(0xC0FF_EE00 + w);
                for _ in 0..COMMITS_PER_WRITER {
                    let d = 1 + rng.below(1000);
                    loop {
                        let mut tx = Tx::fast(rt);
                        if transfer(&mut tx, acct, d)
                            .and_then(|()| tx.commit())
                            .is_ok()
                        {
                            break;
                        }
                        // Lock held or a conflict: let the other side run.
                        std::thread::yield_now();
                    }
                }
                writers_left.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        threads.push(s.spawn(|| {
            let mut rng = SplitMix64::new(0x5107);
            while writers_left.load(Ordering::SeqCst) != 0 {
                if rng.below(2) == 0 {
                    let held = acct.real.write().expect("no holder panics");
                    acct.outer.mark_held_and_drain();
                    let seen = direct_pair(&rt, &acct);
                    acct.outer.clear_held();
                    drop(held);
                    assert_not_torn(seen, "the slow-path writer");
                } else {
                    let held = acct.real.read().expect("no holder panics");
                    acct.inner.reader_enter_and_drain();
                    let seen = direct_pair(&rt, &acct);
                    acct.inner.reader_exit();
                    drop(held);
                    assert_not_torn(seen, "a slow-path reader");
                }
                slow_sections.fetch_add(1, Ordering::Relaxed);
                // Leave the lock free for a while: the writers must commit
                // between slow sections for there to be anything to tear.
                for _ in 0..rng.below(512) {
                    std::hint::spin_loop();
                }
            }
        }));
        join_all(threads);
    });
    assert_not_torn(direct_pair(&rt, &acct), "the final check");
    let snap = rt.stats().snapshot();
    let writing = snap.commits - snap.read_only_commits;
    assert_eq!(writing, WRITERS * COMMITS_PER_WRITER);
    println!(
        "{} slow sections, {} explicit aborts",
        slow_sections.load(Ordering::Relaxed),
        snap.aborts_explicit
    );
    assert!(
        slow_sections.load(Ordering::Relaxed) > 100 && snap.aborts_explicit > 0,
        "the slow path never met a section: {} slow sections, {snap:?}",
        slow_sections.load(Ordering::Relaxed)
    );
}

fn thread_churn_does_not_grow_the_registry() {
    const THREADS: usize = 1_000;
    const WAVE: usize = 8;
    let rt = HtmRuntime::new(HtmConfig::coffee_lake());
    let word = LockWord::new();
    let cell = TxVar::new(0u64);
    let (registered_before, in_use_before) = commit_slot_usage();
    for _ in 0..THREADS / WAVE {
        std::thread::scope(|s| {
            let wave: Vec<_> = (0..WAVE)
                .map(|_| {
                    s.spawn(|| loop {
                        let mut tx = Tx::fast(&rt);
                        let bumped = tx
                            .subscribe_lock(&word, Elision::Write)
                            .and_then(|()| tx.update(&cell, |n| n + 1));
                        if bumped.and_then(|_| tx.commit()).is_ok() {
                            break;
                        }
                    })
                })
                .collect();
            join_all(wave);
        });
    }
    let mut check = Tx::direct(&rt);
    assert_eq!(check.read(&cell).unwrap(), THREADS as u64);
    let (registered, in_use) = commit_slot_usage();
    assert_eq!(
        in_use, in_use_before,
        "a finished thread kept its commit slot"
    );
    assert!(
        registered <= registered_before.max(in_use_before + WAVE),
        "{THREADS} threads, at most {WAVE} alive at once, grew the registry \
         from {registered_before} to {registered}"
    );
}

#[test]
fn commit_gate() {
    elided_writers_never_tear_a_slow_path_read();
    thread_churn_does_not_grow_the_registry();
    // This thread never speculated and every other one was joined.
    assert_eq!(commit_slot_usage().1, 0, "a slot outlived its arena");
}
