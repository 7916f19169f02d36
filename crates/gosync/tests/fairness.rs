//! Starvation-mode fairness: once the mutex flips to starving, ownership
//! hands off FIFO and no waiter is barged past indefinitely.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gocc_gosync::GoMutex;

#[test]
fn long_holds_flip_to_starvation_and_hand_off() {
    let m = Arc::new(GoMutex::new());
    let order = Arc::new(Mutex::new(Vec::new()));
    let holder = m.lock();

    let mut handles = Vec::new();
    for i in 0..3 {
        let (waiter, order) = (Arc::clone(&m), Arc::clone(&order));
        handles.push(std::thread::spawn(move || {
            let _g = waiter.lock();
            order.lock().unwrap().push(i);
        }));
        // Serialize arrival so queue order is deterministic: waiter i+1
        // starts only once waiter i is counted as queued.
        while m.waiters() <= i {
            std::thread::yield_now();
        }
    }
    // Hold past the 1 ms starvation threshold: all three waiters starve.
    std::thread::sleep(Duration::from_millis(10));
    drop(holder);
    for h in handles {
        h.join().unwrap();
    }
    // Starvation mode hands off in FIFO order of arrival.
    assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    assert!(!m.is_starving(), "last waiter exits starvation mode");
}

#[test]
fn no_lost_wakeups_under_churn() {
    let m = Arc::new(GoMutex::new());
    let acquisitions = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for _ in 0..6 {
            let (m, acq) = (Arc::clone(&m), Arc::clone(&acquisitions));
            s.spawn(move || {
                for i in 0..400u32 {
                    let _g = m.lock();
                    acq.fetch_add(1, Ordering::Relaxed);
                    if i % 64 == 0 {
                        // Occasionally hold long enough to trigger parking
                        // (and sometimes starvation) in the others.
                        std::thread::sleep(Duration::from_micros(300));
                    }
                }
            });
        }
    });
    assert_eq!(acquisitions.load(Ordering::Relaxed), 6 * 400);
    assert!(!m.is_locked());
}

#[test]
fn try_lock_never_steals_from_starving_queue() {
    let m = Arc::new(GoMutex::new());
    let holder = m.lock();
    let m2 = Arc::clone(&m);
    let waiter = std::thread::spawn(move || {
        let _g = m2.lock();
    });
    std::thread::sleep(Duration::from_millis(5));
    // While the mutex is held (and a waiter starves), try_lock must fail
    // rather than barging.
    assert!(m.try_lock().is_none());
    drop(holder);
    waiter.join().unwrap();
    // Starving mode may persist briefly on the state word; try_lock
    // respects it either way (Go's TryLock also refuses starving mutexes).
    let _ = m.try_lock();
}
