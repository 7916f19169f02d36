//! Deterministic fault injection driven through the full `optiLib` stack:
//! every retry-policy branch, the livelock watchdog, and end-to-end
//! mutex-mismatch reporting.

use std::sync::Arc;

use gocc_faultplane::{AbortMix, HtmFaultPlan, PairingFaultPlan};
use gocc_htm::{AbortCause, Tx, TxVar, MUTEX_MISMATCH_CODE};
use gocc_optilock::{
    call_site, critical_mutex, ElidableMutex, GoccConfig, GoccRuntime, HtmScope, LockRef, OptiLock,
};
use gocc_telemetry::EventOutcome;

fn np_runtime_with(mix: AbortMix, seed: u64) -> (GoccRuntime, Arc<HtmFaultPlan>) {
    let plan = Arc::new(HtmFaultPlan::new(seed, mix));
    let mut cfg = GoccConfig::no_perceptron();
    cfg.htm.fault_plan = Some(Arc::clone(&plan));
    (GoccRuntime::new(cfg), plan)
}

#[test]
fn injected_transient_aborts_degrade_gracefully_under_load() {
    // 30% of attempts abort with an injected Conflict; sections must still
    // all complete with exact counts (retry, then fall back).
    let (rt, plan) = np_runtime_with(
        AbortMix {
            conflict: 0.3,
            ..AbortMix::default()
        },
        11,
    );
    let m = ElidableMutex::new();
    let v = TxVar::new(0u64);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..200 {
                    critical_mutex(&rt, call_site!(), &m, |tx| {
                        let cur = tx.read(&v)?;
                        tx.write(&v, cur + 1)
                    });
                }
            });
        }
    });
    let mut check = Tx::direct(rt.htm());
    assert_eq!(check.read(&v).unwrap(), 800, "lost updates under injection");
    assert!(plan.total_injected() > 100, "injection must actually fire");
    let snap = rt.stats().snapshot();
    assert_eq!(snap.fast_commits + snap.slow_sections, 800);
    assert!(snap.slow_sections > 0, "some sections must exhaust retries");
}

#[test]
fn injected_capacity_exhausts_budget_immediately() {
    // Capacity is deterministic: one abort must zero the budget and send
    // the section straight to the lock (no wasted re-attempts).
    let (rt, plan) = np_runtime_with(
        AbortMix {
            capacity: 1.0,
            ..AbortMix::default()
        },
        12,
    );
    let m = ElidableMutex::new();
    let v = TxVar::new(0u64);
    for _ in 0..20 {
        critical_mutex(&rt, call_site!(), &m, |tx| {
            let cur = tx.read(&v)?;
            tx.write(&v, cur + 1)
        });
    }
    let snap = rt.stats().snapshot();
    assert_eq!(snap.slow_sections, 20);
    assert_eq!(snap.fast_commits, 0);
    assert_eq!(
        snap.htm_attempts, 20,
        "exactly one doomed attempt per section: capacity must not be retried"
    );
    assert_eq!(plan.total_injected(), 20);
    assert_eq!(rt.htm().stats().snapshot().aborts_capacity, 20);
}

#[test]
fn injected_lock_held_burns_the_full_retry_budget() {
    // Explicit(LOCK_HELD_CODE) is transient: with injection at rate 1.0
    // each section must retry exactly `max_attempts` times, then fall back.
    let (rt, _plan) = np_runtime_with(
        AbortMix {
            lock_held: 1.0,
            ..AbortMix::default()
        },
        13,
    );
    let max_attempts = rt.policy().max_attempts as u64;
    let m = ElidableMutex::new();
    for _ in 0..10 {
        critical_mutex(&rt, call_site!(), &m, |_tx| Ok(()));
    }
    let snap = rt.stats().snapshot();
    assert_eq!(snap.slow_sections, 10);
    assert_eq!(snap.htm_attempts, 10 * max_attempts);
    assert_eq!(
        snap.watchdog_forced, 0,
        "budget must give up before the watchdog"
    );
}

#[test]
fn injected_spurious_aborts_follow_the_retry_branch() {
    let (rt, plan) = np_runtime_with(
        AbortMix {
            spurious: 0.5,
            ..AbortMix::default()
        },
        14,
    );
    let m = ElidableMutex::new();
    let v = TxVar::new(0u64);
    for _ in 0..100 {
        critical_mutex(&rt, call_site!(), &m, |tx| {
            let cur = tx.read(&v)?;
            tx.write(&v, cur + 1)
        });
    }
    let mut check = Tx::direct(rt.htm());
    assert_eq!(check.read(&v).unwrap(), 100);
    assert!(plan.total_injected() > 20);
    assert_eq!(
        rt.htm().stats().snapshot().aborts_retry,
        plan.total_injected(),
        "every injected spurious abort must surface as AbortCause::Retry"
    );
}

#[test]
fn injected_aborts_leave_reused_contexts_clean() {
    // The same thread-local `TxContext` arena serves every attempt on this
    // thread; injected aborts tear attempts down mid-section. No staged
    // write from an aborted attempt may leak into a later one — the final
    // count proves it (a stale write-set entry would publish a stale value
    // or double-apply an increment at some commit).
    let (rt, plan) = np_runtime_with(
        AbortMix {
            conflict: 0.4,
            ..AbortMix::default()
        },
        21,
    );
    let m = ElidableMutex::new();
    let v = TxVar::new(0u64);
    const SECTIONS: u64 = 300;
    for i in 0..SECTIONS {
        critical_mutex(&rt, call_site!(), &m, |tx| {
            let cur = tx.read(&v)?;
            // Also stage a value that each attempt overwrites, so a stale
            // entry from an aborted attempt would be observable.
            tx.write(&v, cur + 1)?;
            assert_eq!(tx.read(&v)?, i + 1, "own staged write must win");
            Ok(())
        });
    }
    let mut check = Tx::direct(rt.htm());
    assert_eq!(check.read(&v).unwrap(), SECTIONS, "stale context state");
    assert!(plan.total_injected() > 50, "injection must actually fire");
    let htm = rt.htm().stats().snapshot();
    // Every attempt — including each aborted one — reused the one arena
    // this thread allocated; rollback must hand it back clean.
    assert!(htm.ctx_fresh <= 2, "contexts leaked across aborts: {htm:?}");
    assert!(htm.ctx_reused >= SECTIONS, "reuse not engaged: {htm:?}");
    assert_eq!(htm.inline_overflows, 0);
}

#[test]
fn inline_table_overflow_aborts_with_capacity_and_completes_slow() {
    // A section writing more distinct cache lines than the arena can hold
    // must abort with Capacity (the cause the perceptron learns from),
    // count as a physical inline overflow, and complete on the lock path.
    let mut cfg = GoccConfig::no_perceptron();
    cfg.telemetry_enabled = true;
    let rt = GoccRuntime::new(cfg);
    let m = ElidableMutex::new();
    // 600 cache lines of u64 cells: past the 512-line physical bound.
    let cells: Vec<TxVar<u64>> = (0..600 * 8).map(|_| TxVar::new(0)).collect();
    critical_mutex(&rt, call_site!(), &m, |tx| {
        for (i, c) in cells.iter().enumerate() {
            tx.write(c, i as u64)?;
        }
        Ok(())
    });
    let mut check = Tx::direct(rt.htm());
    assert_eq!(check.read(&cells[4799]).unwrap(), 4799, "section lost");
    let htm = rt.htm().stats().snapshot();
    assert!(htm.aborts_capacity >= 1, "no capacity abort: {htm:?}");
    assert!(htm.inline_overflows >= 1, "overflow not counted: {htm:?}");
    let snap = rt.stats().snapshot();
    assert_eq!(snap.slow_sections, 1);
    assert_eq!(
        snap.htm_attempts, 1,
        "capacity is deterministic: one doomed attempt, then the lock"
    );
    assert!(
        rt.telemetry().unwrap().inline_overflows() >= 1,
        "telemetry must surface the overflow"
    );
    // The oversized section must not have poisoned the thread's arena.
    let v = TxVar::new(0u64);
    critical_mutex(&rt, call_site!(), &m, |tx| tx.write(&v, 7));
    let mut check = Tx::direct(rt.htm());
    assert_eq!(check.read(&v).unwrap(), 7);
}

#[test]
fn watchdog_bounds_a_pathological_retry_policy() {
    // A policy with an effectively unbounded budget plus a 100% transient
    // abort rate is a livelock machine. The watchdog must cap it: each
    // section re-executes exactly `watchdog_abort_bound` times on the fast
    // path, then completes under the lock, visibly counted.
    let plan = Arc::new(HtmFaultPlan::new(
        15,
        AbortMix {
            conflict: 1.0,
            ..AbortMix::default()
        },
    ));
    let mut cfg = GoccConfig::no_perceptron();
    cfg.htm.fault_plan = Some(Arc::clone(&plan));
    cfg.policy.max_attempts = u32::MAX; // pathological
    cfg.policy.watchdog_abort_bound = 8;
    cfg.telemetry_enabled = true;
    let rt = GoccRuntime::new(cfg);
    let m = ElidableMutex::new();
    let v = TxVar::new(0u64);
    const SECTIONS: u64 = 25;
    for _ in 0..SECTIONS {
        critical_mutex(&rt, call_site!(), &m, |tx| {
            let cur = tx.read(&v)?;
            tx.write(&v, cur + 1)
        });
    }
    let mut check = Tx::direct(rt.htm());
    assert_eq!(check.read(&v).unwrap(), SECTIONS);
    let snap = rt.stats().snapshot();
    assert_eq!(
        snap.slow_sections, SECTIONS,
        "every section completes, on the lock"
    );
    assert_eq!(
        snap.watchdog_forced, SECTIONS,
        "the watchdog must fire once per livelocked section"
    );
    assert_eq!(
        snap.htm_attempts,
        SECTIONS * 8,
        "exactly watchdog_abort_bound fast attempts per section"
    );
    // The guarantee is visible in telemetry, not just internal stats.
    let report = rt.telemetry().expect("telemetry on").report();
    assert_eq!(report.watchdog_forced, SECTIONS);
    assert!(report.to_json().contains("\"watchdog_forced\":25"));
}

#[test]
fn mismatch_is_reported_not_swallowed() {
    // A mis-paired unlock must surface in *every* observable channel:
    // the returned abort, OptiStats, and telemetry (site attribution +
    // event trace) — not just silently recover.
    let mut cfg = GoccConfig::standard();
    cfg.telemetry_enabled = true;
    let rt = GoccRuntime::new(cfg);
    let a = ElidableMutex::new();
    let b = ElidableMutex::new();
    let v = TxVar::new(0u64);
    let mut ol = OptiLock::new(call_site!());
    let mut mismatch_aborts = 0u32;
    a.lock_raw();
    loop {
        let mut scope = HtmScope::new(&rt);
        if ol.fast_lock(&mut scope, LockRef::Mutex(&b)).is_err() {
            continue;
        }
        let write_ok = (|| {
            let cur = scope.tx().read(&v)?;
            scope.tx().write(&v, cur + 1)
        })();
        if write_ok.is_err() {
            scope.abort_restart();
            continue;
        }
        match ol.fast_unlock(&mut scope, LockRef::Mutex(&a)) {
            Ok(()) => break,
            Err(abort) => {
                assert_eq!(abort.cause, AbortCause::Explicit(MUTEX_MISMATCH_CODE));
                mismatch_aborts += 1;
                if scope.is_active() {
                    scope.abort_restart();
                }
            }
        }
    }
    b.unlock_raw();
    assert!(!a.is_locked() && !b.is_locked(), "no leaked locks");
    assert_eq!(
        mismatch_aborts, 1,
        "the abort must be returned to the caller"
    );
    assert_eq!(rt.stats().snapshot().mismatch_recoveries, 1);
    let report = rt.telemetry().unwrap().report();
    // Explicit aborts land in cause slot 0 ("explicit") of the site row.
    let explicit_idx = AbortCause::Explicit(MUTEX_MISMATCH_CODE).index();
    let attributed: u64 = report.sites.iter().map(|s| s.aborts[explicit_idx]).sum();
    assert!(attributed >= 1, "site attribution must record the mismatch");
    assert!(
        report
            .events
            .iter()
            .any(|e| e.outcome == EventOutcome::Abort(explicit_idx as u8)),
        "the event trace must contain the mismatch abort"
    );
}

#[test]
fn pairing_plan_drives_mismatch_detection_end_to_end() {
    // The seeded pairing plan decides, per iteration, whether the driver
    // emits a hand-over-hand mis-paired sequence. Every injected mispair
    // must be detected and recovered; clean iterations must elide.
    // No perceptron: a trained predictor could route a mispaired iteration
    // straight to the slow path, where no mismatch check exists to count.
    let rt = GoccRuntime::new(GoccConfig::no_perceptron());
    let pairing = PairingFaultPlan::new(77, 0.4);
    let a = ElidableMutex::new();
    let b = ElidableMutex::new();
    let v = TxVar::new(0u64);
    let site = call_site!();
    const ITERS: u64 = 50;
    for _ in 0..ITERS {
        if pairing.mispair(site) {
            // Mis-paired: FastLock(b) … FastUnlock(a), under raw-held a.
            let mut ol = OptiLock::new(site);
            a.lock_raw();
            loop {
                let mut scope = HtmScope::new(&rt);
                if ol.fast_lock(&mut scope, LockRef::Mutex(&b)).is_err() {
                    continue;
                }
                let write_ok = (|| {
                    let cur = scope.tx().read(&v)?;
                    scope.tx().write(&v, cur + 1)
                })();
                if write_ok.is_err() {
                    scope.abort_restart();
                    continue;
                }
                match ol.fast_unlock(&mut scope, LockRef::Mutex(&a)) {
                    Ok(()) => break,
                    Err(_) => {
                        if scope.is_active() {
                            scope.abort_restart();
                        }
                    }
                }
            }
            b.unlock_raw();
        } else {
            critical_mutex(&rt, site, &b, |tx| {
                let cur = tx.read(&v)?;
                tx.write(&v, cur + 1)
            });
        }
        assert!(
            !a.is_locked() && !b.is_locked(),
            "locks must balance per iter"
        );
    }
    let injected = pairing.count();
    assert!(
        injected > 5 && injected < ITERS,
        "rate 0.4 of {ITERS}: {injected}"
    );
    assert_eq!(
        rt.stats().snapshot().mismatch_recoveries,
        injected,
        "every injected mispair must be detected, and nothing else"
    );
    let mut check = Tx::direct(rt.htm());
    assert_eq!(
        check.read(&v).unwrap(),
        ITERS,
        "no lost or duplicated updates"
    );
}
