//! `OptiStatsSnapshot`'s per-section counts are read from the runtime's
//! HTM domain, which is exact only if every HTM decision starts exactly
//! one transaction — including the decision taken again after a
//! speculation aborts at its lock subscription.

use std::sync::Arc;

use gocc_faultplane::{AbortMix, HtmFaultPlan};
use gocc_htm::TxVar;
use gocc_optilock::{critical_mutex, ElidableMutex, GoccConfig, GoccRuntime};
use gocc_telemetry::trace::{self, PERCEPTRON_PREDICT_HTM, PERCEPTRON_PREDICT_SLOW};
use gocc_telemetry::{EventOutcome, SpanKind};

fn runtime_with(mut cfg: GoccConfig, plan: HtmFaultPlan) -> (GoccRuntime, Arc<HtmFaultPlan>) {
    gocc_gosync::set_procs(8);
    let plan = Arc::new(plan);
    cfg.htm.fault_plan = Some(Arc::clone(&plan));
    (GoccRuntime::new(cfg), plan)
}

/// A fixed site, so the plan's per-site schedule does not depend on where
/// the loader put a `call_site!()` static.
const SITE: usize = 0x60CC;

#[test]
fn per_section_counts_are_the_htm_domains() {
    const THREADS: u64 = 4;
    const SECTIONS: u64 = 500;
    // Every injected fault fires at the lock subscription; capacity also
    // exercises the re-decision that chooses the lock.
    let mix = AbortMix {
        conflict: 0.2,
        lock_held: 0.1,
        capacity: 0.05,
        ..AbortMix::default()
    };
    for (cfg, perceptron) in [
        (GoccConfig::standard(), true),
        (GoccConfig::no_perceptron(), false),
    ] {
        let (rt, plan) = runtime_with(cfg, HtmFaultPlan::new(2106, mix));
        let m = ElidableMutex::new();
        let v = TxVar::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..SECTIONS {
                        critical_mutex(&rt, SITE, &m, |tx| {
                            let cur = tx.read(&v)?;
                            tx.write(&v, cur + 1)
                        });
                    }
                });
            }
        });
        assert!(plan.total_injected() > 100, "injection must actually fire");
        let opti = rt.stats().snapshot();
        let htm = rt.htm().stats().snapshot();
        assert_eq!(opti.htm_attempts, htm.starts);
        assert_eq!(opti.fast_commits, htm.commits);
        assert_eq!(opti.fast_commits + opti.slow_sections, THREADS * SECTIONS);
        assert_eq!(
            opti.perceptron_htm,
            if perceptron { opti.htm_attempts } else { 0 }
        );
    }
}

/// A seed whose schedule at [`SITE`] under `mix` injects into the first
/// attempt and lets the second run clean.
fn seed_aborting_first_attempt_only(mix: AbortMix) -> u64 {
    (0..)
        .find(|&seed| {
            let probe = HtmFaultPlan::new(seed, mix);
            probe.draw(SITE).is_some() && probe.draw(SITE).is_none()
        })
        .expect("half the draws inject")
}

#[test]
fn one_subscribe_abort_costs_one_extra_decision() {
    let mix = AbortMix {
        conflict: 0.5,
        ..AbortMix::default()
    };
    let seed = seed_aborting_first_attempt_only(mix);
    let (rt, plan) = runtime_with(GoccConfig::standard(), HtmFaultPlan::new(seed, mix));
    rt.tracer().configure(1, 7);
    trace::set_current(rt.tracer().begin_request());
    let m = ElidableMutex::new();
    critical_mutex(&rt, SITE, &m, |_tx| Ok(()));
    trace::clear_current();
    let spans = rt.tracer().drain();
    rt.tracer().configure(0, 0);

    assert_eq!(plan.total_injected(), 1);
    let predictions = |action| {
        spans
            .iter()
            .filter(|s| s.kind == SpanKind::Perceptron && s.a == action)
            .count()
    };
    assert_eq!(
        predictions(PERCEPTRON_PREDICT_HTM),
        2,
        "the first execution's decision and one more after the abort"
    );
    assert_eq!(predictions(PERCEPTRON_PREDICT_SLOW), 0);
    let opti = rt.stats().snapshot();
    assert_eq!((opti.htm_attempts, opti.perceptron_htm), (2, 2));
    assert_eq!((opti.fast_commits, opti.slow_sections), (1, 0));
}

#[test]
fn a_re_decision_for_the_lock_is_what_telemetry_reports() {
    // Capacity is deterministic: the abort zeroes the budget, the decision
    // taken again says lock, and the section's event must not still carry
    // the first decision's "predicted fast".
    let mix = AbortMix {
        capacity: 1.0,
        ..AbortMix::default()
    };
    let (rt, _plan) = runtime_with(GoccConfig::with_telemetry(), HtmFaultPlan::new(1, mix));
    let m = ElidableMutex::new();
    critical_mutex(&rt, SITE, &m, |_tx| Ok(()));
    let events = rt.telemetry().expect("telemetry enabled").events.drain();
    let outcomes: Vec<_> = events
        .iter()
        .map(|e| (e.outcome, e.predicted_fast))
        .collect();
    assert!(
        matches!(
            outcomes[..],
            [
                (EventOutcome::Abort(_), true),
                (EventOutcome::SlowSection, false)
            ]
        ),
        "{outcomes:?}"
    );
}
