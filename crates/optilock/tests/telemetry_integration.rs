//! Telemetry attribution must reconcile with the global counters.
//!
//! The per-site registry records at exactly the points where the global
//! `OptiStats` counters increment (outermost HTM attempt, outermost fast
//! commit, slow-path completion), so summing every site row must
//! reproduce the global totals — across threads, aborts and retries.

use gocc_optilock::{call_site, critical_mutex, ElidableMutex, GoccConfig, GoccRuntime};
use gocc_telemetry::ABORT_CAUSE_NAMES;
use gocc_txds::TxCounter;

fn rt_with_telemetry() -> GoccRuntime {
    GoccRuntime::new(GoccConfig::with_telemetry())
}

#[test]
fn per_site_sums_match_global_stats_under_contention() {
    let rt = rt_with_telemetry();
    let m1 = ElidableMutex::new();
    let m2 = ElidableMutex::new();
    let c1 = TxCounter::new(0);
    let c2 = TxCounter::new(0);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (rt, m1, m2, c1, c2) = (&rt, &m1, &m2, &c1, &c2);
            s.spawn(move || {
                for i in 0..300u64 {
                    if (t + i) % 2 == 0 {
                        // Contended: all threads update one counter.
                        critical_mutex(rt, call_site!(), m1, |tx| c1.add(tx, 1));
                    } else {
                        critical_mutex(rt, call_site!(), m2, |tx| c2.add(tx, i));
                    }
                }
            });
        }
    });

    let report = rt.telemetry().expect("telemetry enabled").report();
    let opti = rt.stats().snapshot();
    let htm = rt.htm().stats().snapshot();

    assert_eq!(opti.fast_commits + opti.slow_sections, 4 * 300);

    let site_starts: u64 = report.sites.iter().map(|s| s.starts).sum();
    let site_commits: u64 = report.sites.iter().map(|s| s.commits).sum();
    let site_slow: u64 = report.sites.iter().map(|s| s.slow_sections).sum();
    assert_eq!(report.aliased_sites, 0, "4 sites cannot alias a 4K table");
    assert_eq!(site_starts, opti.htm_attempts, "starts == global attempts");
    assert_eq!(site_commits, opti.fast_commits, "commits == fast commits");
    assert_eq!(site_slow, opti.slow_sections, "slow == slow sections");

    // Per-cause abort attribution reconciles with the HTM layer's own
    // per-cause counters. Sections the perceptron routed straight to the
    // slow path never start a transaction, so telemetry sees exactly the
    // aborts the HTM runtime sees.
    let htm_by_cause = [
        htm.aborts_explicit,
        htm.aborts_retry,
        htm.aborts_conflict,
        htm.aborts_capacity,
        htm.aborts_debug,
        htm.aborts_nested,
        htm.aborts_unfriendly,
    ];
    for (i, name) in ABORT_CAUSE_NAMES.iter().enumerate() {
        let site_total: u64 = report.sites.iter().map(|s| s.aborts[i]).sum();
        assert_eq!(site_total, htm_by_cause[i], "abort cause {name}");
    }

    // Latency samples: one per completed section, attributed to the path
    // that completed it, nothing silently lost.
    assert_eq!(report.dropped_samples, 0);
    assert_eq!(report.fast_latency.count, opti.fast_commits);
    assert_eq!(report.slow_latency.count, opti.slow_sections);
}

#[test]
fn report_json_round_trips_through_the_parser() {
    let rt = rt_with_telemetry();
    let m = ElidableMutex::new();
    let c = TxCounter::new(0);
    for _ in 0..50 {
        critical_mutex(&rt, call_site!(), &m, |tx| c.add(tx, 1));
    }
    let report = rt.telemetry().unwrap().report();
    let json = report.to_json();
    let v = gocc_telemetry::JsonValue::parse(&json).expect("emitted JSON parses");
    let sites = v.get("sites").unwrap().as_array().unwrap();
    assert_eq!(sites.len(), 1, "one call site, one lock");
    let starts = sites[0].get("starts").unwrap().as_f64().unwrap();
    let commits = sites[0].get("commits").unwrap().as_f64().unwrap();
    let slow = sites[0].get("slow_sections").unwrap().as_f64().unwrap();
    assert_eq!(commits + slow, 50.0);
    assert!(starts >= commits);
    // The text rendering carries the same totals.
    let text = report.to_text();
    assert!(text.contains("fast latency"), "{text}");
}

#[test]
fn disabled_runtime_reports_nothing() {
    let rt = GoccRuntime::new(GoccConfig::standard());
    let m = ElidableMutex::new();
    let c = TxCounter::new(0);
    for _ in 0..10 {
        critical_mutex(&rt, call_site!(), &m, |tx| c.add(tx, 1));
    }
    assert!(rt.telemetry().is_none(), "telemetry is strictly opt-in");
    // But the always-on global stats still accumulated.
    let s = rt.stats().snapshot();
    assert_eq!(s.fast_commits + s.slow_sections, 10);
}
