//! Watching the perceptron learn (§5.4.1).
//!
//! Run with: `cargo run --release --example adaptive_contention`
//!
//! Two call sites share the runtime: a *friendly* one (disjoint counter
//! updates, elision always commits) and a *hopeless* one (simulated IO,
//! every speculation aborts). The perceptron learns per (mutex ⊕ site)
//! cell: the friendly site keeps eliding while the hopeless one is parked
//! on the slow path after a handful of penalties — and after 1000
//! consecutive slow-path decisions the decayed weights give HTM another
//! chance, exactly as the paper describes.

use gocc_repro::optilock::{call_site, critical_mutex, ElidableMutex, GoccRuntime};
use gocc_repro::txds::TxCounter;

fn main() {
    let rt = GoccRuntime::new_default();
    let friendly_lock = ElidableMutex::new();
    let hopeless_lock = ElidableMutex::new();
    let counter = TxCounter::new(0);

    let friendly_site = call_site!();
    let hopeless_site = call_site!();

    let report = |phase: &str| {
        let s = rt.stats().snapshot();
        println!(
            "{phase:<28} fast={:<6} slow={:<6} htm-attempts={:<6} perceptron(htm/slow)={}/{}",
            s.fast_commits, s.slow_sections, s.htm_attempts, s.perceptron_htm, s.perceptron_slow
        );
    };

    println!("phase 1: 500 friendly sections — everything elides");
    for _ in 0..500 {
        critical_mutex(&rt, friendly_site, &friendly_lock, |tx| counter.add(tx, 1));
    }
    report("after friendly");

    println!("\nphase 2: 500 hopeless sections — perceptron parks the site");
    let attempts_before = rt.stats().snapshot().htm_attempts;
    for _ in 0..500 {
        critical_mutex(&rt, hopeless_site, &hopeless_lock, |tx| {
            tx.unfriendly()?; // models IO: can never commit under HTM
            Ok(())
        });
    }
    report("after hopeless");
    let wasted = rt.stats().snapshot().htm_attempts - attempts_before;
    println!("  -> only {wasted} of 500 hopeless sections attempted HTM before giving up");
    assert!(wasted < 50, "perceptron failed to learn");

    println!("\nphase 3: friendly site is unaffected by the hopeless site's history");
    let fast_before = rt.stats().snapshot().fast_commits;
    for _ in 0..500 {
        critical_mutex(&rt, friendly_site, &friendly_lock, |tx| counter.add(tx, 1));
    }
    report("after friendly again");
    let fast_delta = rt.stats().snapshot().fast_commits - fast_before;
    assert!(
        fast_delta > 450,
        "friendly site must keep eliding, got {fast_delta}"
    );

    println!(
        "\nphase 4: weight decay gives the hopeless site another chance after 1000 slow calls"
    );
    let resets_before = rt.perceptron().reset_count();
    for _ in 0..2100 {
        critical_mutex(&rt, hopeless_site, &hopeless_lock, |tx| {
            tx.unfriendly()?;
            Ok(())
        });
    }
    let resets = rt.perceptron().reset_count() - resets_before;
    println!("  -> decay resets fired: {resets} (threshold: 1000 consecutive slow decisions)");
    assert!(
        resets >= 1,
        "decay must fire at least once in 2100 slow sections"
    );
    report("after decay phase");
}
