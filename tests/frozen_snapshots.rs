//! The two statistics snapshots are frozen: `benchmark/src/section.rs`
//! (`delta_htm`, `delta_opti`) builds both by full struct literal, and
//! `benchmark/` is its own workspace that `cargo build --workspace` never
//! compiles. Adding, removing or renaming a field must fail here, in
//! tier-1, and not only in `scripts/ci.sh`'s benchmark stage.

use gocc_repro::htm::StatsSnapshot;
use gocc_repro::optilock::OptiStatsSnapshot;

#[test]
fn snapshot_structs_keep_their_exact_field_lists() {
    // No `..`: the literals name all 14 and all 8 fields.
    let htm = StatsSnapshot {
        starts: 14,
        commits: 2,
        read_only_commits: 1,
        aborts_explicit: 1,
        aborts_retry: 1,
        aborts_conflict: 1,
        aborts_capacity: 1,
        aborts_debug: 1,
        aborts_nested: 1,
        aborts_unfriendly: 1,
        direct_sections: 1,
        ctx_fresh: 1,
        ctx_reused: 13,
        inline_overflows: 1,
    };
    let opti = OptiStatsSnapshot {
        htm_attempts: 14,
        fast_commits: 2,
        slow_sections: 2,
        perceptron_htm: 14,
        perceptron_slow: 1,
        single_thread_bypass: 1,
        mismatch_recoveries: 1,
        watchdog_forced: 1,
    };
    assert_eq!(htm.total_aborts(), 7);
    assert!((opti.fast_ratio() - 0.5).abs() < f64::EPSILON);
}
