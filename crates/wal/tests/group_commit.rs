//! End-to-end `Wal` behavior: group commit acks, flush barriers,
//! checkpoint rotation, and the acked-writes-survive invariant under
//! seeded crashes — all against the simulated durable-prefix backend, so
//! every "kill -9" lands at a reproducible byte.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use gocc_faultplane::{StorageFaultPlan, StorageMix};
use gocc_wal::{
    CheckpointImage, ShardImage, Staged, SyncPolicy, Wal, WalBackend, WalConfig, WalKind,
};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gocc-wal-gc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn put(shard: u32, seq: u64, key: u64, value: u64) -> Staged {
    Staged {
        shard,
        seq,
        kind: WalKind::Put,
        key,
        value,
        exp: 0,
    }
}

fn cfg(sync: SyncPolicy, backend: WalBackend) -> WalConfig {
    WalConfig {
        sync,
        fsync_batch_size: 8,
        fsync_wait_us: 100,
        checkpoint_every: 0,
        backend,
    }
}

#[test]
fn staged_records_survive_graceful_restart_under_every_policy() {
    for sync in [SyncPolicy::Off, SyncPolicy::Group, SyncPolicy::Always] {
        let dir = tmp(&format!("restart-{}", sync.name()));
        let (wal, rec) = Wal::open(&dir, 2, cfg(sync, WalBackend::Real)).unwrap();
        assert!(rec.shards.iter().all(|s| s.entries.is_empty()));
        for i in 0..100u64 {
            let t = wal.stage(put((i % 2) as u32, i / 2 + 1, i, i * 10));
            wal.wait(t).unwrap();
        }
        wal.shutdown();
        let (wal2, rec2) = Wal::open(&dir, 2, cfg(sync, WalBackend::Real)).unwrap();
        let total: usize = rec2.shards.iter().map(|s| s.entries.len()).sum();
        assert_eq!(total, 100, "policy {}", sync.name());
        assert_eq!(rec2.stats.replayed, 100);
        for s in &rec2.shards {
            for &(k, v, _) in &s.entries {
                assert_eq!(v, k * 10);
            }
        }
        wal2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn flush_is_a_barrier_even_with_sync_off() {
    let dir = tmp("flush-off");
    let plan = Arc::new(StorageFaultPlan::new(5, StorageMix::default()));
    let (wal, _) = Wal::open(&dir, 1, cfg(SyncPolicy::Off, WalBackend::Sim(plan))).unwrap();
    for i in 0..50u64 {
        let t = wal.stage(put(0, i + 1, i, i));
        wal.wait(t).unwrap(); // off: immediate
    }
    let lsn = wal.flush().unwrap();
    assert!(lsn >= 50, "flush covers everything staged: {lsn}");
    assert!(wal.fsyncs() >= 1, "flush must really fsync");
    // Simulate death with no close: only the durable prefix survives.
    // The sim backend materializes on crash/close; a flushed file's
    // durable watermark covers all 50 records, so force-materialize by
    // dropping without shutdown and re-reading what close would write.
    wal.shutdown();
    let (_, rec) = Wal::open(&dir, 1, cfg(SyncPolicy::Off, WalBackend::Real)).unwrap();
    assert_eq!(rec.shards[0].entries.len(), 50);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_batches_many_records_per_fsync() {
    let dir = tmp("batching");
    let (wal, _) = Wal::open(&dir, 4, cfg(SyncPolicy::Group, WalBackend::Real)).unwrap();
    let wal = &wal;
    // 8 writer threads, closed loop: the syncer should coalesce their
    // records into far fewer fsyncs than records.
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            scope.spawn(move || {
                for i in 0..200u64 {
                    let shard = (t % 4) as u32;
                    let ticket = wal.stage(put(shard, t * 1000 + i, t * 1000 + i, i));
                    wal.wait(ticket).unwrap();
                }
            });
        }
    });
    assert_eq!(wal.appended(), 1600);
    let fsyncs = wal.fsyncs();
    assert!(
        fsyncs < 1600 / 2,
        "group commit must amortize: {fsyncs} fsyncs for 1600 records"
    );
    // One append per batch, and every batch is fsynced at least once.
    assert!((1..=fsyncs).contains(&wal.writes()));
    wal.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn writes_and_wakeups_are_counted_where_the_syncer_makes_them() {
    // `always`: one append per record, by definition of the policy.
    let dir = tmp("counts-always");
    let (wal, _) = Wal::open(&dir, 1, cfg(SyncPolicy::Always, WalBackend::Real)).unwrap();
    for i in 0..40u64 {
        let t = wal.stage(put(0, i + 1, i, i));
        wal.wait(t).unwrap();
    }
    assert_eq!((wal.appended(), wal.writes()), (40, 40));
    wal.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // `off`: a pass appends whatever it drained in one write (so writes
    // cannot pass records) and sleeps once behind it.
    let dir = tmp("counts-off");
    let (wal, _) = Wal::open(&dir, 1, cfg(SyncPolicy::Off, WalBackend::Real)).unwrap();
    for i in 0..1000u64 {
        wal.stage(put(0, i + 1, i, i));
    }
    wal.flush().unwrap();
    assert_eq!(wal.appended(), 1000);
    assert!((1..=1000).contains(&wal.writes()), "{}", wal.writes());
    // The sleep behind that write comes after the flush is answered; an
    // idle syncer then parks, and counts it, every 500 µs.
    let t0 = std::time::Instant::now();
    while wal.syncer_wakeups() == 0 {
        assert!(t0.elapsed().as_secs() < 5, "the syncer never slept");
        std::thread::yield_now();
    }
    let stats = wal.stats_json();
    for key in ["\"writes\":", "\"syncer_wakeups\":"] {
        assert!(stats.contains(key), "{key} missing from {stats}");
    }
    wal.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_truncates_and_recovery_uses_it() {
    let dir = tmp("ckpt");
    let (wal, _) = Wal::open(&dir, 1, cfg(SyncPolicy::Group, WalBackend::Real)).unwrap();
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    for i in 0..300u64 {
        let t = wal.stage(put(0, i + 1, i % 40, i));
        oracle.insert(i % 40, i);
        wal.wait(t).unwrap();
    }
    // Rotate, snapshot the oracle, commit the checkpoint.
    let (base_gen, retired) = wal.begin_checkpoint().unwrap();
    assert!(!retired.is_empty());
    let image = CheckpointImage {
        base_gen,
        shards: vec![ShardImage {
            entries: oracle.iter().map(|(&k, &v)| (k, v, 0)).collect(),
            seq: 300,
            now: 0,
        }],
    };
    wal.finish_checkpoint(&image, &retired).unwrap();
    assert_eq!(wal.checkpoints(), 1);
    // Tail after the checkpoint.
    for i in 300..350u64 {
        let t = wal.stage(put(0, i + 1, i % 40, i));
        oracle.insert(i % 40, i);
        wal.wait(t).unwrap();
    }
    wal.shutdown();

    let (_, rec) = Wal::open(&dir, 1, cfg(SyncPolicy::Group, WalBackend::Real)).unwrap();
    assert!(rec.stats.checkpoint_loaded);
    assert_eq!(rec.stats.checkpoint_entries, 40);
    assert_eq!(rec.stats.replayed, 50, "only the tail replays");
    assert_eq!(rec.shards[0].seq, 350);
    let got: HashMap<u64, u64> = rec.shards[0]
        .entries
        .iter()
        .map(|&(k, v, _)| (k, v))
        .collect();
    assert_eq!(got, oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole invariant, attacked with seeded crashes: after any
/// crash, every acked record's key maps to its acked value or a later
/// *issued* value for that key — never a lost ack, never half a record.
#[test]
fn acked_records_survive_seeded_crashes() {
    let mut crashes_seen = 0;
    for seed in 0..24u64 {
        for sync in [SyncPolicy::Group, SyncPolicy::Always] {
            let dir = tmp(&format!("crash-{seed}-{}", sync.name()));
            let plan = Arc::new(StorageFaultPlan::new(
                seed,
                StorageMix {
                    crash_per_append: 0.004,
                    torn_given_crash: 0.5,
                    short_fsync: 0.2,
                    ckpt_crash: 0.0,
                },
            ));
            let mut config = cfg(sync, WalBackend::Sim(plan));
            config.fsync_wait_us = 10;
            let (wal, _) = Wal::open(&dir, 2, config).unwrap();

            // Sequential writer, disjoint value history per key.
            let mut acked: HashMap<u64, u64> = HashMap::new();
            let mut issued: HashMap<u64, Vec<u64>> = HashMap::new();
            let mut crashed = false;
            for i in 0..1200u64 {
                let key = i % 16;
                let value = i + 1;
                let shard = (key % 2) as u32;
                issued.entry(key).or_default().push(value);
                let t = wal.stage(put(shard, i + 1, key, value));
                match wal.wait(t) {
                    Ok(()) => {
                        acked.insert(key, value);
                    }
                    Err(_) => {
                        crashed = true;
                        break;
                    }
                }
            }
            wal.shutdown();
            if crashed {
                crashes_seen += 1;
            }

            let (_, rec) = Wal::open(&dir, 2, cfg(sync, WalBackend::Real)).unwrap();
            let mut recovered: HashMap<u64, u64> = HashMap::new();
            for s in &rec.shards {
                for &(k, v, _) in &s.entries {
                    assert!(
                        issued.get(&k).is_some_and(|vals| vals.contains(&v)),
                        "seed {seed}: recovered ({k} -> {v}) was never issued"
                    );
                    recovered.insert(k, v);
                }
            }
            for (&key, &val) in &acked {
                let got = recovered.get(&key).copied();
                let ok = match got {
                    None => false,
                    // The recovered value must be the acked one or a later
                    // issued value (an unacked successor that made it).
                    Some(v) => v >= val && issued[&key].contains(&v),
                };
                assert!(
                    ok,
                    "seed {seed} sync {}: acked ({key} -> {val}) lost, got {got:?}",
                    sync.name()
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert!(
        crashes_seen >= 5,
        "the schedule must actually kill some runs: {crashes_seen}"
    );
}

/// Crashes injected at every checkpoint phase leave a recoverable store.
#[test]
fn checkpoint_phase_crashes_are_recoverable() {
    let mut ckpt_crashes = 0;
    for seed in 0..16u64 {
        let dir = tmp(&format!("ckptcrash-{seed}"));
        let plan = Arc::new(StorageFaultPlan::new(
            seed,
            StorageMix {
                crash_per_append: 0.0,
                torn_given_crash: 0.0,
                short_fsync: 0.0,
                ckpt_crash: 0.35,
            },
        ));
        let (wal, _) = Wal::open(&dir, 1, cfg(SyncPolicy::Group, WalBackend::Sim(plan))).unwrap();
        let mut acked: HashMap<u64, u64> = HashMap::new();
        let mut seq = 0u64;
        let mut interrupted = false;
        for round in 0..6u64 {
            for i in 0..40u64 {
                seq += 1;
                let key = i % 20;
                let value = round * 100 + i + 1;
                let t = wal.stage(put(0, seq, key, value));
                if wal.wait(t).is_err() {
                    interrupted = true;
                    break;
                }
                acked.insert(key, value);
            }
            if interrupted {
                break;
            }
            let (base_gen, retired) = match wal.begin_checkpoint() {
                Ok(x) => x,
                Err(_) => {
                    interrupted = true;
                    break;
                }
            };
            let image = CheckpointImage {
                base_gen,
                shards: vec![ShardImage {
                    entries: acked.iter().map(|(&k, &v)| (k, v, 0)).collect(),
                    seq,
                    now: 0,
                }],
            };
            if wal.finish_checkpoint(&image, &retired).is_err() {
                interrupted = true;
                ckpt_crashes += 1;
                break;
            }
        }
        wal.shutdown();

        // However the run died, the acked map must recover exactly:
        // writes here are acked-before-next, so recovery ≥ acked, and
        // values are unique per issue so equality is checkable per key.
        let (_, rec) = Wal::open(&dir, 1, cfg(SyncPolicy::Group, WalBackend::Real)).unwrap();
        let recovered: HashMap<u64, u64> = rec.shards[0]
            .entries
            .iter()
            .map(|&(k, v, _)| (k, v))
            .collect();
        for (&k, &v) in &acked {
            let got = recovered.get(&k).copied();
            assert!(
                got == Some(v) || got > Some(v),
                "seed {seed}: acked ({k} -> {v}) lost after ckpt crash (interrupted={interrupted}), got {got:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        ckpt_crashes >= 3,
        "schedule never hit a checkpoint: {ckpt_crashes}"
    );
}
