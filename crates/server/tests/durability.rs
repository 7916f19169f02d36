//! End-to-end durability tests: a real `goccd` server with a WAL-backed
//! data directory, killed gracefully and restarted, must serve every
//! acknowledged write back. Also covers the FLUSH verb contract and the
//! STATS `"wal"` object.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gocc_server::{spawn, Mode, ServerConfig, ServerState, SyncPolicy, Worker};
use gocc_telemetry::JsonValue;
use gocc_wire::{Request, Response};

mod common;
use common::{connect, Hand, LINK_BOUND};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gocc-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(mode: Mode, data_dir: Option<PathBuf>, sync: SyncPolicy) -> ServerConfig {
    let mut config = ServerConfig {
        mode,
        port: 0,
        workers: 2,
        shards: 2,
        capacity_per_shard: 1024,
        write_timeout: Duration::from_secs(5),
        data_dir,
        ..ServerConfig::default()
    };
    config.wal.sync = sync;
    config.wal.fsync_wait_us = 50;
    config
}

/// SET/INCR/DEL against a WAL-backed server, graceful restart, read back.
/// Every acknowledged write must be visible after recovery in both
/// execution modes and under both ack policies.
#[test]
fn acked_writes_survive_graceful_restart() {
    for mode in [Mode::Lock, Mode::Gocc] {
        for sync in [SyncPolicy::Group, SyncPolicy::Always] {
            let dir = temp_dir("restart");
            let handle = spawn(config(mode, Some(dir.clone()), sync)).expect("spawn with data dir");
            let mut c = connect(handle.port());
            for i in 0..64u64 {
                let key = format!("key-{i}");
                assert_eq!(
                    c.call(&Request::Set {
                        key: key.as_bytes(),
                        value: i * 10,
                        ttl: 0
                    })
                    .unwrap(),
                    Response::Done
                );
            }
            assert_eq!(
                c.call(&Request::Incr {
                    key: b"ctr",
                    delta: 5
                })
                .unwrap(),
                Response::Counter { value: 5 }
            );
            assert_eq!(
                c.call(&Request::Incr {
                    key: b"ctr",
                    delta: 37
                })
                .unwrap(),
                Response::Counter { value: 42 }
            );
            assert_eq!(
                c.call(&Request::Del { key: b"key-13" }).unwrap(),
                Response::Deleted { existed: true }
            );
            assert_eq!(c.call(&Request::Shutdown).unwrap(), Response::Bye);
            let _ = handle.join();

            // Same directory, fresh process state: recovery must replay
            // the checkpoint-free tail before the listener opens.
            let handle = spawn(config(mode, Some(dir.clone()), sync)).expect("respawn");
            let mut c = connect(handle.port());
            for i in 0..64u64 {
                let key = format!("key-{i}");
                let want = if i == 13 {
                    Response::Value {
                        found: false,
                        value: 0,
                    }
                } else {
                    Response::Value {
                        found: true,
                        value: i * 10,
                    }
                };
                assert_eq!(
                    c.call(&Request::Get {
                        key: key.as_bytes()
                    })
                    .unwrap(),
                    want,
                    "mode={mode:?} sync={sync:?} key-{i}"
                );
            }
            // INCR post-images replay to the final value, and the counter
            // keeps counting from there.
            assert_eq!(
                c.call(&Request::Incr {
                    key: b"ctr",
                    delta: 1
                })
                .unwrap(),
                Response::Counter { value: 43 }
            );
            let Response::Stats { json } = c.call(&Request::Stats).unwrap() else {
                panic!("stats must answer");
            };
            let doc = JsonValue::parse(json).expect("stats JSON parses");
            let wal = doc.get("wal").expect("wal object in STATS");
            assert!(matches!(wal.get("enabled"), Some(JsonValue::Bool(true))));
            let replayed = wal
                .get("recovery")
                .and_then(|r| r.get("recovery_replayed"))
                .and_then(JsonValue::as_f64)
                .expect("recovery_replayed counter");
            assert!(replayed >= 66.0, "expected a replayed tail, got {replayed}");
            assert_eq!(c.call(&Request::Shutdown).unwrap(), Response::Bye);
            let _ = handle.join();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// FLUSH is the client-visible barrier: it returns a non-zero durable
/// LSN once writes exist, and the LSN is monotone across calls.
#[test]
fn flush_returns_monotone_durable_lsn() {
    let dir = temp_dir("flush");
    let handle = spawn(config(Mode::Gocc, Some(dir.clone()), SyncPolicy::Group)).expect("spawn");
    let mut c = connect(handle.port());
    assert_eq!(
        c.call(&Request::Set {
            key: b"k",
            value: 1,
            ttl: 0
        })
        .unwrap(),
        Response::Done
    );
    let Response::Flushed { durable_lsn: a } = c.call(&Request::Flush).unwrap() else {
        panic!("flush must answer Flushed");
    };
    assert!(a > 0, "a write happened, so the durable LSN must be > 0");
    assert_eq!(
        c.call(&Request::Set {
            key: b"k2",
            value: 2,
            ttl: 0
        })
        .unwrap(),
        Response::Done
    );
    let Response::Flushed { durable_lsn: b } = c.call(&Request::Flush).unwrap() else {
        panic!("flush must answer Flushed");
    };
    assert!(b > a, "durable LSN must advance: {a} -> {b}");
    assert_eq!(c.call(&Request::Shutdown).unwrap(), Response::Bye);
    let _ = handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

fn set(key: &[u8]) -> Request<'_> {
    Request::Set {
        key,
        value: 1,
        ttl: 0,
    }
}

/// One worker, and a log whose syncer lingers 200 ms behind a lone
/// record: a SET's answer is parked on its barrier, not its worker. A GET
/// on another connection is answered while the SET's answer is still
/// unreadable; the SET then gets `Done`, and a SET pipelined behind it is
/// answered after it.
#[test]
fn a_held_barrier_parks_the_answer_not_the_worker() {
    let dir = temp_dir("held");
    let mut cfg = config(Mode::Gocc, Some(dir.clone()), SyncPolicy::Group);
    cfg.workers = 1;
    cfg.wal.fsync_wait_us = 200_000;
    cfg.wal.fsync_batch_size = 64;
    let handle = spawn(cfg).expect("spawn");
    let (mut a, mut b) = (connect(handle.port()), connect(handle.port()));
    let get = Request::Get { key: b"b" };
    assert!(matches!(b.call(&get), Ok(Response::Value { .. })));
    // A sends without waiting, and looks without waiting.
    a.get_ref().set_nonblocking(true).unwrap();
    let first = a.submit(&set(b"a1"), None);
    assert!(!a.pump().expect("send"), "answered before the linger");
    assert!(matches!(b.call(&get), Ok(Response::Value { .. })));
    let early = a.pump().expect("peek");
    assert!(!early, "the SET was answered before the GET behind it");
    let second = a.submit(&set(b"a2"), None);
    assert!(!a.pump().expect("send"), "the pipelined SET overtook");
    a.get_ref().set_nonblocking(false).unwrap();
    for ticket in [first, second] {
        a.wait().expect("recv");
        assert_eq!(a.answer().unwrap(), Some((ticket, Response::Done)));
    }
    assert_eq!(a.call(&Request::Shutdown).unwrap(), Response::Bye);
    let _ = handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Eight connections on one worker, one SET on each, driven by hand, and
/// a log whose syncer holds a group until it has eight records (its
/// 5 s linger is a watchdog no pass comes near). The pass that reads the
/// eight stages them all without waiting on a barrier, so the syncer
/// writes and fsyncs them together. No answer leaves before that fsync —
/// the first seven were staged before the group was full, so none of
/// them can be durable when its connection's turn in the pass ends — and
/// every answer leaves in the first pass after it. A worker that waited
/// out each barrier in turn would have answered all eight, one fsync
/// each, before this pass returned.
#[test]
fn writers_on_one_worker_share_an_fsync() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("durability-share-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = config(Mode::Gocc, Some(dir.clone()), SyncPolicy::Group);
    cfg.workers = 1;
    cfg.wal.fsync_batch_size = 8;
    cfg.wal.fsync_wait_us = 5_000_000;
    let state = ServerState::new(cfg).expect("state with a data dir");
    let wal = state.wal().expect("a data dir opens a log");
    let t0 = Instant::now();
    let mut w = Worker::new(&state, 0, t0);
    let mut conns: Vec<Hand> = (0..8).map(|_| Hand::new(&mut w, t0, LINK_BOUND)).collect();
    for (i, c) in conns.iter_mut().enumerate() {
        let key = format!("writer-{i}");
        c.client.submit(&set(key.as_bytes()), None);
        c.send();
    }
    let (durable0, appended0) = (wal.durable_lsn(), wal.appended());
    let (writes0, fsyncs0) = (wal.writes(), wal.fsyncs());
    w.pass(t0);
    for (i, c) in conns.iter_mut().take(7).enumerate() {
        assert!(!c.received(), "writer {i} answered before its fsync");
    }
    let waited = Instant::now();
    while wal.durable_lsn() < durable0 + 8 {
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "the eight never synced"
        );
        std::thread::yield_now();
    }
    let appended = wal.appended() - appended0;
    assert_eq!(
        (appended, wal.writes() - writes0, wal.fsyncs() - fsyncs0),
        (8, 1, 1),
        "the eight records went out in one append and one fsync"
    );
    w.pass(t0);
    for c in &mut conns {
        assert_eq!(c.answer(), Response::Done);
    }
    wal.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without `--data-dir` there is no log to flush: FLUSH stays a cheap
/// no-op answering LSN 0, and STATS reports `"wal": null`.
#[test]
fn flush_without_wal_is_vacuous() {
    let handle = spawn(config(Mode::Lock, None, SyncPolicy::Group)).expect("spawn");
    let mut c = connect(handle.port());
    assert_eq!(
        c.call(&Request::Flush).unwrap(),
        Response::Flushed { durable_lsn: 0 }
    );
    let Response::Stats { json } = c.call(&Request::Stats).unwrap() else {
        panic!("stats must answer");
    };
    let doc = JsonValue::parse(json).expect("stats JSON parses");
    assert!(
        matches!(doc.get("wal"), Some(JsonValue::Null)),
        "wal must be JSON null without a data dir"
    );
    assert_eq!(c.call(&Request::Shutdown).unwrap(), Response::Bye);
    let _ = handle.join();
}

/// Checkpointing compacts recovery: after enough writes the checkpoint
/// thread persists a snapshot, and a restart loads it instead of
/// replaying the whole history.
#[test]
fn checkpoint_bounds_replay_on_restart() {
    let dir = temp_dir("ckpt");
    let mut cfg = config(Mode::Gocc, Some(dir.clone()), SyncPolicy::Group);
    cfg.wal.checkpoint_every = 100;
    let handle = spawn(cfg.clone()).expect("spawn");
    let mut c = connect(handle.port());
    for i in 0..400u64 {
        let key = format!("k{}", i % 32);
        assert_eq!(
            c.call(&Request::Set {
                key: key.as_bytes(),
                value: i,
                ttl: 0
            })
            .unwrap(),
            Response::Done
        );
    }
    // Wait for the checkpoint thread to notice the trigger.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let Response::Stats { json } = c.call(&Request::Stats).unwrap() else {
            panic!("stats must answer");
        };
        let doc = JsonValue::parse(json).expect("stats JSON parses");
        let ckpts = doc
            .get("wal")
            .and_then(|w| w.get("checkpoints"))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        if ckpts >= 1.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no checkpoint after 400 writes with checkpoint_every=100"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(c.call(&Request::Shutdown).unwrap(), Response::Bye);
    let _ = handle.join();

    let handle = spawn(cfg).expect("respawn");
    let mut c = connect(handle.port());
    let Response::Stats { json } = c.call(&Request::Stats).unwrap() else {
        panic!("stats must answer");
    };
    let doc = JsonValue::parse(json).expect("stats JSON parses");
    let rec = doc
        .get("wal")
        .and_then(|w| w.get("recovery"))
        .expect("recovery object");
    assert!(
        matches!(rec.get("checkpoint_loaded"), Some(JsonValue::Bool(true))),
        "restart must boot from the checkpoint"
    );
    let replayed = rec
        .get("recovery_replayed")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!(
        replayed < 400.0,
        "checkpoint must truncate replay below full history, got {replayed}"
    );
    // Last write wins per key after checkpoint + tail replay.
    for k in 0..32u64 {
        let key = format!("k{k}");
        let want = (0..400).rev().find(|i| i % 32 == k).unwrap();
        assert_eq!(
            c.call(&Request::Get {
                key: key.as_bytes()
            })
            .unwrap(),
            Response::Value {
                found: true,
                value: want
            }
        );
    }
    assert_eq!(c.call(&Request::Shutdown).unwrap(), Response::Bye);
    let _ = handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
