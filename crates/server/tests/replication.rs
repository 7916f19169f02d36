//! End-to-end replication tests: a primary and a replica `goccd`, wired
//! over real sockets, with version-checked batch apply, snapshot resync
//! for late joiners, synchronous-ack gating, promotion, and lease-based
//! fencing.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gocc_server::{spawn, Mode, ServerConfig, ServerHandle};
use gocc_telemetry::JsonValue;
use gocc_wire::{decode_response, encode_request_v2, Pipe, ReplRequest, Request, Response};

mod common;
use common::connect;

fn stats(c: &mut Pipe<TcpStream>) -> JsonValue {
    match c.call(&Request::Stats).expect("call") {
        Response::Stats { json } => JsonValue::parse(json).expect("stats JSON parses"),
        other => panic!("expected Stats, got {other:?}"),
    }
}

/// REPL_PROMOTE over a fresh connection; its answer must be `Done`.
fn promote(port: u16, upstream: &[u8]) {
    let promote = Request::Repl(ReplRequest::Promote { upstream });
    assert_eq!(connect(port).call(&promote).expect("call"), Response::Done);
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gocc-repl-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn primary_config(mode: Mode) -> ServerConfig {
    ServerConfig {
        mode,
        port: 0,
        workers: 2,
        shards: 2,
        capacity_per_shard: 2048,
        repl_accept: true,
        ..ServerConfig::default()
    }
}

fn replica_config(mode: Mode, primary_port: u16) -> ServerConfig {
    ServerConfig {
        mode,
        port: 0,
        workers: 2,
        shards: 2,
        capacity_per_shard: 2048,
        replica_of: Some(format!("127.0.0.1:{primary_port}")),
        ..ServerConfig::default()
    }
}

/// Polls the replica until `key` reads back as `want`, or panics after
/// `deadline` — the bounded-staleness assertion.
fn await_value(replica: &mut Pipe<TcpStream>, key: &[u8], want: Response<'_>, deadline: Duration) {
    let until = Instant::now() + deadline;
    loop {
        let got = replica.call(&Request::Get { key }).unwrap();
        if got == want {
            return;
        }
        assert!(
            Instant::now() < until,
            "replica did not converge on {:?} within {:?} (last: {:?})",
            String::from_utf8_lossy(key),
            deadline,
            got,
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Polls the primary's STATS until a replica has subscribed, or panics
/// after 5 s.
fn await_subscriber(primary: &mut Pipe<TcpStream>) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let subs = stats(primary)
            .get("repl")
            .and_then(|repl| repl.get("subscribers"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        if subs >= 1.0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replica never subscribed to the primary"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn shutdown(handle: ServerHandle) {
    handle.request_shutdown();
    let _ = handle.join();
}

/// Writes stream from primary to replica; the replica serves them, and
/// redirects writes at the primary with a hint. Both execution modes.
#[test]
fn replica_follows_the_primary_and_redirects_writes() {
    for mode in [Mode::Lock, Mode::Gocc] {
        let primary = spawn(primary_config(mode)).expect("spawn primary");
        let replica = spawn(replica_config(mode, primary.port())).expect("spawn replica");
        let mut p = connect(primary.port());
        let mut r = connect(replica.port());
        // Writes made before the replica subscribes reach it as a
        // snapshot, and this test is about the incremental stream.
        await_subscriber(&mut p);

        for i in 0..100u64 {
            let key = format!("key-{i}");
            assert_eq!(
                p.call(&Request::Set {
                    key: key.as_bytes(),
                    value: i * 3,
                    ttl: 0
                })
                .unwrap(),
                Response::Done
            );
        }
        assert_eq!(
            p.call(&Request::Del { key: b"key-7" }).unwrap(),
            Response::Deleted { existed: true }
        );
        assert_eq!(
            p.call(&Request::Incr {
                key: b"ctr",
                delta: 9
            })
            .unwrap(),
            Response::Counter { value: 9 }
        );

        // Bounded staleness: the whole batch converges on the replica.
        await_value(
            &mut r,
            b"ctr",
            Response::Value {
                found: true,
                value: 9,
            },
            Duration::from_secs(5),
        );
        await_value(
            &mut r,
            b"key-7",
            Response::Value {
                found: false,
                value: 0,
            },
            Duration::from_secs(5),
        );
        for i in 0..100u64 {
            if i == 7 {
                continue;
            }
            let key = format!("key-{i}");
            await_value(
                &mut r,
                key.as_bytes(),
                Response::Value {
                    found: true,
                    value: i * 3,
                },
                Duration::from_secs(5),
            );
        }

        // Writes at the replica are redirected, with the primary's
        // address as the hint.
        let hint = format!("127.0.0.1:{}", primary.port());
        assert_eq!(
            r.call(&Request::Set {
                key: b"nope",
                value: 1,
                ttl: 0
            })
            .unwrap(),
            Response::NotPrimary { hint: &hint }
        );
        assert_eq!(
            r.call(&Request::Del { key: b"nope" }).unwrap(),
            Response::NotPrimary { hint: &hint }
        );

        // Roles and the repl object surface in STATS on both sides.
        let ps = stats(&mut p);
        assert_eq!(ps.get("role").unwrap().as_str(), Some("primary"));
        let repl = ps.get("repl").unwrap();
        assert_eq!(repl.get("role").unwrap().as_str(), Some("primary"));
        assert!(repl.get("batches_sent").unwrap().as_f64().unwrap() >= 1.0);
        let rs = stats(&mut r);
        assert_eq!(rs.get("role").unwrap().as_str(), Some("replica"));
        let repl = rs.get("repl").unwrap();
        assert_eq!(repl.get("upstream").unwrap().as_str(), Some(hint.as_str()));
        assert!(repl.get("batches_applied").unwrap().as_f64().unwrap() >= 1.0);

        shutdown(replica);
        shutdown(primary);
    }
}

/// A replica that joins after the primary already has state (here: a
/// WAL-backed primary, so the stream rides the durable tap) must catch
/// up via snapshot resync and then follow incrementally.
#[test]
fn late_replica_catches_up_via_snapshot_resync() {
    let dir = temp_dir("late-join");
    let mut config = primary_config(Mode::Gocc);
    config.data_dir = Some(dir.clone());
    config.wal.fsync_wait_us = 50;
    let primary = spawn(config).expect("spawn primary");
    let mut p = connect(primary.port());

    // State exists before any replica subscribes: the subscriber starts
    // behind and must resync from a live snapshot, not the stream.
    for i in 0..150u64 {
        let key = format!("pre-{i}");
        assert_eq!(
            p.call(&Request::Set {
                key: key.as_bytes(),
                value: i,
                ttl: 0
            })
            .unwrap(),
            Response::Done
        );
    }

    let replica = spawn(replica_config(Mode::Gocc, primary.port())).expect("spawn replica");
    let mut r = connect(replica.port());
    for i in [0u64, 73, 149] {
        let key = format!("pre-{i}");
        await_value(
            &mut r,
            key.as_bytes(),
            Response::Value {
                found: true,
                value: i,
            },
            Duration::from_secs(5),
        );
    }

    // And the stream keeps flowing after the resync.
    assert_eq!(
        p.call(&Request::Set {
            key: b"post",
            value: 424_242,
            ttl: 0
        })
        .unwrap(),
        Response::Done
    );
    await_value(
        &mut r,
        b"post",
        Response::Value {
            found: true,
            value: 424_242,
        },
        Duration::from_secs(5),
    );
    let rs = stats(&mut r);
    let resyncs = rs
        .get("repl")
        .unwrap()
        .get("snap_resyncs")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(resyncs >= 1.0, "late joiner must have snapshot-resynced");

    shutdown(replica);
    shutdown(primary);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With `min_acks: 1`, an acknowledged write is already applied on the
/// replica — reading it there immediately must succeed, no polling.
#[test]
fn synchronous_acks_are_immediately_readable_on_the_replica() {
    let mut config = primary_config(Mode::Gocc);
    config.repl_min_acks = 1;
    config.repl_lease = Duration::from_millis(500);
    config.repl_ack_timeout = Duration::from_secs(5);
    let primary = spawn(config).expect("spawn primary");
    let replica = spawn(replica_config(Mode::Gocc, primary.port())).expect("spawn replica");
    let mut p = connect(primary.port());
    let mut r = connect(replica.port());

    // With `min_acks: 1` the primary is fenced until the replica's
    // subscription lands — wait for the attach before asserting acks.
    await_subscriber(&mut p);

    for i in 0..50u64 {
        let key = format!("sync-{i}");
        assert_eq!(
            p.call(&Request::Set {
                key: key.as_bytes(),
                value: i + 1,
                ttl: 0
            })
            .unwrap(),
            Response::Done,
            "synchronous write must be acknowledged"
        );
        // No await: the ack implies the replica applied it.
        assert_eq!(
            r.call(&Request::Get {
                key: key.as_bytes()
            })
            .unwrap(),
            Response::Value {
                found: true,
                value: i + 1
            },
            "acked write missing on the replica — ack-before-apply bug"
        );
    }

    shutdown(replica);
    shutdown(primary);
}

/// Regression: with a single worker the writing client and the
/// replica's subscription are forced onto the same worker, which pumps
/// both. A `min_acks` write must still be acknowledged promptly: a worker
/// that blocked on the ack would starve the very batch it waits on, and
/// every write would time out until the lease falsely fenced the primary.
/// The write parks its response instead, and the worker goes on pumping
/// the replica's stream.
#[test]
fn synchronous_acks_survive_a_single_worker() {
    let mut config = primary_config(Mode::Gocc);
    config.workers = 1;
    config.repl_min_acks = 1;
    config.repl_lease = Duration::from_millis(500);
    config.repl_ack_timeout = Duration::from_secs(5);
    let primary = spawn(config).expect("spawn primary");
    let mut replica_cfg = replica_config(Mode::Gocc, primary.port());
    replica_cfg.workers = 1;
    let replica = spawn(replica_cfg).expect("spawn replica");
    let mut p = connect(primary.port());

    // Unfence: wait for the subscription to land and the first ack.
    let until = Instant::now() + Duration::from_secs(5);
    loop {
        let resp = p
            .call(&Request::Set {
                key: b"warm",
                value: 1,
                ttl: 0,
            })
            .unwrap();
        if resp == Response::Done {
            break;
        }
        assert!(Instant::now() < until, "primary never unfenced: {resp:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Every synchronous write must ack promptly — no repl_ack_timeout
    // stalls, no false fencing.
    for i in 0..50u64 {
        let key = format!("one-worker-{i}");
        let t0 = Instant::now();
        assert_eq!(
            p.call(&Request::Set {
                key: key.as_bytes(),
                value: i,
                ttl: 0
            })
            .unwrap(),
            Response::Done,
            "min_acks write must be acknowledged with workers=1"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "ack stalled — subscriber stream starved by the worker"
        );
    }

    shutdown(replica);
    shutdown(primary);
}

/// One frame off a blocking stream: its length, then its body.
fn recv(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let mut body = vec![0; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body)?;
    Ok(body)
}

fn send_ack(stream: &mut TcpStream, shard: u32, version: u64) {
    let mut frame = Vec::new();
    let ack = ReplRequest::Ack {
        shard,
        version,
        nak: false,
    };
    encode_request_v2(&Request::Repl(ack), None, &mut frame);
    stream.write_all(&frame).expect("send ack");
}

/// A replica played by hand on a raw subscription to a one-shard
/// primary. It acks every heartbeat at the version it has confirmed, and
/// reports each data batch's version instead of acking it: the test
/// decides when, and whether, a write replicates.
struct HandReplica {
    /// The stream's write half, and the version confirmed so far.
    acks: Arc<Mutex<(TcpStream, u64)>>,
    batches: Receiver<u64>,
    /// Reads the stream until the primary closes it.
    reader: JoinHandle<()>,
}

impl HandReplica {
    fn subscribe(port: u16) -> HandReplica {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        stream.set_nodelay(true).unwrap();
        let mut hello = Vec::new();
        let versions = vec![0];
        let subscribe = Request::Repl(ReplRequest::Hello { versions });
        encode_request_v2(&subscribe, None, &mut hello);
        stream.write_all(&hello).unwrap();
        let welcome = recv(&mut stream).expect("welcome");
        assert!(matches!(
            decode_response(&welcome),
            Ok(Response::ReplWelcome { shards: 1, .. })
        ));
        let acks = Arc::new(Mutex::new((stream.try_clone().unwrap(), 0)));
        let (tx, batches) = std::sync::mpsc::channel();
        let heartbeat_acks = Arc::clone(&acks);
        let reader = std::thread::spawn(move || {
            while let Ok(body) = recv(&mut stream) {
                if let Ok(Response::ReplBatch {
                    shard,
                    prev_version,
                    records,
                    ..
                }) = decode_response(&body)
                {
                    if records.is_empty() {
                        let (out, confirmed) = &mut *heartbeat_acks.lock().unwrap();
                        send_ack(out, shard, *confirmed);
                    } else {
                        let _ = tx.send(prev_version + records.len() as u64);
                    }
                }
            }
        });
        HandReplica {
            acks,
            batches,
            reader,
        }
    }

    /// The version the next data batch takes the shard to.
    fn next_batch(&self) -> u64 {
        self.batches
            .recv_timeout(Duration::from_secs(5))
            .expect("a data batch")
    }

    fn confirm(&self, version: u64) {
        let (out, confirmed) = &mut *self.acks.lock().unwrap();
        *confirmed = version;
        send_ack(out, 0, version);
    }
}

/// A `min_acks` write parks its response, not its worker. One worker
/// owns the writer, a reader and the replica's stream; the replica acks
/// heartbeats but withholds the write's version. A GET on the other
/// connection is answered meanwhile (a worker blocked on the ack would
/// answer it only after `repl_ack_timeout`); the ack releases the SET's
/// `Done`; and with no ack the SET gets the timeout error, with the
/// responses behind it in order.
#[test]
fn a_write_waiting_for_its_replica_parks_its_response_not_the_worker() {
    let ack_timeout = Duration::from_secs(1);
    let primary = spawn(ServerConfig {
        workers: 1,
        shards: 1,
        repl_min_acks: 1,
        repl_lease: Duration::from_secs(2),
        repl_ack_timeout: ack_timeout,
        ..primary_config(Mode::Gocc)
    })
    .expect("spawn primary");
    let replica = HandReplica::subscribe(primary.port());
    let mut writer = connect(primary.port());
    let mut reader = connect(primary.port());
    let set = |key: &'static [u8], value| Request::Set { key, value, ttl: 0 };

    writer.get_ref().set_nonblocking(true).unwrap();
    writer.submit(&set(b"k", 1), None);
    assert!(!writer.pump().unwrap());
    let version = replica.next_batch();
    let t0 = Instant::now();
    assert_eq!(
        reader.call(&Request::Get { key: b"k" }).unwrap(),
        Response::Value {
            found: true,
            value: 1
        }
    );
    let took = t0.elapsed();
    assert!(
        took < ack_timeout / 2,
        "a GET waited {took:?} behind a parked write"
    );
    assert!(
        !writer.pump().unwrap(),
        "the write was answered before its replica acked"
    );

    replica.confirm(version);
    writer.get_ref().set_nonblocking(false).unwrap();
    writer.wait().unwrap();
    assert_eq!(writer.answer().unwrap().expect("answer").1, Response::Done);

    let timed_out = Response::Error {
        message: "replication timed out: write not acknowledged",
    };
    let window = [
        (set(b"k2", 2), timed_out.clone()),
        (
            Request::Get { key: b"k2" },
            Response::Value {
                found: true,
                value: 2,
            },
        ),
        (set(b"k3", 3), timed_out),
        (
            Request::Get { key: b"k" },
            Response::Value {
                found: true,
                value: 1,
            },
        ),
    ];
    let t0 = Instant::now();
    for (req, _) in &window {
        writer.submit(req, None);
    }
    for (_, want) in window {
        writer.wait().unwrap();
        assert_eq!(writer.answer().unwrap().expect("answer").1, want);
    }
    assert!(t0.elapsed() >= ack_timeout);

    shutdown(primary);
    replica.reader.join().expect("replica reader");
}

/// REPL_PROMOTE with an empty upstream turns the replica into a primary:
/// role flips, writes are accepted, and the feed is re-based.
#[test]
fn promotion_turns_the_replica_into_a_writable_primary() {
    let primary = spawn(primary_config(Mode::Gocc)).expect("spawn primary");
    let replica = spawn(replica_config(Mode::Gocc, primary.port())).expect("spawn replica");
    let mut p = connect(primary.port());
    let mut r = connect(replica.port());

    assert_eq!(
        p.call(&Request::Set {
            key: b"before",
            value: 1,
            ttl: 0
        })
        .unwrap(),
        Response::Done
    );
    await_value(
        &mut r,
        b"before",
        Response::Value {
            found: true,
            value: 1,
        },
        Duration::from_secs(5),
    );

    // Writes rejected before promotion, accepted after.
    assert!(matches!(
        r.call(&Request::Set {
            key: b"after",
            value: 2,
            ttl: 0
        })
        .unwrap(),
        Response::NotPrimary { .. }
    ));
    promote(replica.port(), b"");
    assert_eq!(
        r.call(&Request::Set {
            key: b"after",
            value: 2,
            ttl: 0
        })
        .unwrap(),
        Response::Done
    );
    assert_eq!(
        r.call(&Request::Get { key: b"before" }).unwrap(),
        Response::Value {
            found: true,
            value: 1
        },
        "promotion must keep the replicated state"
    );
    assert_eq!(stats(&mut r).get("role").unwrap().as_str(), Some("primary"));

    shutdown(replica);
    shutdown(primary);
}

/// Lease fencing: a primary that requires an ack and has no live replica
/// rejects writes — at boot (no subscriber yet), then again after its
/// only replica goes away. In between, with the replica attached, writes
/// flow.
#[test]
fn fenced_primary_rejects_writes_without_live_replicas() {
    let mut config = primary_config(Mode::Gocc);
    config.repl_min_acks = 1;
    config.repl_lease = Duration::from_millis(200);
    config.repl_ack_timeout = Duration::from_secs(5);
    let primary = spawn(config).expect("spawn primary");
    let mut p = connect(primary.port());

    // No replica has ever connected: fenced from the start.
    assert!(
        matches!(
            p.call(&Request::Set {
                key: b"k",
                value: 1,
                ttl: 0
            })
            .unwrap(),
            Response::Error { .. }
        ),
        "write must be fenced with zero live replicas"
    );

    // Attach the replica; writes unfence once the stream acks.
    let replica = spawn(replica_config(Mode::Gocc, primary.port())).expect("spawn replica");
    let until = Instant::now() + Duration::from_secs(5);
    loop {
        let resp = p
            .call(&Request::Set {
                key: b"k",
                value: 2,
                ttl: 0,
            })
            .unwrap();
        if resp == Response::Done {
            break;
        }
        assert!(Instant::now() < until, "primary never unfenced: {resp:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Partition (here: kill) the only replica. Once the lease expires the
    // primary must stop acknowledging writes and say why.
    shutdown(replica);
    let until = Instant::now() + Duration::from_secs(5);
    loop {
        let resp = p
            .call(&Request::Set {
                key: b"k",
                value: 3,
                ttl: 0,
            })
            .unwrap();
        if matches!(resp, Response::Error { .. }) {
            break;
        }
        assert!(
            Instant::now() < until,
            "primary kept acking past the lease: {resp:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let fenced = stats(&mut p)
        .get("repl")
        .unwrap()
        .get("fenced_rejects")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(fenced >= 1.0, "fenced rejects must be counted");

    shutdown(primary);
}

/// Self-healing failover: when the primary dies, the replicas' failure
/// detectors fire, a quorum election runs, and exactly one replica
/// promotes itself — no operator REPL_PROMOTE anywhere. The loser is
/// repointed at the winner by the epoch announce and keeps following.
#[test]
fn auto_promotion_elects_exactly_one_new_primary() {
    let primary = spawn(primary_config(Mode::Gocc)).expect("spawn primary");
    let mut rc_a = replica_config(Mode::Gocc, primary.port());
    rc_a.repl_auto_promote = true;
    rc_a.repl_suspect = Duration::from_millis(200);
    rc_a.repl_seed = 41;
    let mut rc_b = replica_config(Mode::Gocc, primary.port());
    rc_b.repl_auto_promote = true;
    rc_b.repl_suspect = Duration::from_millis(200);
    rc_b.repl_seed = 42;
    let a = spawn(rc_a).expect("spawn replica a");
    let b = spawn(rc_b).expect("spawn replica b");
    // Electorate: the other replica plus the (soon dead) primary.
    a.state().set_repl_peers(vec![
        format!("127.0.0.1:{}", b.port()),
        format!("127.0.0.1:{}", primary.port()),
    ]);
    b.state().set_repl_peers(vec![
        format!("127.0.0.1:{}", a.port()),
        format!("127.0.0.1:{}", primary.port()),
    ]);

    let mut p = connect(primary.port());
    for i in 0..40u64 {
        let key = format!("pre-{i}");
        assert_eq!(
            p.call(&Request::Set {
                key: key.as_bytes(),
                value: i,
                ttl: 0
            })
            .unwrap(),
            Response::Done
        );
    }
    let mut ra = connect(a.port());
    let mut rb = connect(b.port());
    for r in [&mut ra, &mut rb] {
        await_value(
            r,
            b"pre-39",
            Response::Value {
                found: true,
                value: 39,
            },
            Duration::from_secs(5),
        );
    }

    // Kill the primary. No promote call follows.
    shutdown(primary);

    // Detection + election + promotion, all self-driven.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (winner, loser) = loop {
        let (pa, pb) = (!a.state().is_replica(), !b.state().is_replica());
        assert!(
            !(pa && pb),
            "split brain: both replicas promoted themselves"
        );
        if pa {
            break (&a, &b);
        }
        if pb {
            break (&b, &a);
        }
        assert!(
            Instant::now() < deadline,
            "no replica promoted itself within 10s"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(winner.state().epoch() >= 1, "promotion must bump the epoch");
    assert!(
        winner.state().repl_elections() >= 1,
        "the winner must have stood as a candidate"
    );

    // The winner takes writes; replicated history survived.
    let mut w = connect(winner.port());
    assert_eq!(
        w.call(&Request::Set {
            key: b"post-failover",
            value: 7,
            ttl: 0
        })
        .unwrap(),
        Response::Done
    );
    assert_eq!(
        w.call(&Request::Get { key: b"pre-17" }).unwrap(),
        Response::Value {
            found: true,
            value: 17
        },
        "acked pre-failover write lost across promotion"
    );

    // The loser was repointed by the announce (or a NotPrimary hint) and
    // keeps following the new primary.
    let want = format!("127.0.0.1:{}", winner.port());
    let deadline = Instant::now() + Duration::from_secs(5);
    while loser.state().upstream_hint() != want {
        assert!(
            Instant::now() < deadline,
            "loser never repointed at the winner (upstream {:?})",
            loser.state().upstream_hint()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut l = connect(loser.port());
    await_value(
        &mut l,
        b"post-failover",
        Response::Value {
            found: true,
            value: 7,
        },
        Duration::from_secs(5),
    );
    assert!(
        loser.state().is_replica(),
        "exactly one node may end up primary"
    );

    shutdown(b);
    shutdown(a);
}

/// Read-your-writes over the wire: `SET_S` hands back a version token,
/// `GET_S` with that floor answers `Behind` on a lagging copy and the
/// value once the floor is met. The primary satisfies its own acks
/// immediately.
#[test]
fn session_verbs_enforce_the_version_floor() {
    let primary = spawn(primary_config(Mode::Gocc)).expect("spawn primary");
    let replica = spawn(replica_config(Mode::Gocc, primary.port())).expect("spawn replica");
    let mut p = connect(primary.port());
    let mut r = connect(replica.port());

    let version = match p
        .call(&Request::SetS {
            key: b"ryw",
            value: 11,
            ttl: 0,
        })
        .unwrap()
    {
        Response::DoneAt { version, .. } => version,
        other => panic!("expected DoneAt, got {other:?}"),
    };
    assert!(version >= 1);

    // The acking node satisfies the floor at once.
    assert_eq!(
        p.call(&Request::GetS {
            key: b"ryw",
            min_version: version
        })
        .unwrap(),
        Response::Value {
            found: true,
            value: 11
        }
    );

    // An impossible floor answers Behind (with where the shard actually
    // is) rather than serving a possibly-stale value.
    assert!(matches!(
        r.call(&Request::GetS {
            key: b"ryw",
            min_version: u64::MAX
        })
        .unwrap(),
        Response::Behind { .. }
    ));

    // The real floor converges on the replica.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match r
            .call(&Request::GetS {
                key: b"ryw",
                min_version: version,
            })
            .unwrap()
        {
            Response::Value { found: true, value } => {
                assert_eq!(value, 11);
                break;
            }
            Response::Behind { .. } => {
                assert!(Instant::now() < deadline, "replica never met the floor");
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("unexpected session-read answer: {other:?}"),
        }
    }

    // SET_S is a write: replicas redirect it like SET.
    assert!(matches!(
        r.call(&Request::SetS {
            key: b"ryw",
            value: 12,
            ttl: 0
        })
        .unwrap(),
        Response::NotPrimary { .. }
    ));

    shutdown(replica);
    shutdown(primary);
}

/// Replica-side durable WAL: with `min_acks: 1` and a replica running
/// with a data dir, every acknowledged write is on the replica's disk —
/// restarting from that directory alone (as a standalone primary, the
/// post-failover shape) serves the full acked history.
#[test]
fn replica_wal_makes_acked_writes_survive_a_replica_restart() {
    let dir = temp_dir("replica-wal");
    let mut pc = primary_config(Mode::Gocc);
    pc.repl_min_acks = 1;
    pc.repl_lease = Duration::from_millis(500);
    pc.repl_ack_timeout = Duration::from_secs(5);
    let primary = spawn(pc).expect("spawn primary");
    let mut rc = replica_config(Mode::Gocc, primary.port());
    rc.data_dir = Some(dir.clone());
    let replica = spawn(rc).expect("spawn replica");
    let mut p = connect(primary.port());

    // Wait out the boot fence, then write the acked history.
    let until = Instant::now() + Duration::from_secs(5);
    loop {
        let resp = p
            .call(&Request::Set {
                key: b"durable-0",
                value: 0,
                ttl: 0,
            })
            .unwrap();
        if resp == Response::Done {
            break;
        }
        assert!(Instant::now() < until, "primary never unfenced: {resp:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    for i in 1..120u64 {
        let key = format!("durable-{i}");
        assert_eq!(
            p.call(&Request::Set {
                key: key.as_bytes(),
                value: i * 7,
                ttl: 0
            })
            .unwrap(),
            Response::Done,
            "acked write {i}"
        );
    }

    // The ack contract: everything above is already in the replica's WAL.
    // Restart from the directory alone, as a standalone primary.
    shutdown(replica);
    shutdown(primary);
    let reborn = spawn(ServerConfig {
        mode: Mode::Gocc,
        port: 0,
        workers: 2,
        shards: 2,
        capacity_per_shard: 2048,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("respawn from the replica's data dir");
    let mut c = connect(reborn.port());
    for i in [0u64, 1, 59, 119] {
        let key = format!("durable-{i}");
        assert_eq!(
            c.call(&Request::Get {
                key: key.as_bytes()
            })
            .unwrap(),
            Response::Value {
                found: true,
                value: i * 7
            },
            "acked write durable-{i} missing after replica restart"
        );
    }
    shutdown(reborn);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hostile upstream that hangs up mid-handshake (accept, then close)
/// must not kill the replica: it degrades to retry-with-backoff, keeps
/// serving reads, and converges once repointed at a real primary.
#[test]
fn replica_survives_mid_handshake_hangups_and_recovers() {
    // A listener that accepts and immediately drops every connection:
    // the replica's HELLO never gets an answer.
    let hangup = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let hangup_port = hangup.local_addr().unwrap().port();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = stop.clone();
    hangup.set_nonblocking(true).unwrap();
    let hangup_thread = std::thread::spawn(move || {
        while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
            match hangup.accept() {
                Ok((s, _)) => drop(s),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    });

    let replica = spawn(replica_config(Mode::Gocc, hangup_port)).expect("spawn replica");
    let mut r = connect(replica.port());

    // Let it eat several hangups, then prove it is alive and degraded,
    // not dead: reads answer, and the reconnect counter is climbing.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reconnects = stats(&mut r)
            .get("repl")
            .unwrap()
            .get("reconnects")
            .unwrap()
            .as_f64()
            .unwrap();
        if reconnects >= 3.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replica stopped retrying after hangups (reconnects {reconnects})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        r.call(&Request::Get { key: b"missing" }).unwrap(),
        Response::Value {
            found: false,
            value: 0
        },
        "a degraded replica must still serve reads"
    );

    // Repoint at a real primary: the sink must recover on the next dial.
    let primary = spawn(primary_config(Mode::Gocc)).expect("spawn primary");
    let upstream = format!("127.0.0.1:{}", primary.port());
    promote(replica.port(), upstream.as_bytes());
    let mut p = connect(primary.port());
    assert_eq!(
        p.call(&Request::Set {
            key: b"recovered",
            value: 5,
            ttl: 0
        })
        .unwrap(),
        Response::Done
    );
    await_value(
        &mut r,
        b"recovered",
        Response::Value {
            found: true,
            value: 5,
        },
        Duration::from_secs(5),
    );

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    hangup_thread.join().unwrap();
    shutdown(primary);
    shutdown(replica);
}
