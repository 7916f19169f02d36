//! The idle wait, end to end: a worker or acceptor with nothing to do
//! blocks on its sockets and its waker, and everything that used to be
//! noticed by waking every 200 µs — a request, a dispatched connection,
//! shutdown, a slow client's eviction deadline, brownout recovery, a
//! replica stream's heartbeat — is still noticed. A worker that keeps a
//! cadence instead waits in the same call, on its waker alone until the
//! next tick: that wait lasts what it says, and the ticks come one per
//! `IDLE_PASS` whatever each wake-up and pass took.
//!
//! Thread accounting comes from `/proc/self/task/*` by thread name, as
//! `benchmark/src/procfs.rs` reads it, so the tests take turns: two live
//! servers in this process would both own a `goccd-worker-0`.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gocc_server::idle::{self, IDLE_PASS};
use gocc_server::{spawn, BrownoutConfig, HealthState, ServerConfig, ServerHandle};
use gocc_wire::{decode_response, encode_request_v2, Pipe, ReplRequest, Request, Response};

mod common;
use common::connect;

static ONE_SERVER_AT_A_TIME: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    ONE_SERVER_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        shards: 2,
        capacity_per_shard: 1024,
        ..ServerConfig::default()
    }
}

fn set(c: &mut Pipe<TcpStream>, key: &[u8], value: u64) {
    let req = Request::Set { key, value, ttl: 0 };
    assert_eq!(c.call(&req).expect("call"), Response::Done);
}

fn get<'c>(c: &'c mut Pipe<TcpStream>, key: &[u8]) -> Response<'c> {
    c.call(&Request::Get { key }).expect("call")
}

/// Writes `reqs` in one go, then waits for every answer.
fn burst(c: &mut Pipe<TcpStream>, reqs: &[Request<'_>]) {
    for req in reqs {
        c.submit(req, None);
    }
    for _ in reqs {
        c.wait().expect("recv");
        c.answer().expect("answer");
    }
}

/// The `/proc/self/task` directories of every thread the server in this
/// process started, with their names.
fn server_threads() -> Vec<(String, std::path::PathBuf)> {
    let mut threads: Vec<_> = fs::read_dir("/proc/self/task")
        .expect("procfs")
        .flatten()
        .map(|task| {
            let dir = task.path();
            let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
            (comm.trim_end().to_string(), dir)
        })
        .filter(|(comm, _)| comm.starts_with("goccd-"))
        .collect();
    threads.sort();
    threads
}

/// Voluntary context switches of one thread: its wake-ups.
fn switches(dir: &std::path::Path) -> u64 {
    let status = fs::read_to_string(dir.join("status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("voluntary_ctxt_switches")
}

/// Voluntary context switches and CPU nanoseconds, summed over every
/// thread the server in this process started: the workers and the
/// acceptor.
fn server_thread_use() -> (u64, u64) {
    let (mut wakeups, mut cpu_ns) = (0, 0);
    for (_, dir) in server_threads() {
        wakeups += switches(&dir);
        let schedstat = fs::read_to_string(dir.join("schedstat")).unwrap_or_default();
        cpu_ns += schedstat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .expect("schedstat");
    }
    (wakeups, cpu_ns)
}

/// `(idle_blocks, coalesce_sleeps)` of worker 0 once it has stopped
/// taking passes, i.e. once it blocks: neither count moved in 10 ms, and
/// no server thread ran in them (one long pass moves no count either).
fn settled_idle_counts(handle: &ServerHandle) -> (u64, u64) {
    let read = || {
        let g = &handle.state().counters().per_worker()[0];
        let cpu_ns = server_thread_use().1;
        ((g.idle_blocks(), g.coalesce_sleeps()), cpu_ns)
    };
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut last = read();
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let now = read();
        if now == last {
            return now.0;
        }
        assert!(Instant::now() < deadline, "worker 0 never came to rest");
        last = now;
    }
}

fn shut_down(handle: ServerHandle) -> gocc_server::ServerSummary {
    handle.request_shutdown();
    handle.join()
}

#[test]
fn an_idle_server_with_an_open_connection_stays_asleep() {
    let _turn = take_turn();
    // `repl_accept` adds no thread: a replica's stream would be pumped by
    // the worker that accepts it.
    for repl_accept in [false, true] {
        let handle = spawn(ServerConfig {
            repl_accept,
            ..config(1)
        })
        .expect("spawn");
        let mut c = connect(handle.port());
        set(&mut c, b"k", 1);
        settled_idle_counts(&handle);
        let names: Vec<String> = server_threads().into_iter().map(|(name, _)| name).collect();
        assert_eq!(
            names,
            ["goccd-acceptor", "goccd-worker-0"],
            "repl_accept={repl_accept}"
        );
        let (switches0, cpu0) = server_thread_use();
        std::thread::sleep(Duration::from_millis(300));
        let (switches1, cpu1) = server_thread_use();
        // A 200 µs poll-and-sleep made about 1 300 here, per thread that
        // kept one.
        assert!(
            switches1 - switches0 < 20,
            "repl_accept={repl_accept}: {} voluntary switches in 300 ms of idleness",
            switches1 - switches0
        );
        assert!(cpu1 - cpu0 < 20_000_000, "idle threads burned CPU");
        // Still there, still serving.
        assert_eq!(
            get(&mut c, b"k"),
            Response::Value {
                found: true,
                value: 1
            }
        );
        shut_down(handle);
    }
}

/// A replica's end of one stream, raw: subscribes at version 0, then
/// acks every batch it is sent, heartbeats included, until the server
/// closes the stream.
fn acking_subscriber(port: u16, shards: usize) -> std::thread::JoinHandle<()> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    std::thread::spawn(move || {
        let mut frame = Vec::new();
        let hello = ReplRequest::Hello {
            versions: vec![0; shards],
        };
        encode_request_v2(&Request::Repl(hello), None, &mut frame);
        let mut alive = stream.write_all(&frame).is_ok();
        let mut len = [0u8; 4];
        while alive && stream.read_exact(&mut len).is_ok() {
            let mut body = vec![0; u32::from_le_bytes(len) as usize];
            if stream.read_exact(&mut body).is_err() {
                return;
            }
            let Ok(Response::ReplBatch {
                shard,
                prev_version,
                records,
                ..
            }) = decode_response(&body)
            else {
                continue;
            };
            let version = prev_version + records.len() as u64;
            frame.clear();
            let nak = false;
            let ack = ReplRequest::Ack {
                shard,
                version,
                nak,
            };
            encode_request_v2(&Request::Repl(ack), None, &mut frame);
            alive = stream.write_all(&frame).is_ok();
        }
    })
}

#[test]
fn subscribed_workers_wake_for_heartbeats_and_acks_only() {
    let _turn = take_turn();
    let dir = std::env::temp_dir().join(format!("gocc-census-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut cfg = ServerConfig {
        repl_accept: true,
        data_dir: Some(dir.clone()),
        ..config(2)
    };
    cfg.wal.checkpoint_every = 100;
    let handle = spawn(cfg).expect("spawn");
    let feed = handle.state().repl_feed().expect("feed");
    let subscribers: Vec<_> = (0..2)
        .map(|_| acking_subscriber(handle.port(), 2))
        .collect();
    let t0 = Instant::now();
    while feed.counters().acks() < 4 {
        assert!(t0.elapsed() < Duration::from_secs(5), "no acks came");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(feed.subscriber_count(), 2);
    // A heartbeat every `repl_lease / 4` (125 ms) per stream and shard,
    // and the acks that answer them: tens a second per worker. Taking a
    // pass every `IDLE_PASS` for a stream made ≈ 5 000 a second per
    // subscribed worker.
    let census = || -> Vec<(String, u64)> {
        let threads = server_threads().into_iter();
        threads.map(|(name, dir)| (name, switches(&dir))).collect()
    };
    let before = census();
    std::thread::sleep(Duration::from_secs(1));
    let after = census();
    let per_thread: Vec<(String, u64)> = before
        .iter()
        .zip(&after)
        .map(|((name, a), (_, b))| (name.clone(), b - a))
        .collect();
    println!("wake-ups in 1 s, two idle acking subscribers: {per_thread:?}");
    let of = |prefix: &str| -> u64 {
        let named = per_thread
            .iter()
            .filter(|(name, _)| name.starts_with(prefix));
        named.map(|(_, n)| n).sum()
    };
    // `comm` keeps 15 bytes: "goccd-checkpoin".
    assert!(per_thread
        .iter()
        .any(|(name, _)| name.starts_with("goccd-check")));
    assert!(of("goccd-worker-") < 200, "{per_thread:?}");
    assert!(of("goccd-check") < 5, "{per_thread:?}");
    assert!(of("goccd-acceptor") < 5, "{per_thread:?}");
    // Shutdown closes the streams, which ends the subscribers.
    shut_down(handle);
    for s in subscribers {
        s.join().expect("subscriber");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_idle_replica_sink_wakes_for_its_upstreams_heartbeats() {
    let _turn = take_turn();
    // With auto-promotion the sink's wait ends at the suspect deadline
    // too, which the heartbeats keep pushing back.
    for repl_auto_promote in [false, true] {
        let primary = spawn(ServerConfig {
            repl_accept: true,
            ..config(1)
        })
        .expect("spawn primary");
        let replica = spawn(ServerConfig {
            replica_of: Some(format!("127.0.0.1:{}", primary.port())),
            repl_auto_promote,
            ..config(1)
        })
        .expect("spawn replica");
        let feed = primary.state().repl_feed().expect("feed");
        let t0 = Instant::now();
        while feed.counters().acks() < 4 {
            assert!(t0.elapsed() < Duration::from_secs(5), "no acks came");
            std::thread::sleep(Duration::from_millis(10));
        }
        let (_, sink) = server_threads()
            .into_iter()
            .find(|(name, _)| name == "goccd-replica")
            .expect("the replica's sink thread");
        let window = Duration::from_secs(2);
        let before = switches(&sink);
        std::thread::sleep(window);
        let woken = switches(&sink) - before;
        // One heartbeat write per `repl_lease / 4`, both shards' beats in
        // it: 16 in the window. Reading with a 50 ms timeout, the sink
        // woke 46–48 times.
        let beat = ServerConfig::default().repl_lease / 4;
        let beats = window.as_millis() / beat.as_millis();
        println!("auto_promote={repl_auto_promote}: the sink woke {woken} times for {beats} beats");
        assert!(
            u128::from(woken) <= beats * 3 / 2,
            "auto_promote={repl_auto_promote}: {woken} wake-ups for {beats} heartbeats in {window:?}"
        );
        shut_down(replica);
        shut_down(primary);
    }
}

#[test]
fn a_request_and_a_new_connection_wake_blocked_workers() {
    let _turn = take_turn();
    let handle = spawn(config(2)).expect("spawn");
    let mut first = connect(handle.port());
    set(&mut first, b"k", 7);
    std::thread::sleep(Duration::from_millis(100));
    let workers = handle.state().counters().per_worker();
    assert!(workers[0].idle_blocks() >= 1, "worker 0 is not blocked");
    assert!(workers[1].idle_blocks() >= 1, "worker 1 is not blocked");
    assert_eq!(workers[1].executed(), 0);

    // Worker 0 is woken by its socket…
    let t0 = Instant::now();
    assert_eq!(
        get(&mut first, b"k"),
        Response::Value {
            found: true,
            value: 7
        }
    );
    // …the acceptor by its listener, and worker 1 — which owns no socket
    // at all yet — by the acceptor.
    let mut second = connect(handle.port());
    assert_eq!(
        get(&mut second, b"k"),
        Response::Value {
            found: true,
            value: 7
        }
    );
    assert!(t0.elapsed() < Duration::from_secs(1));
    assert_eq!(workers[1].executed(), 1, "round-robin dispatch");
    let summary = shut_down(handle);
    assert_eq!(summary.conns_accepted, 2);
}

extern "C" {
    fn setsockopt(
        fd: std::ffi::c_int,
        level: std::ffi::c_int,
        name: std::ffi::c_int,
        value: *const std::ffi::c_void,
        len: u32,
    ) -> std::ffi::c_int;
}

/// A client connection whose receive buffer stays at 64 KiB. Left alone,
/// Linux grows the buffer of a socket nobody reads towards `tcp_rmem`'s
/// 32 MiB a window probe at a time, and each such trickle counts as write
/// progress on the server: the client would be slow, but not stalled.
fn connect_with_fixed_receive_buffer(port: u16) -> TcpStream {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: std::ffi::c_int = 1;
    const SO_RCVBUF: std::ffi::c_int = 8;
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let bytes: std::ffi::c_int = 32 * 1024; // the kernel doubles it
                                            // SAFETY: `stream` is an open socket for the whole call, and `value`
                                            // points to a live `c_int` of the length passed.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            std::ptr::from_ref(&bytes).cast(),
            std::mem::size_of_val(&bytes) as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
    stream
}

/// Joins `handle` and returns how long that took.
fn timed_join(handle: ServerHandle) -> Duration {
    let t0 = Instant::now();
    let summary = handle.join();
    assert_eq!(summary.conns_closed, summary.conns_accepted);
    t0.elapsed()
}

#[test]
fn shutdown_reaches_every_blocked_thread_by_handle_and_by_verb() {
    let _turn = take_turn();
    let drain_timeout = ServerConfig::default().drain_timeout;

    let handle = spawn(config(2)).expect("spawn");
    let mut c = connect(handle.port());
    set(&mut c, b"k", 1);
    settled_idle_counts(&handle);
    handle.request_shutdown();
    let took = timed_join(handle);
    assert!(
        took < drain_timeout,
        "join after request_shutdown: {took:?}"
    );

    // The verb is handled by worker 0; worker 1 and the acceptor own no
    // socket the client touched and have to be woken.
    let handle = spawn(config(2)).expect("spawn");
    let mut c = connect(handle.port());
    set(&mut c, b"k", 1);
    settled_idle_counts(&handle);
    assert_eq!(c.call(&Request::Shutdown).unwrap(), Response::Bye);
    let took = timed_join(handle);
    assert!(took < drain_timeout, "join after SHUTDOWN: {took:?}");
}

/// A SCAN answers at most 4 096 entries of 16 bytes: 64 KiB.
const KEYS: u32 = gocc_wire::MAX_SCAN;

/// A server for clients that stop reading, loaded with `KEYS` keys.
fn spawn_for_scans(config: ServerConfig) -> ServerHandle {
    let handle = spawn(ServerConfig {
        capacity_per_shard: 1 << 14,
        // Expensive verbs are shed past half of this in one pump pass.
        queue_limit: 1024,
        ..config
    })
    .expect("spawn");
    let mut loader = connect(handle.port());
    for chunk in (0..KEYS).collect::<Vec<_>>().chunks(100) {
        let keys: Vec<String> = chunk.iter().map(|i| format!("key-{i}")).collect();
        let sets: Vec<Request<'_>> = keys
            .iter()
            .zip(chunk)
            .map(|(key, i)| Request::Set {
                key: key.as_bytes(),
                value: u64::from(*i),
                ttl: 0,
            })
            .collect();
        burst(&mut loader, &sets);
    }
    handle
}

/// 80 full SCANs: 5 MiB of answers against a send buffer of at most 4.
fn scans() -> Vec<u8> {
    let mut scans = Vec::new();
    for _ in 0..80 {
        encode_request_v2(&Request::Scan { limit: KEYS }, None, &mut scans);
    }
    scans
}

#[test]
fn a_stalled_client_is_waited_for_without_spinning_and_still_evicted() {
    let _turn = take_turn();
    let write_timeout = Duration::from_millis(400);
    let handle = spawn_for_scans(ServerConfig {
        write_timeout,
        ..config(1)
    });
    let port = handle.port();
    let scans = scans();
    // `stalled` just stops reading. `closing` also sends a frame that
    // costs it the connection and then more bytes: the server stops
    // reading it, so its socket stays readable for as long as its queued
    // answers cannot be flushed.
    let mut stalled = connect_with_fixed_receive_buffer(port);
    stalled.write_all(&scans).expect("send");
    let mut closing = connect_with_fixed_receive_buffer(port);
    closing.write_all(&scans).expect("send");
    let mut garbage = 5u32.to_le_bytes().to_vec();
    garbage.extend_from_slice(&[0x7E, 1, 2, 3, 4]); // unknown opcode
    closing.write_all(&garbage).expect("send");
    closing.write_all(&scans).expect("send");
    let sent = Instant::now();

    // No other traffic from here on. Once the worker has executed the
    // SCANs and queued what the sockets take, it must sleep until the
    // first eviction deadline, not poll for it.
    let counters = handle.state().counters();
    let worker = &counters.per_worker()[0];
    while counters.malformed() < 1 || worker.executed() < u64::from(KEYS) + 160 {
        assert!(sent.elapsed() < Duration::from_secs(5), "SCANs never ran");
        std::thread::sleep(Duration::from_millis(5));
    }
    settled_idle_counts(&handle);
    let queued = Instant::now();
    let (switches0, cpu0) = server_thread_use();
    std::thread::sleep(Duration::from_millis(200));
    let (switches1, cpu1) = server_thread_use();
    assert!(
        cpu1 - cpu0 < 20_000_000 && switches1 - switches0 < 20,
        "waiting out two stalled clients took {} µs CPU and {} wake-ups in 200 ms",
        (cpu1 - cpu0) / 1000,
        switches1 - switches0
    );
    // Neither socket has taken a byte since before `queued`, and both
    // were opened after `sent`.
    if sent.elapsed() < write_timeout {
        assert_eq!(counters.slow_drops(), 0, "evicted early");
    }
    // A stalled client goes `write_timeout` after its last byte went out.
    // That byte can be later than `queued`: a send buffer the kernel grew
    // a little takes bytes without ever polling writable, the worker finds
    // out when it looks at a deadline, and that connection's clock rightly
    // restarts there. The buffer has a limit, so this happens a few times
    // at most; what must not happen is a worker asleep with no deadline.
    let limit = 4 * write_timeout + Duration::from_millis(500);
    while counters.slow_drops() < 2 {
        assert!(
            queued.elapsed() < limit,
            "{} of 2 stalled clients evicted after {:?}",
            counters.slow_drops(),
            queued.elapsed()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let summary = shut_down(handle);
    assert_eq!(summary.slow_client_drops, 2);
}

#[test]
fn a_peer_reset_during_the_shutdown_drain_does_not_hold_up_join() {
    let _turn = take_turn();
    let drain_timeout = Duration::from_secs(2);
    let handle = spawn_for_scans(ServerConfig {
        drain_timeout,
        ..config(1)
    });
    let mut stalled = connect_with_fixed_receive_buffer(handle.port());
    stalled.write_all(&scans()).expect("send");
    let worker = &handle.state().counters().per_worker()[0];
    let t0 = Instant::now();
    while worker.executed() < u64::from(KEYS) + 80 {
        assert!(t0.elapsed() < Duration::from_secs(5), "SCANs never ran");
        std::thread::sleep(Duration::from_millis(5));
    }
    settled_idle_counts(&handle);
    // The worker drains the answers the client will not take… (had it
    // not started by the reset below, its pump would close the
    // connection instead, just as quickly)
    handle.request_shutdown();
    std::thread::sleep(Duration::from_millis(50));
    // …until the client goes: closing a socket with unread bytes resets
    // the connection, and a write to it fails from then on.
    drop(stalled);
    let took = timed_join(handle);
    assert!(
        took < drain_timeout / 4,
        "join waited {took:?} for a peer that reset"
    );
}

/// `n` waits of `timeout` on a waker nobody wakes, shortest first, taken
/// on a thread of its own that first asked for exact timers, or did not.
fn timed_waits(exact: bool, timeout: Duration, n: usize) -> Vec<Duration> {
    std::thread::spawn(move || {
        if exact {
            idle::exact_timers();
        }
        let waker = idle::Waker::new().expect("socket pair");
        let mut set = idle::PollSet::default();
        let mut took: Vec<Duration> = (0..n)
            .map(|_| {
                let t0 = Instant::now();
                idle::wait(&waker, &mut set, Some(timeout));
                t0.elapsed()
            })
            .collect();
        took.sort();
        took
    })
    .join()
    .expect("timing thread")
}

#[test]
fn a_timed_pass_lasts_what_it_says() {
    let _turn = take_turn();
    // A thread's default timer slack is 50 µs, and a wait of `IDLE_PASS`
    // ended that much late on top of the wake-up, which is this box's to
    // charge (15 µs in a good phase, 40 in a bad one). So the bar is set
    // against a thread that kept the slack, measured alongside: at least
    // half of it must be gone. A round another process disturbed is taken
    // again.
    let mut rounds = Vec::new();
    let won = (0..5).any(|_| {
        let slack = timed_waits(false, IDLE_PASS, 200)[100];
        let exact = timed_waits(true, IDLE_PASS, 200)[100];
        rounds.push((exact, slack));
        exact >= IDLE_PASS && exact + Duration::from_micros(25) <= slack
    });
    println!("median wait of {IDLE_PASS:?}, (exact timers, default slack): {rounds:?}");
    assert!(won, "a timed pass is as late as with the slack: {rounds:?}");
    // `poll(2)` counted in milliseconds: 300 µs were rounded up to one.
    let sub_ms = timed_waits(true, Duration::from_micros(300), 21);
    println!("shortest of 21 waits of 300 µs: {:?}", sub_ms[0]);
    assert!(
        sub_ms[0] >= Duration::from_micros(300) && sub_ms[0] < Duration::from_micros(700),
        "waits of 300 µs took {sub_ms:?}"
    );
}

/// How late each of 50 ticked waits on a thread with exact timers ended,
/// a pass of 20 µs behind each, against the grid of a cadence that
/// started with the first: the k-th is due `k × IDLE_PASS` after it.
fn fifty_ticked_passes() -> Vec<i64> {
    std::thread::spawn(move || {
        idle::exact_timers();
        let waker = idle::Waker::new().expect("socket pair");
        let mut set = idle::PollSet::default();
        let mut tick = idle::Tick::default();
        let t0 = Instant::now();
        let mut now = t0;
        (1..=50)
            .map(|k| {
                idle::wait(&waker, &mut set, Some(tick.timeout(now)));
                let late = (t0.elapsed() - k * IDLE_PASS).as_nanos() as i64;
                let pass = Instant::now();
                while pass.elapsed() < Duration::from_micros(20) {
                    std::hint::spin_loop();
                }
                now = Instant::now();
                late
            })
            .collect()
    })
    .join()
    .expect("timing thread")
}

fn median(mut v: Vec<i64>) -> i64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// How far a run's lateness crept from its first ten waits to its last
/// ten, not counting the steps where it jumped by half a period or more
/// either way: a thread held off the CPU for that long is late once (and
/// early against that the wait after), or restarts its cadence later,
/// neither of which a wake-up's cost or a drifting tick can do.
fn drift(late: &[i64]) -> i64 {
    let jump = (IDLE_PASS / 2).as_nanos() as i64;
    let mut crept = vec![0];
    for step in late.windows(2).map(|w| w[1] - w[0]) {
        let last = crept[crept.len() - 1];
        crept.push(if step.abs() < jump { last + step } else { last });
    }
    median(crept[40..].to_vec()) - median(crept[..10].to_vec())
}

#[test]
fn timed_passes_keep_a_cadence() {
    let _turn = take_turn();
    // Every wake-up is late by what this box charges for one (5 µs in a
    // quiet phase, 40 in a bad one), and then the pass takes its time.
    // Waits that each start when the pass before ended add both up, one
    // period after the other; waits that end at the next tick pay them
    // once, and stay as late against the grid at the 50th as at the
    // first. So the bar is the run's own drift — whatever a wake-up
    // costs. A round this box disturbed anyway is taken again.
    let mut rounds = Vec::new();
    let won = (0..5).any(|_| {
        let late = fifty_ticked_passes();
        assert!(late.iter().all(|&ns| ns >= 0), "ticks came early: {late:?}");
        let drift = drift(&late);
        rounds.push(drift / 1000);
        drift < (IDLE_PASS / 4).as_nanos() as i64
    });
    println!("50 ticked passes, drift in µs per round: {rounds:?}");
    assert!(won, "ticked waits drift like relative ones: {rounds:?} µs");
}

#[test]
fn a_timed_pass_ends_for_a_dispatched_connection_and_for_shutdown() {
    let _turn = take_turn();
    let drain_timeout = ServerConfig::default().drain_timeout;
    let handle = spawn(ServerConfig {
        brownout: BrownoutConfig {
            // Whatever leaves `Healthy` never comes back.
            recover_obs: u32::MAX,
            ..BrownoutConfig::default()
        },
        ..config(1)
    })
    .expect("spawn");
    let mut first = connect(handle.port());
    set(&mut first, b"k", 3);
    let brownout = handle.state().brownout();
    brownout.observe(1e9, 0.0);
    assert_eq!(brownout.state(), HealthState::Degraded);

    // The worker blocked before the state moved; one request gets it to
    // its next idle decision, and from there it only takes timed passes
    // (which escalate once more: reads are still served).
    get(&mut first, b"k");
    let worker = &handle.state().counters().per_worker()[0];
    let (blocks0, timed0) = (worker.idle_blocks(), worker.coalesce_sleeps());
    std::thread::sleep(Duration::from_millis(20));
    assert!(worker.coalesce_sleeps() > timed0, "no timed pass in 20 ms");

    // A timed pass watches no socket; what ends it early is the waker,
    // which is how this connection reaches the worker at all.
    let mut second = connect(handle.port());
    assert_eq!(
        get(&mut second, b"k"),
        Response::Value {
            found: true,
            value: 3
        }
    );
    assert_eq!(worker.idle_blocks(), blocks0, "the worker blocked");
    assert_ne!(brownout.state(), HealthState::Healthy);

    handle.request_shutdown();
    let took = timed_join(handle);
    assert!(took < drain_timeout, "join out of a timed pass: {took:?}");
}

#[test]
fn brownout_recovers_without_traffic() {
    let _turn = take_turn();
    let handle = spawn(ServerConfig {
        brownout: BrownoutConfig {
            alpha: 0.5,
            depth_high: 8.0,
            depth_low: 2.0,
            recover_obs: 3,
            ..BrownoutConfig::default()
        },
        ..config(1)
    })
    .expect("spawn");
    let mut c = connect(handle.port());
    set(&mut c, b"k", 1);
    settled_idle_counts(&handle);

    // One 64-deep burst is two hot observations (64, then 32 from the
    // idle pass behind it): Healthy → Degraded → Shedding.
    burst(&mut c, &vec![Request::Get { key: b"k" }; 64]);
    // Nothing is sent from here on: only the worker's own idle passes can
    // decay the averages, so it must keep taking them until Healthy.
    let brownout = handle.state().brownout();
    let t0 = Instant::now();
    let shedding_seen = |b: &gocc_server::BrownoutController| b.transitions()[1] >= 1;
    while !shedding_seen(brownout) || brownout.state() != HealthState::Healthy {
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "{:?} with edges {:?} after {:?} (the poll-and-sleep loop took ~5 ms)",
            brownout.state(),
            brownout.transitions(),
            t0.elapsed()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let edges = brownout.transitions();
    assert!(
        edges.iter().all(|&n| n >= 1),
        "the burst must reach Shedding and walk all the way back: {edges:?}"
    );
    // Healthy again, it goes back to sleep.
    let (blocks, _) = settled_idle_counts(&handle);
    assert!(blocks >= 2);
    shut_down(handle);
}

#[test]
fn sparse_bursts_do_not_add_up_to_overload() {
    let _turn = take_turn();
    let handle = spawn(ServerConfig {
        brownout: BrownoutConfig {
            depth_high: 8.0,
            depth_low: 2.0,
            ..BrownoutConfig::default()
        },
        ..config(1)
    })
    .expect("spawn");
    let mut c = connect(handle.port());
    set(&mut c, b"k", 1);

    // A 32-deep burst lifts a settled depth average to 0.2 × 32 = 6.4,
    // under the bar of 8. Polling every 200 µs, the worker fed the
    // controller ~100 zeros in the 30 ms to the next burst; blocked, it
    // must hand them over when it wakes. With only the two zeros of the
    // passes it does take, the second burst would read 9.7 and escalate.
    // The 30 ms are counted from when the worker is seen blocked, so a
    // worker held off the CPU after a burst shortens no block: the
    // controller is handed ≥ 150 passes per gap however late it sat down.
    let (blocks0, _) = settled_idle_counts(&handle);
    for _ in 0..6 {
        burst(&mut c, &vec![Request::Get { key: b"k" }; 32]);
        settled_idle_counts(&handle);
        std::thread::sleep(Duration::from_millis(30));
    }
    let (blocks1, _) = settled_idle_counts(&handle);
    assert!(blocks1 - blocks0 >= 6, "the worker blocked between bursts");
    let brownout = handle.state().brownout();
    assert_eq!(
        (brownout.state(), brownout.transitions()),
        (HealthState::Healthy, [0; 4])
    );
    shut_down(handle);
}

#[test]
fn a_slow_request_every_100_ms_is_not_an_overload() {
    let _turn = take_turn();
    let handle = spawn(config(1)).expect("spawn");
    let mut c = connect(handle.port());
    set(&mut c, b"k", 1);
    let brownout = handle.state().brownout();
    // 20 ms in the engine. One such request lifts a settled latency
    // average to 0.2 × 20 = 4 ms, under the bar of 5; the bar is 25 ms a
    // request for traffic this sparse. A controller that sees only the
    // passes a worker takes around a request — the request's own and the
    // empty one behind it — never settles in between, and trips from
    // ≈ 9 ms a request: `control` below, fed exactly that.
    let slow_ns = 20e6;
    let control = gocc_server::BrownoutController::new(*brownout.config());
    let (blocks0, _) = settled_idle_counts(&handle);
    for _ in 0..8 {
        // The request wakes the worker, which first hands the controller
        // the ≈ 500 passes it was blocked for (`observe_idle`), then
        // serves it and blocks again…
        get(&mut c, b"k");
        settled_idle_counts(&handle);
        // …and this is what its pass reports when the store took 20 ms.
        brownout.observe(1.0, slow_ns);
        control.observe(1.0, slow_ns);
        control.observe(0.0, 0.0);
        std::thread::sleep(Duration::from_millis(100));
    }
    let (blocks1, _) = settled_idle_counts(&handle);
    assert!(
        blocks1 - blocks0 >= 8,
        "the worker blocked between requests"
    );
    assert_eq!(
        (brownout.state(), brownout.transitions()),
        (HealthState::Healthy, [0; 4])
    );
    assert_ne!(
        control.state(),
        HealthState::Healthy,
        "without the handed-over passes these requests do add up"
    );
    shut_down(handle);
}

#[test]
fn a_lone_request_blocks_and_a_pipelined_burst_coalesces() {
    let _turn = take_turn();
    let handle = spawn(config(1)).expect("spawn");
    let mut c = connect(handle.port());
    set(&mut c, b"k", 1);

    // Depth 1: the worker is woken by each request and blocks again
    // behind it — one block per request, no sleep.
    let (blocks0, sleeps0) = settled_idle_counts(&handle);
    for _ in 0..10 {
        get(&mut c, b"k");
        settled_idle_counts(&handle);
    }
    let (blocks1, sleeps1) = settled_idle_counts(&handle);
    assert_eq!((blocks1 - blocks0, sleeps1 - sleeps0), (10, 0));

    // Depth 32: the idle decision behind each burst is the coalescing
    // sleep. The worker blocks only when that sleep turned up nothing —
    // which a client that keeps its pipeline full never lets happen, and
    // this one, pausing between bursts, lets happen once per burst.
    for _ in 0..10 {
        burst(&mut c, &vec![Request::Get { key: b"k" }; 32]);
        settled_idle_counts(&handle);
    }
    let (blocks2, sleeps2) = settled_idle_counts(&handle);
    assert_eq!((blocks2 - blocks1, sleeps2 - sleeps1), (10, 10));
    shut_down(handle);
}

#[test]
fn a_full_pipeline_takes_one_timed_pass_per_window_and_does_not_block() {
    let _turn = take_turn();
    let handle = spawn(ServerConfig {
        shards: 4,
        ..config(1)
    })
    .expect("spawn");
    let mut c = connect(handle.port());
    // 32 keys, some on every shard: a window is one batch per shard.
    let keys: Vec<String> = (0..32).map(|i| format!("key-{i}")).collect();
    let window: Vec<Request<'_>> = keys
        .iter()
        .map(|key| Request::Get {
            key: key.as_bytes(),
        })
        .collect();
    let counters = handle.state().counters();
    let worker = &counters.per_worker()[0];
    // A closed loop at depth 32, as `serve_d32` settles: the worker has
    // answered a window and sat down to its timed wait by the time the
    // next one is sent (the client waits to see that, so a slow build is
    // in the same regime). The window lands inside the wait, which no
    // socket ends, and is served at the tick: one timed pass per window,
    // every pass turns one up, and the worker does not fall back to
    // blocking. A cadence whose waits were too short to catch the window
    // would show as a block per window. What does show is the wake-up
    // late enough to use up the wait behind it (≈ 150 µs optimised, ≈ 60
    // in a debug build, whose pass takes most of the period), or a client
    // this box held off the CPU across a tick: such a window is served
    // from a block, on arrival. That is 0–6 windows in a hundred
    // optimised and 5–22 in a debug build in a slow phase of this box, so
    // the bar is half of them, best of three rounds.
    const WINDOWS: u64 = 300;
    let exchange = |c: &mut Pipe<TcpStream>| {
        let seen = worker.coalesce_sleeps();
        burst(c, &window);
        let t0 = Instant::now();
        while worker.coalesce_sleeps() == seen {
            assert!(t0.elapsed() < Duration::from_secs(1), "no timed pass");
            std::thread::yield_now();
        }
    };
    let mut rounds = Vec::new();
    let won = (0..3).any(|_| {
        exchange(&mut c);
        let (blocks0, sleeps0) = (worker.idle_blocks(), worker.coalesce_sleeps());
        let (executed0, batches0) = (worker.executed(), counters.batches_executed());
        for _ in 0..WINDOWS {
            exchange(&mut c);
        }
        let executed = worker.executed() - executed0;
        let batches = counters.batches_executed() - batches0;
        let blocks = worker.idle_blocks() - blocks0;
        let sleeps = worker.coalesce_sleeps() - sleeps0;
        rounds.push((executed, batches, blocks, sleeps));
        settled_idle_counts(&handle);
        assert_eq!(executed, 32 * WINDOWS);
        assert_eq!(batches, 4 * WINDOWS, "requests per batch is not 8.0");
        blocks * 2 <= WINDOWS && sleeps.abs_diff(WINDOWS) * 50 <= WINDOWS
    });
    println!("(executed, batches, blocks, timed passes) over {WINDOWS} windows: {rounds:?}");
    assert!(
        won,
        "every other window was served from a block: {rounds:?}"
    );
    shut_down(handle);
}
