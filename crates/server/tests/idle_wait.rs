//! The idle wait, end to end: a worker or acceptor with nothing to do
//! blocks on its sockets and its waker, and everything that used to be
//! noticed by waking every 200 µs — a request, a dispatched connection,
//! shutdown, a slow client's eviction deadline, brownout recovery — is
//! still noticed. A worker that keeps a cadence instead waits in the same
//! call, on its waker alone until the next tick: that wait lasts what it
//! says, and the ticks come one per `IDLE_PASS` whatever each wake-up and
//! pass took.
//!
//! Thread accounting comes from `/proc/self/task/*` by thread name, as
//! `benchmark/src/procfs.rs` reads it, so the tests take turns: two live
//! servers in this process would both own a `goccd-worker-0`.

use std::fs;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gocc_server::idle::{self, IDLE_PASS};
use gocc_server::{spawn, BrownoutConfig, HealthState, ServerConfig, ServerHandle};
use gocc_wire::{decode_response, encode_request, read_frame, write_frame, Request, Response};

static ONE_SERVER_AT_A_TIME: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    gocc_gosync::set_procs(8);
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

/// Blocking request/response helper over one client connection.
struct Client {
    stream: TcpStream,
    wirebuf: Vec<u8>,
    respbuf: Vec<u8>,
}

impl Client {
    fn connect(port: u16) -> Client {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        // A lost wake-up shows as this timeout, not as a hung test run.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        Client {
            stream,
            wirebuf: Vec::new(),
            respbuf: Vec::new(),
        }
    }

    fn call(&mut self, req: &Request<'_>) -> Response<'_> {
        self.wirebuf.clear();
        encode_request(req, &mut self.wirebuf);
        write_frame(&mut self.stream, &self.wirebuf).expect("send");
        self.recv()
    }

    fn recv(&mut self) -> Response<'_> {
        assert!(
            read_frame(&mut self.stream, &mut self.respbuf).expect("recv"),
            "server closed mid-conversation"
        );
        decode_response(&self.respbuf).expect("well-formed response")
    }

    fn set(&mut self, key: &[u8], value: u64) {
        let req = Request::Set { key, value, ttl: 0 };
        assert_eq!(self.call(&req), Response::Done);
    }

    fn get(&mut self, key: &[u8]) -> Response<'_> {
        self.call(&Request::Get { key })
    }
}

/// Voluntary context switches and CPU nanoseconds, summed over every
/// thread the server in this process started: the workers, the acceptor,
/// and `goccd-repl-out` when the node takes subscribers.
fn server_thread_use() -> (u64, u64) {
    let (mut switches, mut cpu_ns) = (0, 0);
    for task in fs::read_dir("/proc/self/task").expect("procfs").flatten() {
        let dir = task.path();
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !comm.starts_with("goccd-") {
            continue;
        }
        let status = fs::read_to_string(dir.join("status")).unwrap_or_default();
        switches += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .expect("voluntary_ctxt_switches");
        let schedstat = fs::read_to_string(dir.join("schedstat")).unwrap_or_default();
        cpu_ns += schedstat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .expect("schedstat");
    }
    (switches, cpu_ns)
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
    // With `repl_accept` the node also runs `goccd-repl-out`, which owns
    // no subscriber here and has nothing to pump.
    for repl_accept in [false, true] {
        let handle = spawn(ServerConfig {
            repl_accept,
            ..config(1)
        })
        .expect("spawn");
        let mut c = Client::connect(handle.port());
        c.set(b"k", 1);
        settled_idle_counts(&handle);
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
            c.get(b"k"),
            Response::Value {
                found: true,
                value: 1
            }
        );
        shut_down(handle);
    }
}

#[test]
fn a_request_and_a_new_connection_wake_blocked_workers() {
    let _turn = take_turn();
    let handle = spawn(config(2)).expect("spawn");
    let mut first = Client::connect(handle.port());
    first.set(b"k", 7);
    std::thread::sleep(Duration::from_millis(100));
    let workers = handle.state().counters().per_worker();
    assert!(workers[0].idle_blocks() >= 1, "worker 0 is not blocked");
    assert!(workers[1].idle_blocks() >= 1, "worker 1 is not blocked");
    assert_eq!(workers[1].executed(), 0);

    // Worker 0 is woken by its socket…
    let t0 = Instant::now();
    assert_eq!(
        first.get(b"k"),
        Response::Value {
            found: true,
            value: 7
        }
    );
    // …the acceptor by its listener, and worker 1 — which owns no socket
    // at all yet — by the acceptor.
    let mut second = Client::connect(handle.port());
    assert_eq!(
        second.get(b"k"),
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
    let mut c = Client::connect(handle.port());
    c.set(b"k", 1);
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
    let mut c = Client::connect(handle.port());
    c.set(b"k", 1);
    settled_idle_counts(&handle);
    assert_eq!(c.call(&Request::Shutdown), Response::Bye);
    let took = timed_join(handle);
    assert!(took < drain_timeout, "join after SHUTDOWN: {took:?}");
}

#[test]
fn a_stalled_client_is_waited_for_without_spinning_and_still_evicted() {
    let _turn = take_turn();
    let write_timeout = Duration::from_millis(400);
    let handle = spawn(ServerConfig {
        write_timeout,
        capacity_per_shard: 1 << 14,
        // Expensive verbs are shed past half of this in one pump pass.
        queue_limit: 1024,
        ..config(1)
    })
    .expect("spawn");
    let port = handle.port();

    // A SCAN answers at most 4 096 entries of 16 bytes: 64 KiB.
    const KEYS: u32 = gocc_wire::MAX_SCAN;
    let mut loader = Client::connect(port);
    let mut sets = Vec::new();
    for chunk in (0..KEYS).collect::<Vec<_>>().chunks(100) {
        sets.clear();
        for i in chunk {
            let key = format!("key-{i}");
            let req = Request::Set {
                key: key.as_bytes(),
                value: u64::from(*i),
                ttl: 0,
            };
            encode_request(&req, &mut sets);
        }
        loader.stream.write_all(&sets).expect("send");
        for _ in chunk {
            assert_eq!(loader.recv(), Response::Done);
        }
    }
    drop(loader);

    // 80 of them, never read: 5 MiB against a send buffer of at most 4.
    let mut scans = Vec::new();
    for _ in 0..80 {
        encode_request(&Request::Scan { limit: KEYS }, &mut scans);
    }
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

/// How long 50 timed waits take on a thread with exact timers, a pass of
/// 20 µs behind each: every wait `IDLE_PASS` from when it starts, or
/// every wait until the next tick of one cadence.
fn fifty_passes(ticked: bool) -> Duration {
    std::thread::spawn(move || {
        idle::exact_timers();
        let waker = idle::Waker::new().expect("socket pair");
        let mut set = idle::PollSet::default();
        let mut tick = idle::Tick::default();
        let t0 = Instant::now();
        for _ in 0..50 {
            let timeout = if ticked {
                tick.timeout(Instant::now())
            } else {
                IDLE_PASS
            };
            idle::wait(&waker, &mut set, Some(timeout));
            let pass = Instant::now();
            while pass.elapsed() < Duration::from_micros(20) {
                std::hint::spin_loop();
            }
        }
        t0.elapsed()
    })
    .join()
    .expect("timing thread")
}

#[test]
fn timed_passes_keep_a_cadence() {
    let _turn = take_turn();
    // Every wake-up is late by what this box charges for one (15 µs in a
    // good phase, 40 in a bad one), and then the pass takes its time.
    // Waits that each start when the pass before ended add both up, 50
    // times over; waits that end at the next tick pay the last of them
    // once. As above the bar is set against the other kind, measured
    // alongside, and a round another process disturbed is taken again.
    let mut rounds = Vec::new();
    let won = (0..5).any(|_| {
        let relative = fifty_passes(false);
        let ticked = fifty_passes(true);
        rounds.push((ticked, relative));
        assert!(ticked >= 50 * IDLE_PASS, "ticks came early: {rounds:?}");
        ticked + 50 * Duration::from_micros(25) <= relative
    });
    println!("50 passes, (ticked, each {IDLE_PASS:?} after the last): {rounds:?}");
    assert!(won, "ticked waits add up like relative ones: {rounds:?}");
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
    let mut first = Client::connect(handle.port());
    first.set(b"k", 3);
    let brownout = handle.state().brownout();
    brownout.observe(1e9, 0.0);
    assert_eq!(brownout.state(), HealthState::Degraded);

    // The worker blocked before the state moved; one request gets it to
    // its next idle decision, and from there it only takes timed passes
    // (which escalate once more: reads are still served).
    first.get(b"k");
    let worker = &handle.state().counters().per_worker()[0];
    let (blocks0, timed0) = (worker.idle_blocks(), worker.coalesce_sleeps());
    std::thread::sleep(Duration::from_millis(20));
    assert!(worker.coalesce_sleeps() > timed0, "no timed pass in 20 ms");

    // A timed pass watches no socket; what ends it early is the waker,
    // which is how this connection reaches the worker at all.
    let mut second = Client::connect(handle.port());
    assert_eq!(
        second.get(b"k"),
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
    let mut c = Client::connect(handle.port());
    c.set(b"k", 1);
    settled_idle_counts(&handle);

    // One 64-deep burst is two hot observations (64, then 32 from the
    // idle pass behind it): Healthy → Degraded → Shedding.
    let mut burst = Vec::new();
    for _ in 0..64 {
        encode_request(&Request::Get { key: b"k" }, &mut burst);
    }
    c.stream.write_all(&burst).expect("send");
    for _ in 0..64 {
        c.recv();
    }
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
    let mut c = Client::connect(handle.port());
    c.set(b"k", 1);

    // A 32-deep burst lifts a settled depth average to 0.2 × 32 = 6.4,
    // under the bar of 8. Polling every 200 µs, the worker fed the
    // controller ~100 zeros in the 30 ms to the next burst; blocked, it
    // must hand them over when it wakes. With only the two zeros of the
    // passes it does take, the second burst would read 9.7 and escalate.
    let mut burst = Vec::new();
    for _ in 0..32 {
        encode_request(&Request::Get { key: b"k" }, &mut burst);
    }
    let (blocks0, _) = settled_idle_counts(&handle);
    for _ in 0..6 {
        c.stream.write_all(&burst).expect("send");
        for _ in 0..32 {
            c.recv();
        }
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
    let mut c = Client::connect(handle.port());
    c.set(b"k", 1);
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
        c.get(b"k");
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
    let mut c = Client::connect(handle.port());
    c.set(b"k", 1);

    // Depth 1: the worker is woken by each request and blocks again
    // behind it — one block per request, no sleep.
    let (blocks0, sleeps0) = settled_idle_counts(&handle);
    for _ in 0..10 {
        c.get(b"k");
        settled_idle_counts(&handle);
    }
    let (blocks1, sleeps1) = settled_idle_counts(&handle);
    assert_eq!((blocks1 - blocks0, sleeps1 - sleeps0), (10, 0));

    // Depth 32: the idle decision behind each burst is the coalescing
    // sleep. The worker blocks only when that sleep turned up nothing —
    // which a client that keeps its pipeline full never lets happen, and
    // this one, pausing between bursts, lets happen once per burst.
    let mut burst = Vec::new();
    for _ in 0..32 {
        encode_request(&Request::Get { key: b"k" }, &mut burst);
    }
    for _ in 0..10 {
        c.stream.write_all(&burst).expect("send");
        for _ in 0..32 {
            c.recv();
        }
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
    let mut c = Client::connect(handle.port());
    // 32 keys, some on every shard: a window is one batch per shard.
    let mut window = Vec::new();
    for i in 0..32 {
        let key = format!("key-{i}");
        encode_request(
            &Request::Get {
                key: key.as_bytes(),
            },
            &mut window,
        );
    }
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
    let exchange = |c: &mut Client| {
        let seen = worker.coalesce_sleeps();
        c.stream.write_all(&window).expect("send");
        for _ in 0..32 {
            c.recv();
        }
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
