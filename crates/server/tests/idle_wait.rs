//! The idle wait: a worker or acceptor with nothing to do blocks on its
//! sockets and its waker, and everything that used to be noticed by
//! waking every 200 µs — a request, a dispatched connection, shutdown, a
//! slow client's eviction deadline, brownout recovery — is still noticed.
//! A worker that keeps a cadence instead waits in the same call, on its
//! waker alone until the next tick: its thread asked for exact timers, and
//! the ticks come one per `IDLE_PASS` whatever each wake-up and pass took.
//! What needs a real thread asserts a count or a state; the decisions are
//! taken on virtual time, over the in-memory link.
//!
//! Thread accounting comes from `/proc/self/task/*` (`common::threads`),
//! so the tests take turns: what one server's threads did must not be
//! summed with another's. Every thread's idle wake-ups are bounded in one
//! place, `surface.rs`.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gocc_server::idle::{self, IDLE_PASS};
use gocc_server::{
    spawn, BrownoutConfig, HealthState, Next, ServerConfig, ServerHandle, ServerState, Worker,
};
use gocc_wire::{encode_request_v2, Pipe, Request, Response};

mod common;
use common::{
    connect, hand_worker, server_threads, steady_brownout, until_it_blocks, Hand, Link, Thread,
};

static ONE_SERVER_AT_A_TIME: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    ONE_SERVER_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A server whose drain gives up only after 10 s: a join that waited it
/// out is a hang, not a slow box.
fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        shards: 2,
        capacity_per_shard: 1024,
        drain_timeout: Duration::from_secs(10),
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

/// Polls `done` every millisecond until it holds. A watchdog, not a bar:
/// 10 s without it turns a hang into a failure that names `what`.
fn eventually(what: &str, done: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !done() {
        assert!(t0.elapsed() < Duration::from_secs(10), "never: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `(idle_blocks, coalesce_sleeps)` of worker 0 once it has stopped
/// taking passes, i.e. once it blocks: neither count moved in 10 ms, and
/// no server thread ran in them (one long pass moves no count either).
fn settled_idle_counts(handle: &ServerHandle) -> (u64, u64) {
    let read = || {
        let g = &handle.state().counters().per_worker()[0];
        let cpu_ns: u64 = server_threads().iter().map(Thread::cpu_ns).sum();
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

#[test]
fn a_request_and_a_new_connection_wake_blocked_workers() {
    let _turn = take_turn();
    let handle = spawn(config(2)).expect("spawn");
    let mut first = connect(handle.port());
    set(&mut first, b"k", 7);
    // Both workers rest in a block: worker 0 behind the SET, worker 1,
    // which owns no socket, from its first idle decision on.
    settled_idle_counts(&handle);
    let workers = handle.state().counters().per_worker();
    eventually("both workers blocked", || {
        workers.iter().all(|w| w.idle_blocks() >= 1)
    });
    assert_eq!(workers[1].executed(), 0);

    // Worker 0 is woken by its socket…
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
    assert_eq!(workers[1].executed(), 1, "round-robin dispatch");
    handle.request_shutdown();
    let summary = handle.join();
    assert_eq!(summary.conns_accepted, 2);
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
    let drain_timeout = config(2).drain_timeout;

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

/// `n` SCANs of 512 entries, 8 KiB of answer each, as one byte stream.
fn scans(n: usize) -> Vec<u8> {
    let mut scans = Vec::new();
    for _ in 0..n {
        encode_request_v2(&Request::Scan { limit: 512 }, None, &mut scans);
    }
    scans
}

#[test]
fn a_stalled_client_is_evicted_at_its_write_timeout_not_before() {
    let _turn = take_turn();
    let write_timeout = Duration::from_millis(400);
    let state = ServerState::new(ServerConfig {
        write_timeout,
        brownout: steady_brownout(),
        ..config(1)
    })
    .expect("state");
    let t0 = Instant::now();
    // Each direction of a link holds 4 KiB.
    let mut w = Worker::new(&state, 0, t0);
    let mut c = Hand::new(&mut w, t0, 4096);
    let keys: Vec<String> = (0..512).map(|i| format!("key-{i}")).collect();
    let mut now = t0;
    for chunk in keys.chunks(64) {
        for key in chunk {
            let key = key.as_bytes();
            c.client.submit(
                &Request::Set {
                    key,
                    value: 1,
                    ttl: 0,
                },
                None,
            );
        }
        c.send();
        now = until_it_blocks(&mut w, now);
        for _ in chunk {
            assert_eq!(c.answer(), Response::Done);
        }
    }
    // `c` sends 64 SCANs it never reads. `closing` also sends a frame that
    // costs it the connection and then more bytes, which the worker no
    // longer reads: on a socket they would keep it readable for as long
    // as its queued answers cannot be flushed.
    for _ in 0..64 {
        c.client.submit(&Request::Scan { limit: 512 }, None);
    }
    c.send();
    let (mut closing, served) = Link::pair(4096);
    w.adopt(served, now);
    let mut bytes = scans(8);
    bytes.extend(5u32.to_le_bytes());
    bytes.extend([0x7E, 1, 2, 3, 4]); // unknown opcode
    bytes.extend(scans(8));
    closing.write_all(&bytes).expect("the link takes it all");
    // The worker answers what the links take, then blocks until the first
    // eviction is due, with both connections held: `write_timeout` after
    // the last pass that moved.
    let mut moved = now;
    let decision = loop {
        match w.pass(now) {
            Next::Pass => moved = now,
            Next::Wait {
                blind: true,
                until: Some(tick),
            } => now = tick,
            decision => break decision,
        }
    };
    let evict_at = moved + write_timeout;
    assert_eq!(
        decision,
        Next::Wait {
            blind: false,
            until: Some(evict_at)
        }
    );
    let counters = state.counters();
    assert_eq!(counters.malformed(), 1);
    let closed = || (counters.closed(), counters.slow_drops());
    w.pass(evict_at - Duration::from_nanos(1));
    assert_eq!(closed(), (0, 0), "evicted early");
    w.pass(evict_at);
    assert_eq!(closed(), (2, 2), "kept past its deadline");
}

/// `n` waits of `timeout` on a waker nobody wakes, shortest first, taken
/// on a thread of its own that first asked for exact timers.
fn timed_waits(timeout: Duration, n: usize) -> Vec<Duration> {
    std::thread::spawn(move || {
        idle::exact_timers();
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

/// The calling thread's timer slack in nanoseconds, which Linux shows
/// for a task only to that task itself.
fn timer_slack_ns() -> u64 {
    let task = std::fs::read_link("/proc/thread-self").expect("procfs");
    let tid = task.file_name().expect("a task id").to_string_lossy();
    let path = format!("/proc/{tid}/timerslack_ns");
    let slack = std::fs::read_to_string(path).expect("timerslack_ns");
    slack.trim().parse().expect("a number")
}

#[test]
fn a_timed_pass_lasts_what_it_says() {
    let _turn = take_turn();
    // A thread's timer slack (50 µs by default) lets the kernel end its
    // waits that much late. A thread that asked for exact timers has the
    // kernel's minimum, 1 ns; the one beside it, which did not, kept what
    // it inherited.
    let slack = |exact: bool| {
        std::thread::spawn(move || {
            if exact {
                idle::exact_timers();
            }
            timer_slack_ns()
        })
        .join()
        .expect("slack thread")
    };
    let inherited = timer_slack_ns();
    assert!(inherited > 1, "this thread already has exact timers");
    assert_eq!((slack(true), slack(false)), (1, inherited));
    // `poll(2)` counted in milliseconds: 300 µs were rounded up to one.
    let sub_ms = timed_waits(Duration::from_micros(300), 21);
    println!("shortest of 21 waits of 300 µs: {:?}", sub_ms[0]);
    assert!(
        sub_ms[0] >= Duration::from_micros(300) && sub_ms[0] < Duration::from_micros(700),
        "waits of 300 µs took {sub_ms:?}"
    );
}

/// One microsecond of virtual time.
const US: Duration = Duration::from_micros(1);

/// A GET, which runs in the engine.
const GET: Request<'static> = Request::Get { key: b"k" };

/// Submits `n` copies of `req` and sends them. HEALTH frames count toward
/// a pass's depth and take no engine time: where a brownout test's
/// averages must not see this box's timing, its requests are HEALTHs.
fn window(c: &mut Hand, req: &Request<'_>, n: usize) {
    for _ in 0..n {
        c.client.submit(req, None);
    }
    c.send();
}

/// Reads `n` answers.
fn answers(c: &mut Hand, n: usize) {
    for _ in 0..n {
        c.answer();
    }
}

#[test]
fn timed_passes_keep_a_cadence() {
    let _turn = take_turn();
    // A client that keeps its pipeline full, on virtual time: a window is
    // waiting at every tick, every wake-up is late (by 5–40 µs, what a
    // wake-up costs on a shared box), and then the pass takes its time.
    // Waits that each start when the pass before ended add both up, one
    // period after the other; a pass hands back the next tick of its
    // cadence, so every tick is due on the grid `t0 + k × IDLE_PASS`
    // however late the one before came. The pass that serves a window is
    // the one that decides how to wait.
    let state = ServerState::new(config(1)).expect("state");
    let t0 = Instant::now();
    let (mut w, mut c) = hand_worker(&state, t0);
    let mut now = t0;
    let pass = |w: &mut Worker<'_, Link>, c: &mut Hand, now| {
        window(c, &GET, 32);
        let Next::Wait {
            blind: true,
            until: Some(tick),
        } = w.pass(now)
        else {
            panic!("no timed pass behind a window");
        };
        answers(c, 32);
        tick
    };
    for k in 1..=50u32 {
        let tick = pass(&mut w, &mut c, now);
        assert_eq!(tick, t0 + k * IDLE_PASS, "tick {k} off the grid");
        let late = Duration::from_micros(u64::from(5 + k * 7 % 36));
        now = tick + late;
    }
    let owed = t0 + 51 * IDLE_PASS;
    assert_eq!(pass(&mut w, &mut c, now), owed);
    // The waker cut that wait 150 µs short (a dispatched connection, an
    // ack): the wait behind the pass it woke for ends at the tick owed.
    assert_eq!(pass(&mut w, &mut c, owed - 150 * US), owed);
    // A pass that overran a whole period starts the cadence over from its
    // own instant: no burst of passes to catch up.
    let overran = owed + IDLE_PASS + 13 * US;
    assert_eq!(pass(&mut w, &mut c, overran), overran + IDLE_PASS);
    let counts = &state.counters().per_worker()[0];
    assert_eq!((counts.coalesce_sleeps(), counts.idle_blocks()), (53, 0));
}

#[test]
fn a_timed_pass_ends_for_a_dispatched_connection_and_for_shutdown() {
    let _turn = take_turn();
    let drain_timeout = config(1).drain_timeout;
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
    eventually("a timed pass", || worker.coalesce_sleeps() > timed0);

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
    let state = ServerState::new(ServerConfig {
        brownout: BrownoutConfig {
            alpha: 0.5,
            depth_high: 8.0,
            depth_low: 2.0,
            recover_obs: 3,
            ..BrownoutConfig::default()
        },
        ..config(1)
    })
    .expect("state");
    let t0 = Instant::now();
    let (mut w, mut c) = hand_worker(&state, t0);
    // One 64-deep burst is two hot observations (64, then 32 from the
    // idle pass behind it): Healthy → Degraded → Shedding. It is HEALTHs,
    // so the latency average stays at zero and only the depth counts.
    window(&mut c, &Request::Health, 64);
    // Nothing is sent from here on: only the worker's own idle passes can
    // decay the averages, so it must keep taking them, one per tick, until
    // Healthy. Depths 16, 8, 4 and 2 are not calm; 1, 0.5 and 0.25 walk
    // it to Degraded and the next three to Healthy: ten ticks.
    let rested = until_it_blocks(&mut w, t0);
    answers(&mut c, 64);
    let brownout = state.brownout();
    assert_eq!(brownout.state(), HealthState::Healthy);
    assert_eq!(
        brownout.transitions(),
        [1; 4],
        "the burst must reach Shedding and walk all the way back"
    );
    assert_eq!(rested - t0, 10 * IDLE_PASS);
    // Healthy again, it blocks.
    let counts = &state.counters().per_worker()[0];
    assert_eq!((counts.coalesce_sleeps(), counts.idle_blocks()), (10, 1));
}

#[test]
fn sparse_bursts_do_not_add_up_to_overload() {
    let _turn = take_turn();
    let state = ServerState::new(ServerConfig {
        brownout: BrownoutConfig {
            depth_high: 8.0,
            depth_low: 2.0,
            ..BrownoutConfig::default()
        },
        ..config(1)
    })
    .expect("state");
    let t0 = Instant::now();
    let (mut w, mut c) = hand_worker(&state, t0);
    // A 32-deep burst lifts a settled depth average to 0.2 × 32 = 6.4,
    // under the bar of 8. Polling every 200 µs, the worker fed the
    // controller 150 zeros in the 30 ms to the next burst; blocked, it
    // must hand them over when it wakes. With only the two zeros of the
    // passes it does take, the second burst would read 9.7 and escalate.
    // A lone HEALTH first settles the average, engine time left out.
    let mut now = t0;
    for (req, depth) in [
        (Request::Health, 1),
        (GET, 32),
        (GET, 32),
        (GET, 32),
        (GET, 32),
        (GET, 32),
        (GET, 32),
    ] {
        window(&mut c, &req, depth);
        let blocked = until_it_blocks(&mut w, now);
        answers(&mut c, depth);
        now = blocked + Duration::from_millis(30);
    }
    let counts = &state.counters().per_worker()[0];
    assert_eq!((counts.coalesce_sleeps(), counts.idle_blocks()), (6, 7));
    let brownout = state.brownout();
    assert_eq!(
        (brownout.state(), brownout.transitions()),
        (HealthState::Healthy, [0; 4])
    );
}

#[test]
fn a_slow_request_every_100_ms_is_not_an_overload() {
    let _turn = take_turn();
    let state = ServerState::new(config(1)).expect("state");
    let t0 = Instant::now();
    let (mut w, mut c) = hand_worker(&state, t0);
    let brownout = state.brownout();
    // 20 ms in the engine. One such request lifts a settled latency
    // average to 0.2 × 20 = 4 ms, under the bar of 5; the bar is 25 ms a
    // request for traffic this sparse. A controller that sees only the
    // passes a worker takes around a request — the request's own and the
    // empty one behind it — never settles in between, and trips from
    // ≈ 9 ms a request: `control` below, fed exactly that. A HEALTH frame
    // stands for the request: its pass reports one frame and no engine
    // time, so the 20 ms fed below is the only latency either sees.
    let slow_ns = 20e6;
    let control = gocc_server::BrownoutController::new(*brownout.config());
    let mut now = t0;
    for _ in 0..8 {
        // The request is served, and the worker blocks again…
        window(&mut c, &Request::Health, 1);
        let blocked = until_it_blocks(&mut w, now);
        answers(&mut c, 1);
        // …this is what its pass reports when the store took 20 ms…
        brownout.observe(1.0, slow_ns);
        control.observe(1.0, slow_ns);
        control.observe(0.0, 0.0);
        // …and the next request wakes it 100 ms later: it hands the
        // controller the 500 passes it was blocked for.
        now = blocked + Duration::from_millis(100);
    }
    let counts = &state.counters().per_worker()[0];
    assert_eq!((counts.coalesce_sleeps(), counts.idle_blocks()), (0, 8));
    assert_eq!(
        (brownout.state(), brownout.transitions()),
        (HealthState::Healthy, [0; 4])
    );
    assert_ne!(
        control.state(),
        HealthState::Healthy,
        "without the handed-over passes these requests do add up"
    );
}
