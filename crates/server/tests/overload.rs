//! End-to-end overload tests: deadlines, HEALTH, brownout shedding and
//! oversized-frame resynchronization against a real `goccd` over loopback;
//! and, on a worker driven by hand on virtual time, brownout recovery, a
//! budget that lapses behind a parked answer and the seeded load plan's
//! stalls.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gocc_faultplane::{LoadFaultPlan, LoadMix};
use gocc_server::idle::IDLE_PASS;
use gocc_server::{spawn, HealthState, Mode, Next, ServerConfig, ServerState};
use gocc_wire::{decode_response, encode_request_v2, Pipe, Request, Response, MAX_FRAME};

mod common;
use common::{connect, hand_worker, steady_brownout, until_it_blocks};

/// A state whose load plan injects `mix`, serving on the hand rig.
fn planned(mix: LoadMix) -> ServerState {
    ServerState::new(ServerConfig {
        load_plan: Some(Arc::new(LoadFaultPlan::new(7, mix))),
        brownout: steady_brownout(),
        ..config(Mode::Gocc)
    })
    .expect("state")
}

/// One round trip whose envelope carries a deadline budget.
fn with_deadline<'c>(
    c: &'c mut Pipe<TcpStream>,
    req: &Request<'_>,
    deadline_us: u32,
) -> Response<'c> {
    c.submit(req, Some(deadline_us));
    c.wait().expect("recv");
    c.answer().expect("answer").expect("ready").1
}

fn config(mode: Mode) -> ServerConfig {
    ServerConfig {
        mode,
        port: 0,
        workers: 2,
        shards: 2,
        capacity_per_shard: 1024,
        drain_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    }
}

#[test]
fn health_verb_reports_state_and_counters() {
    let handle = spawn(config(Mode::Gocc)).expect("spawn");
    let mut c = connect(handle.port());
    let Response::Health {
        state,
        shed_total,
        deadline_misses,
    } = c.call(&Request::Health).unwrap()
    else {
        panic!("HEALTH must return a health response");
    };
    assert_eq!(HealthState::from_u8(state), HealthState::Healthy);
    assert_eq!(shed_total, 0);
    assert_eq!(deadline_misses, 0);
    handle.request_shutdown();
    let _ = handle.join();
}

#[test]
fn expired_deadline_never_reaches_the_engine() {
    let handle = spawn(config(Mode::Gocc)).expect("spawn");
    let mut c = connect(handle.port());
    // A zero budget is expired on arrival by definition: the SET must be
    // answered DeadlineExceeded and must NOT be applied.
    assert_eq!(
        with_deadline(
            &mut c,
            &Request::Set {
                key: b"never",
                value: 1,
                ttl: 0
            },
            0
        ),
        Response::DeadlineExceeded
    );
    assert_eq!(
        c.call(&Request::Get { key: b"never" }).unwrap(),
        Response::Value {
            found: false,
            value: 0
        },
        "an expired request must never execute against the engine"
    );
    // A generous budget executes normally through the same v2 path.
    assert_eq!(
        with_deadline(
            &mut c,
            &Request::Set {
                key: b"soon",
                value: 2,
                ttl: 0
            },
            2_000_000
        ),
        Response::Done
    );
    assert_eq!(
        c.call(&Request::Get { key: b"soon" }).unwrap(),
        Response::Value {
            found: true,
            value: 2
        }
    );
    // HEALTH (a control verb, never deadline-checked) sees the miss.
    let Response::Health {
        deadline_misses, ..
    } = with_deadline(&mut c, &Request::Health, 0)
    else {
        panic!("health response expected");
    };
    assert_eq!(deadline_misses, 1);
    handle.request_shutdown();
    let summary = handle.join();
    assert_eq!(summary.deadline_misses, 1);
}

#[test]
fn shedding_state_rejects_writes_and_serves_reads() {
    let mut cfg = config(Mode::Gocc);
    // Workers feed idle observations continuously; an effectively
    // unreachable recovery threshold pins whatever state the test forces.
    cfg.brownout.recover_obs = u32::MAX;
    let handle = spawn(cfg).expect("spawn");
    let mut c = connect(handle.port());
    assert_eq!(
        c.call(&Request::Set {
            key: b"pre",
            value: 7,
            ttl: 0
        })
        .unwrap(),
        Response::Done
    );

    // Two saturated observations walk the controller H→D→S.
    handle.state().brownout().observe(1e18, 1e18);
    handle.state().brownout().observe(1e18, 1e18);
    assert_eq!(handle.state().brownout().state(), HealthState::Shedding);

    // Writes are shed with the retriable Overloaded response...
    let Response::Overloaded { state } = c
        .call(&Request::Set {
            key: b"shed",
            value: 1,
            ttl: 0,
        })
        .unwrap()
    else {
        panic!("writes must be shed while Shedding");
    };
    assert_eq!(HealthState::from_u8(state), HealthState::Shedding);
    // ... SCAN likewise ...
    assert!(matches!(
        c.call(&Request::Scan { limit: 10 }).unwrap(),
        Response::Overloaded { .. }
    ));
    // ... but reads and the control plane still work on the SAME
    // connection — shedding is per-request, not per-connection.
    assert_eq!(
        c.call(&Request::Get { key: b"pre" }).unwrap(),
        Response::Value {
            found: true,
            value: 7
        }
    );
    assert!(matches!(
        c.call(&Request::Health).unwrap(),
        Response::Health { state: 2, .. }
    ));
    handle.request_shutdown();
    let summary = handle.join();
    assert!(summary.shed_total >= 2, "{summary:?}");
}

#[test]
fn brownout_recovers_to_healthy_after_load_removal() {
    let mut cfg = config(Mode::Gocc);
    cfg.brownout.alpha = 0.5;
    cfg.brownout.recover_obs = 3;
    let state = ServerState::new(cfg).expect("state");
    let t0 = Instant::now();
    let (mut w, mut c) = hand_worker(&state, t0);
    state.brownout().observe(1_000.0, 0.0);
    state.brownout().observe(1_000.0, 0.0);
    assert_eq!(state.brownout().state(), HealthState::Shedding);
    // With no load, the worker's idle passes — one per tick while the
    // state is not Healthy — decay the averages and walk it back. The
    // depth average halves a pass: 500 and 250 are hot, 125 to 31 neither
    // hot nor calm, and 15.6 to 3.9, then 1.9 to 0.5, are two calm
    // streaks of three: eleven passes, ten of them timed.
    let healthy = until_it_blocks(&mut w, t0);
    assert_eq!(healthy - t0, 10 * IDLE_PASS);
    assert_eq!(state.brownout().transitions(), [1; 4]);
    c.client.submit(&Request::Health, None);
    c.send();
    until_it_blocks(&mut w, healthy);
    let Response::Health { state: health, .. } = c.answer() else {
        panic!("HEALTH must return a health response");
    };
    assert_eq!(HealthState::from_u8(health), HealthState::Healthy);
}

/// A frame that waits in the input buffer behind a parked answer — a
/// write waiting for its replica — is admitted at the pass that reaches
/// it, on that pass's instant: its budget runs from when its bytes
/// arrived, and a budget that lapsed meanwhile is answered
/// `DeadlineExceeded` without the engine ever seeing the request.
#[test]
fn a_deadline_that_lapses_before_its_pass_never_reaches_the_engine() {
    const BUDGET_US: u32 = 5_000;
    let budget = Duration::from_micros(u64::from(BUDGET_US));
    for (after, lapsed) in [(budget - Duration::from_nanos(1), false), (budget, true)] {
        let state = ServerState::new(ServerConfig {
            repl_accept: true,
            repl_min_acks: 1,
            repl_lease: Duration::from_secs(60),
            repl_ack_timeout: Duration::from_secs(60),
            brownout: steady_brownout(),
            ..config(Mode::Gocc)
        })
        .expect("state");
        let feed = state.repl_feed().expect("feed");
        let t0 = Instant::now();
        let replica = feed.subscribe(&[0; 2], t0);
        let (mut w, mut c) = hand_worker(&state, t0);
        // The HEALTH flushes the first SET's batch, which parks; the
        // second SET stays unread behind them.
        let set = |key| Request::Set {
            key,
            value: 7,
            ttl: 0,
        };
        c.client.submit(&set(b"first"), None);
        c.client.submit(&Request::Health, None);
        c.client.submit(&set(b"second"), Some(BUDGET_US));
        c.send();
        until_it_blocks(&mut w, t0);
        // The replica acks everything `after` the bytes arrived, and the
        // worker's next pass runs then.
        let now = t0 + after;
        for shard in 0..2 {
            feed.note_ack(replica, shard, u64::MAX, false, now);
        }
        until_it_blocks(&mut w, now);
        assert_eq!(c.answer(), Response::Done);
        assert!(matches!(c.answer(), Response::Health { .. }));
        let second = if lapsed {
            Response::DeadlineExceeded
        } else {
            Response::Done
        };
        assert_eq!(c.answer(), second, "{after:?} after arrival");
        c.client.submit(&Request::Get { key: b"second" }, None);
        c.send();
        until_it_blocks(&mut w, now);
        let applied = Response::Value {
            found: !lapsed,
            value: if lapsed { 0 } else { 7 },
        };
        assert_eq!(c.answer(), applied, "{after:?} after arrival");
        assert_eq!(state.counters().deadline_misses(), u64::from(lapsed));
    }
}

/// The virtual-time twin of `tests/batch_server.rs`'s mid-batch deadline
/// test. A slow-store draw moves the pass's instant on instead of
/// sleeping, and what the pass encodes after it is written by the first
/// pass at or after that instant: three SETs that draw 20 ms each against
/// a 5 ms budget are answered `DeadlineExceeded` at 60 ms and not a
/// nanosecond before, and their effects stand.
#[test]
fn a_slow_store_holds_its_answers_until_its_stall_is_over() {
    let slow = Duration::from_millis(20);
    let state = planned(LoadMix {
        slow_store: 1.0,
        slow_store_for: slow,
        ..LoadMix::default()
    });
    let t0 = Instant::now();
    let (mut w, mut c) = hand_worker(&state, t0);
    let keys: [&[u8]; 3] = [b"dl-a", b"dl-b", b"dl-c"];
    for key in keys {
        c.client.submit(
            &Request::Set {
                key,
                value: 7,
                ttl: 0,
            },
            Some(5_000),
        );
    }
    c.send();
    let over = t0 + 3 * slow;
    assert_eq!(w.pass(t0), Next::Pass);
    assert!(!c.received(), "answered within its pass's stall");
    let stalled = Next::Wait {
        blind: true,
        until: Some(over),
    };
    assert_eq!(w.pass(over - Duration::from_nanos(1)), stalled);
    assert!(!c.received(), "answered before its stall was over");
    w.pass(over);
    for _ in keys {
        assert_eq!(c.answer(), Response::DeadlineExceeded);
    }
    // Each GET draws its own 20 ms too.
    for key in keys {
        c.client.submit(&Request::Get { key }, None);
    }
    c.send();
    assert_eq!(w.pass(over), Next::Pass);
    w.pass(over + 3 * slow);
    for _ in keys {
        let applied = Response::Value {
            found: true,
            value: 7,
        };
        assert_eq!(c.answer(), applied);
    }
}

/// A seeded worker stall moves the worker's instant on instead of
/// sleeping: a frame sent just after the pass that drew it is read by no
/// pass before the stall is over, and by the pass at its end.
#[test]
fn a_worker_stall_defers_the_next_read_to_its_end() {
    let stall = Duration::from_millis(2);
    let state = planned(LoadMix {
        stall: 1.0,
        stall_for: stall,
        ..LoadMix::default()
    });
    let t0 = Instant::now();
    let (mut w, mut c) = hand_worker(&state, t0);
    let over = t0 + stall;
    let timed = Next::Wait {
        blind: true,
        until: Some(over + IDLE_PASS),
    };
    assert_eq!(w.pass(t0), timed, "the idle pass's tick is after its stall");
    c.client.submit(&Request::Health, None);
    c.send();
    let stalled = Next::Wait {
        blind: true,
        until: Some(over),
    };
    assert_eq!(w.pass(over - Duration::from_nanos(1)), stalled);
    assert_eq!(
        state.counters().total_requests(),
        0,
        "read within the stall"
    );
    assert_eq!(w.pass(over), Next::Pass);
    assert_eq!(state.counters().total_requests(), 1);
    assert!(matches!(c.answer(), Response::Health { .. }));
}

#[test]
fn queue_limit_sheds_a_pipelined_burst() {
    let mut cfg = config(Mode::Gocc);
    cfg.queue_limit = 4;
    let handle = spawn(cfg).expect("spawn");
    let mut c = connect(handle.port());
    // One giant pipelined burst: far more frames than the queue limit
    // arrive in a single pump pass, so the tail must be shed.
    const BURST: usize = 64;
    for i in 0..BURST {
        let key = format!("burst-{i}");
        let set = Request::Set {
            key: key.as_bytes(),
            value: i as u64,
            ttl: 0,
        };
        c.submit(&set, None);
    }
    let (mut done, mut overloaded) = (0, 0);
    for _ in 0..BURST {
        c.wait().unwrap();
        match c.answer().unwrap().unwrap().1 {
            Response::Done => done += 1,
            Response::Overloaded { .. } => overloaded += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(done >= 1, "some of the burst must be admitted");
    assert!(
        overloaded >= 1,
        "a burst past queue_limit must shed its tail (done={done})"
    );
    // The connection survived all of it.
    assert_eq!(
        c.call(&Request::Get { key: b"burst-0" }).unwrap(),
        Response::Value {
            found: true,
            value: 0
        }
    );
    handle.request_shutdown();
    let summary = handle.join();
    assert_eq!(summary.shed_total, overloaded);
}

#[test]
fn oversized_frame_survives_and_resynchronizes_on_the_wire() {
    let handle = spawn(config(Mode::Gocc)).expect("spawn");
    // A frame declaring more than MAX_FRAME bytes, fully delivered, then
    // a valid request: the server must answer an Error for the oversized
    // frame, discard its body, and serve the valid request on the same
    // connection.
    let oversized = (MAX_FRAME + 17) as u32;
    let mut wire = Vec::new();
    wire.extend_from_slice(&oversized.to_le_bytes());
    wire.resize(wire.len() + oversized as usize, 0xEE);
    let set = Request::Set {
        key: b"after-oversize",
        value: 9,
        ttl: 0,
    };
    encode_request_v2(&set, None, &mut wire);
    let mut raw = TcpStream::connect(("127.0.0.1", handle.port())).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&wire).unwrap();
    let mut recv = || {
        let mut len = [0u8; 4];
        raw.read_exact(&mut len).unwrap();
        let mut body = vec![0; u32::from_le_bytes(len) as usize];
        raw.read_exact(&mut body).unwrap();
        body
    };
    let first = recv();
    let Response::Error { message } = decode_response(&first).unwrap() else {
        panic!("oversized frame must be answered with an Error");
    };
    assert!(message.contains("size limit"), "{message}");
    assert_eq!(decode_response(&recv()).unwrap(), Response::Done);
    let mut c = connect(handle.port());
    assert_eq!(
        c.call(&Request::Get {
            key: b"after-oversize"
        })
        .unwrap(),
        Response::Value {
            found: true,
            value: 9
        }
    );
    handle.request_shutdown();
    let summary = handle.join();
    assert_eq!(summary.oversized_frames, 1);
    assert_eq!(summary.malformed_frames, 0);
}
