//! End-to-end overload tests: deadlines, HEALTH, brownout shedding and
//! oversized-frame resynchronization against a real `goccd` over loopback.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use gocc_server::{spawn, HealthState, Mode, ServerConfig};
use gocc_wire::{decode_response, encode_request_v2, Pipe, Request, Response, MAX_FRAME};

mod common;
use common::connect;

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
    let handle = spawn(cfg).expect("spawn");
    let mut c = connect(handle.port());
    handle.state().brownout().observe(1_000.0, 0.0);
    handle.state().brownout().observe(1_000.0, 0.0);
    assert_eq!(handle.state().brownout().state(), HealthState::Shedding);
    // With no load, the workers' idle observations decay the EWMAs and
    // the server must walk back to Healthy well within 5 seconds.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Response::Health { state, .. } = c.call(&Request::Health).unwrap() {
            if HealthState::from_u8(state) == HealthState::Healthy {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server failed to recover within 5s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let t = handle.state().brownout().transitions();
    assert!(
        t[2] >= 1 && t[3] >= 1,
        "recovery edges must be counted: {t:?}"
    );
    handle.request_shutdown();
    let _ = handle.join();
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
