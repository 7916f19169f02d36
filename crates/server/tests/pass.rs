//! One pass per window, on virtual time over the in-memory link: the pass
//! that serves a window is the one that decides how to wait, its
//! connection costs one read and one write, and the conditions under
//! which a pass stops short of what it can see still get the pass after
//! it at once. Also the accounting that rides the pass (a shard-group's
//! executions counted once), and `pass_cost`, an ignored probe of what a
//! pass costs per request:
//!
//! ```console
//! $ cargo test --release -p gocc-server --test pass -- --ignored --nocapture
//! ```

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{hand_worker, steady_brownout, until_it_blocks, Hand, Link, LINK_BOUND};
use gocc_faultplane::{TransportFaultPlan, TransportMix};
use gocc_server::{Next, ServerConfig, ServerState, Worker};
use gocc_telemetry::JsonValue;
use gocc_wire::{encode_request_v2, Request, Response};

fn config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        shards: 4,
        capacity_per_shard: 1024,
        brownout: steady_brownout(),
        ..ServerConfig::default()
    }
}

/// Submits and sends `n` GETs of `key`.
fn gets(c: &mut Hand, key: &[u8], n: usize) {
    for _ in 0..n {
        c.client.submit(&Request::Get { key }, None);
    }
    c.send();
}

/// Reads `n` answers, each a miss.
fn misses(c: &mut Hand, n: usize) {
    for _ in 0..n {
        let miss = Response::Value {
            found: false,
            value: 0,
        };
        assert_eq!(c.answer(), miss);
    }
}

/// Idle decisions worker 0 of `state` took so far, both kinds.
fn decisions(state: &ServerState) -> u64 {
    let w = &state.counters().per_worker()[0];
    w.idle_blocks() + w.coalesce_sleeps()
}

#[test]
fn a_window_costs_one_read_one_write_and_one_idle_decision() {
    let state = ServerState::new(config()).expect("state");
    let t0 = Instant::now();
    let (mut w, mut c) = hand_worker(&state, t0);

    // A lone request is read, answered and decided on in one pass, and
    // the worker blocks.
    gets(&mut c, b"k", 1);
    let blocked = Next::Wait {
        blind: false,
        until: None,
    };
    assert_eq!(w.pass(t0), blocked);
    assert_eq!(c.served_calls(), (1, 1));
    assert_eq!(decisions(&state), 1);
    misses(&mut c, 1);

    // A window of 32 the same, and then a timed pass.
    let t1 = t0 + Duration::from_millis(1);
    gets(&mut c, b"k", 32);
    let Next::Wait {
        blind: true,
        until: Some(tick),
    } = w.pass(t1)
    else {
        panic!("no timed pass behind a window");
    };
    assert_eq!(c.served_calls(), (2, 2));
    assert_eq!(decisions(&state), 2);
    misses(&mut c, 32);

    // Windows in step with the tick: each still one of each.
    let mut now = tick;
    for k in 1..=10 {
        gets(&mut c, b"k", 32);
        let Next::Wait {
            blind: true,
            until: Some(tick),
        } = w.pass(now)
        else {
            panic!("no timed pass behind window {k}");
        };
        assert_eq!(c.served_calls(), (2 + k, 2 + k));
        assert_eq!(decisions(&state), 2 + k);
        misses(&mut c, 32);
        now = tick;
    }
    // The brownout controller saw what it saw when each window was
    // followed by a pass that found nothing: a zero after every window.
    assert_eq!(state.counters().per_worker()[0].queue_depth(), 0);
}

#[test]
fn a_second_connection_is_looked_at_again_before_a_blind_wait() {
    let state = ServerState::new(config()).expect("state");
    let t0 = Instant::now();
    let mut w = Worker::new(&state, 0, t0);
    // B is adopted first, so a pass pumps it before A.
    let mut b = Hand::new(&mut w, t0, LINK_BOUND);
    let mut a = Hand::new(&mut w, t0, LINK_BOUND);

    // A's window makes the decision a timed pass, which watches no
    // socket: with B beside it, the worker looks once more first.
    gets(&mut a, b"k", 32);
    assert_eq!(w.pass(t0), Next::Pass, "a blind wait beside B");
    misses(&mut a, 32);
    // Nothing reached B: that look is the one empty pass, and then the
    // worker waits for its tick.
    let Next::Wait {
        blind: true,
        until: Some(tick),
    } = w.pass(t0)
    else {
        panic!("no timed pass behind the window");
    };
    assert_eq!(b.served_calls(), (2, 0));

    // B's GET lands after B's turn in the pass that serves A's next
    // window (the rig writes it once that pass returns, which the worker
    // cannot tell apart): it is answered at that instant, not a tick on.
    gets(&mut a, b"k", 32);
    assert_eq!(w.pass(tick), Next::Pass);
    gets(&mut b, b"k", 1);
    let blocked = Next::Wait {
        blind: false,
        until: None,
    };
    assert_eq!(w.pass(tick), blocked, "B's lone GET: the worker blocks");
    assert!(b.received(), "B answered at the window's instant");
    misses(&mut b, 1);
    misses(&mut a, 32);
    assert_eq!(decisions(&state), 2);
}

/// Takes passes at `now` while they ask for one, and returns how many
/// asked.
fn repasses(w: &mut Worker<'_, Link>, now: Instant) -> u32 {
    let mut asked = 0;
    while w.pass(now) == Next::Pass {
        asked += 1;
        assert!(asked < 1_000, "the worker never came to rest");
    }
    asked
}

#[test]
fn a_read_that_hit_the_loops_cap_is_read_on_at_once() {
    let state = ServerState::new(config()).expect("state");
    let t0 = Instant::now();
    let (mut w, mut c) = hand_worker(&state, t0);
    // 66 GETs of 1000-byte keys: more than the 16 chunks of 4 KiB a pass
    // reads, and each frame too large for the chunks to end between two
    // whole frames of the cut.
    let key = [b'k'; 1000];
    let mut frame = Vec::new();
    encode_request_v2(&Request::Get { key: &key }, None, &mut frame);
    assert!(66 * frame.len() > 16 * 4096);
    gets(&mut c, &key, 66);
    assert_eq!(w.pass(t0), Next::Pass, "the cap ended the read");
    assert_eq!(c.served_calls().0, 16);
    assert_eq!(repasses(&mut w, t0), 0);
    assert_eq!(c.served_calls(), (17, 2));
    misses(&mut c, 66);
}

#[test]
fn a_whole_frame_left_buffered_is_served_at_once() {
    // A queue limit the window stays under: none of it is shed.
    let state = ServerState::new(ServerConfig {
        queue_limit: 1024,
        ..config()
    })
    .expect("state");
    let t0 = Instant::now();
    let (mut w, mut c) = hand_worker(&state, t0);
    // 300 GETs: one read loop takes them all, a pass executes 256.
    gets(&mut c, b"k", 300);
    assert_eq!(w.pass(t0), Next::Pass, "44 whole frames left");
    assert_eq!(state.counters().total_requests(), 256);
    assert_eq!(repasses(&mut w, t0), 0);
    assert_eq!(state.counters().total_requests(), 300);
    misses(&mut c, 300);
}

#[test]
fn a_released_park_gets_its_pass_at_once() {
    let ack_timeout = Duration::from_millis(250);
    let state = ServerState::new(ServerConfig {
        repl_accept: true,
        repl_min_acks: 1,
        repl_lease: Duration::from_secs(60),
        repl_ack_timeout: ack_timeout,
        ..config()
    })
    .expect("state");
    let t0 = Instant::now();
    let _silent_replica = state.repl_feed().expect("feed").subscribe(&[0; 4], t0);
    let (mut w, mut c) = hand_worker(&state, t0);
    let set = Request::Set {
        key: b"k",
        value: 1,
        ttl: 0,
    };
    c.client.submit(&set, None);
    c.send();
    let due = t0 + ack_timeout;
    let parked = Next::Wait {
        blind: false,
        until: Some(due),
    };
    assert_eq!(w.pass(t0), parked);
    assert_eq!(w.pass(due), Next::Pass, "released, and reads resume");
    assert_eq!(repasses(&mut w, due), 0);
    let timed_out = Response::Error {
        message: "replication timed out: write not acknowledged",
    };
    assert_eq!(c.answer(), timed_out);
}

#[test]
fn a_read_a_fault_plan_cut_is_read_on_at_once() {
    let mut frame = Vec::new();
    encode_request_v2(&Request::Get { key: b"absent" }, None, &mut frame);
    // Every read is cut short; the seed is the first whose cut of the
    // connection's first read lands inside the frame.
    let mix = TransportMix {
        short_read: 1.0,
        ..TransportMix::default()
    };
    let splits_the_frame = |seed: &u64| {
        let plan = TransportFaultPlan::new(*seed, mix);
        plan.draw_read(0);
        plan.chop(0, 4096) < frame.len()
    };
    let seed = (0..1 << 20).find(splits_the_frame).expect("a seed");
    let state = ServerState::new(ServerConfig {
        fault_plan: Some(Arc::new(TransportFaultPlan::new(seed, mix))),
        ..config()
    })
    .expect("state");
    let t0 = Instant::now();
    let (mut w, mut c) = hand_worker(&state, t0);
    gets(&mut c, b"absent", 1);
    assert_eq!(w.pass(t0), Next::Pass, "the cut read is read on");
    assert_eq!(state.counters().total_requests(), 0);
    // Each pass after it reads once more, until a read takes the rest.
    let asked = repasses(&mut w, t0);
    assert_eq!(c.served_calls(), (u64::from(asked) + 2, 1));
    assert_eq!(state.counters().total_requests(), 1);
    misses(&mut c, 1);
}

#[test]
fn request_latency_counts_every_executed_request_once() {
    let state = ServerState::new(ServerConfig {
        workers: 2,
        ..config()
    })
    .expect("state");
    let t0 = Instant::now();
    let (mut w, mut c) = hand_worker(&state, t0);
    // Pipelined windows over 24 keys, so each spans every shard-group,
    // with a SCAN, which executes alone, in every other one.
    let keys: Vec<String> = (0..24).map(|i| format!("key-{i}")).collect();
    let mut now = t0;
    for round in 0..8 {
        for (i, key) in keys.iter().enumerate() {
            let key = key.as_bytes();
            let req = if (round + i) % 2 == 0 {
                Request::Set {
                    key,
                    value: 1,
                    ttl: 0,
                }
            } else {
                Request::Get { key }
            };
            c.client.submit(&req, None);
        }
        let mut sent = keys.len();
        if round % 2 == 0 {
            c.client.submit(&Request::Scan { limit: 8 }, None);
            sent += 1;
        }
        c.send();
        now = until_it_blocks(&mut w, now);
        for _ in 0..sent {
            c.answer();
        }
    }
    let Response::Stats { json } = ({
        c.client.submit(&Request::Stats, None);
        c.send();
        until_it_blocks(&mut w, now);
        c.answer()
    }) else {
        panic!("no STATS answer");
    };
    let stats = JsonValue::parse(json).expect("STATS parses");
    let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64).expect("a number") as u64;
    let latency = num(stats.get("request_latency").and_then(|l| l.get("count")));
    let workers = stats.get("per_worker").and_then(JsonValue::as_array);
    let executed: u64 = workers
        .expect("per_worker")
        .iter()
        .map(|w| num(w.get("executed")))
        .sum();
    assert_eq!(latency, executed);
    assert_eq!(executed, 8 * 24 + 4, "every GET, SET and SCAN");
}

/// The worker's own cost per request, with no socket: only the time
/// inside `Worker::pass` is counted, over windows of 1, 8 and 32 GETs
/// and SETs the client sends between passes: the median of 11 rounds
/// and their quartiles.
#[test]
#[ignore = "a probe, run by hand: --ignored --nocapture, in release"]
fn pass_cost() {
    const WINDOWS: u32 = 2000;
    let state = ServerState::new(config()).expect("state");
    let t0 = Instant::now();
    let (mut w, mut c) = hand_worker(&state, t0);
    let keys: Vec<String> = (0..64).map(|i| format!("key-{i}")).collect();
    let mut now = t0;
    for depth in [1, 8, 32] {
        let mut rounds = Vec::new();
        for round in 0..12 {
            let mut in_pass = Duration::ZERO;
            for k in 0..WINDOWS as usize {
                for i in 0..depth {
                    let key = keys[(k * depth + i) % keys.len()].as_bytes();
                    let req = if i % 2 == 0 {
                        Request::Get { key }
                    } else {
                        Request::Set {
                            key,
                            value: 1,
                            ttl: 0,
                        }
                    };
                    c.client.submit(&req, None);
                }
                c.send();
                loop {
                    let start = Instant::now();
                    let next = w.pass(now);
                    in_pass += start.elapsed();
                    match next {
                        Next::Pass => {}
                        Next::Wait { until, .. } => {
                            now = until.unwrap_or(now + Duration::from_micros(50));
                            break;
                        }
                    }
                }
                for _ in 0..depth {
                    c.answer();
                }
            }
            // The first round warms the buffers up and is not counted.
            if round > 0 {
                rounds.push(in_pass.as_nanos() as f64 / f64::from(WINDOWS) / depth as f64);
            }
        }
        rounds.sort_by(f64::total_cmp);
        let [q1, median, q3] = [2, 5, 8].map(|i| rounds[i]);
        println!(
            "depth {depth:>2}: {median:.0} ns of pass per request (quartiles {q1:.0}–{q3:.0})"
        );
    }
}
