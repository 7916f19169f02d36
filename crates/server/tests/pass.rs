//! One pass per window, on virtual time over the in-memory link: the pass
//! that serves a window is the one that decides how to wait, its
//! connection costs one read and one write, and the conditions under
//! which a pass stops short of what it can see still get the pass after
//! it at once. Also the accounting that rides the pass (a window runs as
//! one batch per shard, and a shard-group's executions are counted once),
//! and `pass_cost`, an ignored probe of what a pass costs per request:
//!
//! ```console
//! $ cargo test --release -p gocc-server --test pass -- --ignored --nocapture
//! ```

mod common;

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{hand_worker, steady_brownout, until_it_blocks, Hand, Link, LINK_BOUND};
use gocc_faultplane::{TransportFaultPlan, TransportMix};
use gocc_server::{Next, ServerConfig, ServerState, Worker};
use gocc_telemetry::JsonValue;
use gocc_wire::{decode_response, encode_request_v2, Request, Response};

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

    // Windows in step with the tick: each still one of each. A window of
    // 32 keys, some on every shard, executes as one batch per shard.
    let keys: Vec<String> = (0..32).map(|i| format!("key-{i}")).collect();
    let counters = state.counters();
    let worker = &counters.per_worker()[0];
    let mut now = tick;
    for k in 1..=10 {
        let (executed, batches) = (worker.executed(), counters.batches_executed());
        for key in &keys {
            c.client.submit(
                &Request::Get {
                    key: key.as_bytes(),
                },
                None,
            );
        }
        c.send();
        let Next::Wait {
            blind: true,
            until: Some(tick),
        } = w.pass(now)
        else {
            panic!("no timed pass behind window {k}");
        };
        assert_eq!(c.served_calls(), (2 + k, 2 + k));
        assert_eq!(decisions(&state), 2 + k);
        assert_eq!(worker.executed() - executed, 32);
        assert_eq!(counters.batches_executed() - batches, 4, "window {k}");
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

#[test]
fn a_frame_longer_than_the_read_high_water_mark_is_read_whole() {
    // 300 000 bytes: past the 256 KiB at which a connection holding a
    // whole frame stops reading, within the 1 MiB frame limit. A pass
    // reads 64 KiB, so five passes take it all; its body decodes as no
    // request, which is answered `Error` and closes the connection.
    let state = ServerState::new(config()).expect("state");
    let t0 = Instant::now();
    let mut w = Worker::new(&state, 0, t0);
    let (mut client, served) = Link::pair(LINK_BOUND);
    w.adopt(served, t0);
    let body = vec![0xAB; 300_000 - 4];
    let mut frame = u32::try_from(body.len()).unwrap().to_le_bytes().to_vec();
    frame.extend(&body);
    client.write_all(&frame).expect("the link takes the frame");
    let mut passes = 0;
    while w.pass(t0) == Next::Pass {
        passes += 1;
        assert!(passes < 6, "still reading after {passes} passes");
    }
    // One frame, then the end of the stream.
    let mut got = Vec::new();
    client
        .read_to_end(&mut got)
        .expect("an answer and a close within five passes");
    let len = u32::from_le_bytes(got[..4].try_into().unwrap()) as usize;
    assert_eq!(got.len(), 4 + len, "one frame, then the close");
    let Ok(Response::Error { message }) = decode_response(&got[4..]) else {
        panic!("not an error answer");
    };
    assert!(message.starts_with("malformed frame"), "{message}");
    assert_eq!(state.counters().malformed(), 1);
    assert_eq!(state.counters().closed(), 1);
}

/// Takes `worker`'s passes over one window the client has sent, at `now`,
/// until the one that decides how to wait; reads the window's `depth`
/// answers. Returns the time spent inside `Worker::pass` and the instant
/// the next window starts at.
fn serve_window(
    w: &mut Worker<'_, Link>,
    c: &mut Hand,
    now: Instant,
    depth: usize,
) -> (Duration, Instant) {
    let mut in_pass = Duration::ZERO;
    let next = loop {
        let start = Instant::now();
        let next = w.pass(now);
        in_pass += start.elapsed();
        if let Next::Wait { until, .. } = next {
            break until.unwrap_or(now + Duration::from_micros(50));
        }
    };
    for _ in 0..depth {
        c.answer();
    }
    (in_pass, next)
}

/// Nanoseconds the sections of `state` have taken so far: STATS
/// `request_latency` records each shard-group's section, timed around it.
fn section_ns(state: &ServerState) -> u64 {
    state.counters().request_latency().snapshot().sum
}

/// Reads a buffer larger than a core's L2 line by line: what a window
/// touched is then out of L1 and L2, as after the idle tick on a shared
/// host.
fn evict(sweep: &[u8]) -> u8 {
    sweep.iter().step_by(64).fold(0, |acc, &b| acc ^ b)
}

/// Prints the median of `rounds` (ns per request) and its quartiles.
fn report(name: &str, rounds: &mut [(f64, f64)]) {
    let total = |r: &(f64, f64)| r.0 + r.1;
    rounds.sort_by(|a, b| total(a).total_cmp(&total(b)));
    let [q1, median, q3] = [2, 5, 8].map(|i| rounds[i]);
    println!(
        "{name:<24} {:>5.0} ns of pass per request (quartiles {:.0}–{:.0}): \
         sections {:.0}, rest {:.0}",
        total(&median),
        total(&q1),
        total(&q3),
        median.0,
        median.1
    );
}

/// The worker's own cost per request, with no socket: only the time
/// inside `Worker::pass` is counted, split into the sections (as STATS
/// `request_latency` times them) and the rest. Windows of 1, 8 and 32
/// GETs and SETs over 64 keys; then windows of 32 of the `serve_d32` mix
/// — 90 % GET, 10 % SET, uniform over 4 096 preloaded keys on a server
/// of the benchmark's size — hot, and cold: an 8 MiB read sweep between
/// windows evicts what the last one touched from L1 and L2. Each line is
/// the median of 11 rounds and its quartiles (the first round warms up).
#[test]
#[ignore = "a probe, run by hand: --ignored --nocapture, in release"]
fn pass_cost() {
    const WINDOWS: usize = 2000;
    const COLD_WINDOWS: usize = 300;
    let state = ServerState::new(config()).expect("state");
    let t0 = Instant::now();
    let (mut w, mut c) = hand_worker(&state, t0);
    let keys: Vec<String> = (0..64).map(|i| format!("key-{i}")).collect();
    let mut now = t0;
    for depth in [1, 8, 32] {
        let mut rounds = Vec::new();
        for round in 0..12 {
            let (mut in_pass, sections) = (Duration::ZERO, section_ns(&state));
            for k in 0..WINDOWS {
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
                let (spent, next) = serve_window(&mut w, &mut c, now, depth);
                (in_pass, now) = (in_pass + spent, next);
            }
            if round > 0 {
                let per_req = |ns: f64| ns / (WINDOWS * depth) as f64;
                let sections = per_req((section_ns(&state) - sections) as f64);
                rounds.push((sections, per_req(in_pass.as_nanos() as f64) - sections));
            }
        }
        report(&format!("depth {depth}"), &mut rounds);
    }

    // The benchmark's window, on a server of its size.
    let state = ServerState::new(ServerConfig {
        capacity_per_shard: ServerConfig::default().capacity_per_shard,
        ..config()
    })
    .expect("state");
    let (mut w, mut c) = hand_worker(&state, t0);
    let keys: Vec<String> = (0..4096).map(|i| format!("key-{i}")).collect();
    let mut now = t0;
    for chunk in keys.chunks(32) {
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
        now = serve_window(&mut w, &mut c, now, chunk.len()).1;
    }
    let sweep = vec![1u8; 8 << 20];
    let mut draw = 0x9e37_79b9_7f4a_7c15u64;
    let mut sink = 0;
    for (name, windows) in [
        ("serve_d32 mix, hot", WINDOWS),
        ("serve_d32 mix, cold", COLD_WINDOWS),
    ] {
        let cold = windows == COLD_WINDOWS;
        let mut rounds = Vec::new();
        for round in 0..12 {
            let (mut in_pass, mut sections) = (Duration::ZERO, 0);
            for _ in 0..windows {
                for _ in 0..32 {
                    // xorshift64: a fixed, seeded stream.
                    draw ^= draw << 13;
                    draw ^= draw >> 7;
                    draw ^= draw << 17;
                    let key = keys[(draw >> 8) as usize % keys.len()].as_bytes();
                    let req = if draw.is_multiple_of(10) {
                        Request::Set {
                            key,
                            value: draw,
                            ttl: 0,
                        }
                    } else {
                        Request::Get { key }
                    };
                    c.client.submit(&req, None);
                }
                c.send();
                if cold {
                    sink ^= evict(std::hint::black_box(&sweep));
                }
                let before = section_ns(&state);
                let (spent, next) = serve_window(&mut w, &mut c, now, 32);
                sections += section_ns(&state) - before;
                (in_pass, now) = (in_pass + spent, next);
            }
            if round > 0 {
                let per_req = |ns: f64| ns / (windows * 32) as f64;
                let sections = per_req(sections as f64);
                rounds.push((sections, per_req(in_pass.as_nanos() as f64) - sections));
            }
        }
        report(name, &mut rounds);
    }
    std::hint::black_box(sink);
}
