//! End-to-end loopback tests: a real `goccd` instance, real sockets,
//! both execution modes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use gocc_faultplane::{TransportFaultPlan, TransportMix};
use gocc_server::{spawn, Mode, ServerConfig, ShardedStore};
use gocc_telemetry::JsonValue;
use gocc_wire::{decode_response, Pipe, Request, Response};

mod common;
use common::connect;

/// Writes raw `bytes` on a fresh connection and returns the body of the
/// one frame the server answers before closing it (`read_to_end` returns
/// only once the server has closed).
fn answer_then_close(port: u16, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    let mut got = Vec::new();
    stream
        .read_to_end(&mut got)
        .expect("the server closes the connection");
    let len = u32::from_le_bytes(got[..4].try_into().unwrap()) as usize;
    assert_eq!(got.len(), 4 + len, "one frame, then the close: {got:?}");
    got.split_off(4)
}

fn config(mode: Mode) -> ServerConfig {
    ServerConfig {
        mode,
        port: 0,
        workers: 2,
        shards: 2,
        capacity_per_shard: 1024,
        write_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

#[test]
fn verbs_roundtrip_in_both_modes() {
    for mode in [Mode::Lock, Mode::Gocc] {
        let handle = spawn(config(mode)).expect("spawn");
        let mut c = connect(handle.port());
        assert_eq!(
            c.call(&Request::Get { key: b"absent" }).unwrap(),
            Response::Value {
                found: false,
                value: 0
            }
        );
        assert_eq!(
            c.call(&Request::Set {
                key: b"alpha",
                value: 7,
                ttl: 0
            })
            .unwrap(),
            Response::Done
        );
        assert_eq!(
            c.call(&Request::Get { key: b"alpha" }).unwrap(),
            Response::Value {
                found: true,
                value: 7
            }
        );
        assert_eq!(
            c.call(&Request::Incr {
                key: b"ctr",
                delta: 41
            })
            .unwrap(),
            Response::Counter { value: 41 }
        );
        assert_eq!(
            c.call(&Request::Incr {
                key: b"ctr",
                delta: 1
            })
            .unwrap(),
            Response::Counter { value: 42 }
        );
        let Response::Entries { pairs } = c.call(&Request::Scan { limit: 100 }).unwrap() else {
            panic!("scan must return entries");
        };
        assert_eq!(pairs.len(), 2, "alpha + ctr");
        assert_eq!(
            c.call(&Request::Del { key: b"alpha" }).unwrap(),
            Response::Deleted { existed: true }
        );
        assert_eq!(c.call(&Request::Shutdown).unwrap(), Response::Bye);
        let summary = handle.join();
        assert_eq!(summary.malformed_frames, 0);
        assert!(summary.requests >= 8, "{summary:?}");
    }
}

#[test]
fn stats_json_parses_with_telemetry_parser() {
    for mode in [Mode::Lock, Mode::Gocc] {
        let handle = spawn(config(mode)).expect("spawn");
        let mut c = connect(handle.port());
        for i in 0..50u64 {
            let key = format!("key-{i}");
            c.call(&Request::Set {
                key: key.as_bytes(),
                value: i,
                ttl: 0,
            })
            .unwrap();
            c.call(&Request::Get {
                key: key.as_bytes(),
            })
            .unwrap();
        }
        let stats = c.call(&Request::Stats).unwrap();
        let Response::Stats { json } = stats else {
            panic!("stats must return the JSON document");
        };
        let v = JsonValue::parse(json).expect("STATS JSON parses");
        assert_eq!(
            v.get("mode").unwrap().as_str().unwrap(),
            gocc_server::mode_name(mode)
        );
        assert_eq!(v.get("entries").unwrap().as_f64(), Some(50.0));
        let reqs = v.get("requests").unwrap();
        assert_eq!(reqs.get("set").unwrap().as_f64(), Some(50.0));
        assert_eq!(reqs.get("get").unwrap().as_f64(), Some(50.0));
        // The embedded telemetry report is itself a full TelemetryReport
        // document (never null — the server always enables telemetry).
        let tele = v.get("telemetry").unwrap();
        assert!(tele.get("sites").unwrap().as_array().is_some());
        if mode == Mode::Gocc {
            let sites = tele.get("sites").unwrap().as_array().unwrap();
            assert!(!sites.is_empty(), "gocc mode must attribute sections");
        }
        c.call(&Request::Shutdown).unwrap();
        let _ = handle.join();
    }
}

#[test]
fn trace_verb_returns_spans_for_sampled_requests() {
    let mut cfg = config(Mode::Gocc);
    cfg.trace_sample_n = 1; // sample every request
    let handle = spawn(cfg).expect("spawn");
    let mut c = connect(handle.port());
    for i in 0..32u64 {
        let key = format!("t-{i}");
        c.call(&Request::Set {
            key: key.as_bytes(),
            value: i,
            ttl: 0,
        })
        .unwrap();
        c.call(&Request::Get {
            key: key.as_bytes(),
        })
        .unwrap();
        c.call(&Request::Incr {
            key: b"ctr",
            delta: 1,
        })
        .unwrap();
    }

    let Response::Trace { json } = c.call(&Request::Trace { max: 0 }).unwrap() else {
        panic!("TRACE must return the span document");
    };
    let v = JsonValue::parse(json).expect("TRACE JSON parses");
    let spans = v.get("spans").unwrap().as_array().unwrap();
    assert!(!spans.is_empty(), "sampled requests must leave spans");
    assert!(v.get("pushed").unwrap().as_f64().unwrap() > 0.0);

    // The whole request path is covered: decode → admission queue →
    // engine section → HTM attempts → perceptron decisions → store op →
    // response encode.
    let kinds: std::collections::BTreeSet<&str> = spans
        .iter()
        .map(|s| s.get("kind").unwrap().as_str().unwrap())
        .collect();
    for k in [
        "wire_decode",
        "queue_wait",
        "section",
        "htm_attempt",
        "perceptron",
        "store_op",
        "response_write",
    ] {
        assert!(kinds.contains(k), "missing span kind {k}; have {kinds:?}");
    }

    // Every HTM attempt names its outcome (commit or an abort cause).
    for s in spans.iter() {
        if s.get("kind").unwrap().as_str() == Some("htm_attempt") {
            let outcome = s.get("outcome").unwrap().as_str().unwrap();
            assert!(!outcome.is_empty());
        }
    }

    // One request's spans correlate on a single nonzero trace id: take
    // the newest store_op span and find the rest of its chain.
    let last_store = spans
        .iter()
        .rev()
        .find(|s| s.get("kind").unwrap().as_str() == Some("store_op"))
        .expect("a store_op span");
    let id = last_store.get("trace_id").unwrap().as_f64().unwrap();
    assert!(id != 0.0);
    let chain: std::collections::BTreeSet<&str> = spans
        .iter()
        .filter(|s| s.get("trace_id").unwrap().as_f64() == Some(id))
        .map(|s| s.get("kind").unwrap().as_str().unwrap())
        .collect();
    for k in ["wire_decode", "queue_wait", "store_op", "response_write"] {
        assert!(chain.contains(k), "trace {id} missing {k}; has {chain:?}");
    }

    // STATS reports the flight-recorder counters, and the drain above is
    // visible in spans_taken.
    let Response::Stats { json } = c.call(&Request::Stats).unwrap() else {
        panic!("stats must return the JSON document");
    };
    let sv = JsonValue::parse(json).expect("STATS JSON parses");
    let tr = sv.get("trace").unwrap();
    assert_eq!(tr.get("sample_n").unwrap().as_f64(), Some(1.0));
    assert!(tr.get("spans_pushed").unwrap().as_f64().unwrap() > 0.0);
    assert!(tr.get("spans_taken").unwrap().as_f64().unwrap() > 0.0);

    // The Chrome trace dump of whatever is currently retained parses and
    // carries the viewer's required fields.
    let dump = handle.state().chrome_trace_json();
    let dv = JsonValue::parse(&dump).expect("chrome dump parses");
    assert!(dv.get("traceEvents").unwrap().as_array().is_some());

    c.call(&Request::Shutdown).unwrap();
    let _ = handle.join();
}

#[test]
fn malformed_frame_kills_the_connection_not_the_server() {
    let handle = spawn(config(Mode::Gocc)).expect("spawn");
    let port = handle.port();

    // Victim connection: send garbage with a plausible header. The server
    // answers with an Error frame, then closes.
    let mut frame = Vec::new();
    frame.extend_from_slice(&5u32.to_le_bytes());
    frame.extend_from_slice(&[0x7E, 1, 2, 3, 4]); // unknown opcode
    let body = answer_then_close(port, &frame);
    let Response::Error { message } = decode_response(&body).unwrap() else {
        panic!("expected an error response");
    };
    assert!(message.contains("malformed"), "{message}");

    // A corrupt length prefix is likewise fatal for its connection only.
    let body = answer_then_close(port, &[0, 0, 0, 0]);
    assert!(matches!(
        decode_response(&body).unwrap(),
        Response::Error { .. }
    ));

    // The server is still fully alive for a fresh connection.
    let mut good = connect(port);
    assert_eq!(
        good.call(&Request::Set {
            key: b"alive",
            value: 1,
            ttl: 0
        })
        .unwrap(),
        Response::Done
    );
    assert_eq!(
        good.call(&Request::Get { key: b"alive" }).unwrap(),
        Response::Value {
            found: true,
            value: 1
        }
    );
    assert_eq!(good.call(&Request::Shutdown).unwrap(), Response::Bye);
    let summary = handle.join();
    assert_eq!(summary.malformed_frames, 2);
}

#[test]
fn a_protocol_v1_frame_is_answered_with_one_error_then_a_close() {
    let handle = spawn(config(Mode::Gocc)).expect("spawn");
    // A v1 GET of "key": the bare opcode (0x01) first, no v2 envelope.
    // And a bare PROMOTE (0x0D) with an empty upstream, the framing the
    // replication verbs had.
    let bodies: [&[u8]; 2] = [&[0x01, 3, 0, b'k', b'e', b'y'], &[0x0D, 0, 0]];
    for bare in bodies {
        let mut frame = (bare.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(bare);
        let body = answer_then_close(handle.port(), &frame);
        let resp = decode_response(&body).unwrap();
        let Response::Error { message } = resp else {
            panic!("a bare frame {bare:?} was served: {resp:?}");
        };
        assert!(message.contains("no v2 envelope"), "{message}");
    }
    handle.request_shutdown();
    assert_eq!(handle.join().malformed_frames, 2);
}

#[test]
fn concurrent_clients_share_the_store() {
    for mode in [Mode::Lock, Mode::Gocc] {
        let handle = spawn(config(mode)).expect("spawn");
        let port = handle.port();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    let mut c = connect(port);
                    let mut last = 0u64;
                    for _ in 0..100 {
                        let Response::Counter { value } = c
                            .call(&Request::Incr {
                                key: b"shared",
                                delta: 1,
                            })
                            .unwrap()
                        else {
                            panic!("incr must return a counter");
                        };
                        // The counter only grows, so the values one
                        // connection observes are strictly increasing.
                        assert!(value > last, "{value} <= {last}");
                        last = value;
                    }
                });
            }
        });
        let mut c = connect(port);
        let Response::Value { found, value } = c.call(&Request::Get { key: b"shared" }).unwrap()
        else {
            panic!()
        };
        assert!(found);
        assert_eq!(value, 400, "no lost increments in mode {mode:?}");
        c.call(&Request::Shutdown).unwrap();
        let _ = handle.join();
    }
}

#[test]
fn injected_transport_faults_cost_connections_not_correctness() {
    // Elevated seeded transport faults on every server-side read/write:
    // short reads/writes must be absorbed by frame reassembly, stalls by
    // polling, and resets by the client reconnecting. Since SET/GET are
    // idempotent, retrying over fresh connections must converge on a
    // fully correct store — faults cost connections, never data.
    let plan = Arc::new(TransportFaultPlan::new(2024, TransportMix::uniform(0.2)));
    let mut cfg = config(Mode::Gocc);
    cfg.fault_plan = Some(Arc::clone(&plan));
    let handle = spawn(cfg).expect("spawn");
    let port = handle.port();

    // One request per fresh connection, retried on any IO error (the
    // fault plan resets connections constantly); its answer must be `want`.
    let with_retry = |req: &Request<'_>, want: Response<'_>| {
        for _ in 0..500 {
            let Ok(stream) = TcpStream::connect(("127.0.0.1", port)) else {
                continue;
            };
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            if let Ok(resp) = Pipe::new(stream).call(req) {
                assert_eq!(
                    resp, want,
                    "{req:?} lost or corrupted under transport faults"
                );
                return;
            }
        }
        panic!("500 attempts all failed — server degraded, not degrading");
    };

    const KEYS: u64 = 60;
    for i in 0..KEYS {
        let key = format!("chaos-{i}");
        let set = Request::Set {
            key: key.as_bytes(),
            value: i * 3,
            ttl: 0,
        };
        with_retry(&set, Response::Done);
    }
    for i in 0..KEYS {
        let key = format!("chaos-{i}");
        let get = Request::Get {
            key: key.as_bytes(),
        };
        let want = Response::Value {
            found: true,
            value: i * 3,
        };
        with_retry(&get, want);
    }

    assert!(
        plan.total_injected() > 0,
        "the fault plan must actually have fired"
    );
    handle.request_shutdown();
    let summary = handle.join();
    assert_eq!(
        summary.malformed_frames, 0,
        "faults must never corrupt frames"
    );
}

#[test]
fn pipelined_session_writes_on_one_shard_run_as_one_section() {
    for mode in [Mode::Lock, Mode::Gocc] {
        let handle = spawn(config(mode)).expect("spawn");
        let mut c = connect(handle.port());
        let counters = handle.state().counters();
        let batch_stats = || {
            (
                counters.batches_executed(),
                counters.single_request_batches(),
                counters.requests_per_batch().snapshot().sum,
            )
        };

        // 32 keys owned by one shard (routing depends only on the shard
        // count, so a scratch store with the server's count agrees).
        let router = ShardedStore::new(config(mode).shards, 1);
        let shard_of = |key: &str| {
            let get = Request::Get {
                key: key.as_bytes(),
            };
            router.route(&get).expect("GET routes").shard
        };
        let keys: Vec<String> = (0..)
            .map(|i| format!("sess-{i}"))
            .filter(|k| shard_of(k) == 0)
            .take(32)
            .collect();

        // A lone SET_S is a batch of one.
        let (batches0, singles0, reqs0) = batch_stats();
        let lone = c
            .call(&Request::SetS {
                key: keys[0].as_bytes(),
                value: 1,
                ttl: 0,
            })
            .unwrap();
        assert_eq!(
            lone,
            Response::DoneAt {
                shard: 0,
                version: 1
            }
        );
        assert_eq!(batch_stats(), (batches0 + 1, singles0 + 1, reqs0 + 1));

        // 32 SET_S written before any response is read: one shard-group,
        // one section, tokens ascending in arrival order.
        for (i, key) in keys.iter().enumerate() {
            let req = Request::SetS {
                key: key.as_bytes(),
                value: i as u64,
                ttl: 0,
            };
            c.submit(&req, None);
        }
        for i in 0..32u64 {
            c.wait().expect("burst recv");
            assert_eq!(
                c.answer().expect("answer").expect("ready").1,
                Response::DoneAt {
                    shard: 0,
                    version: 2 + i
                },
                "[{mode:?}] token {i}"
            );
        }
        assert_eq!(
            batch_stats(),
            (batches0 + 2, singles0 + 1, reqs0 + 33),
            "[{mode:?}] the burst must run as one section"
        );
        c.call(&Request::Shutdown).unwrap();
        let _ = handle.join();
    }
}

#[test]
fn shutdown_via_handle_terminates_workers() {
    let handle = spawn(config(Mode::Gocc)).expect("spawn");
    let mut c = connect(handle.port());
    assert_eq!(
        c.call(&Request::Set {
            key: b"x",
            value: 1,
            ttl: 0
        })
        .unwrap(),
        Response::Done
    );
    handle.request_shutdown();
    let summary = handle.join();
    assert!(summary.conns_accepted >= 1);
    let v = JsonValue::parse(&summary.stats_json).expect("final stats parse");
    assert_eq!(v.get("server").unwrap().as_str(), Some("goccd"));
}
