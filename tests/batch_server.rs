//! End-to-end checks for batched section execution: a pipelined client
//! against a real `goccd`, compared verb-for-verb with the sequential
//! path, plus the deadline and fault-injection edges of the batch pump.
//!
//! The server's batch pump groups each pump pass's decoded frames by
//! shard and runs every shard-group through ONE elided section, so these
//! tests pin the contract that makes that safe:
//!
//! * responses come back strictly in submission order, byte-identical to
//!   what the one-frame-at-a-time path produces (including a SCAN mid
//!   stream, which flushes the pending batch before it runs), in memory
//!   and with a write-ahead log under group commit, where each write's
//!   answer parks until its record is durable;
//! * a deadline that expires *mid-batch* — after admission but before the
//!   response is encoded — replaces only the response; the write itself
//!   stays applied (the WAL/replication pipeline already shipped it);
//! * injected HTM aborts retry the whole shard-group (the documented
//!   fallback unit), never yielding torn or reordered results.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use gocc_faultplane::{AbortMix, HtmFaultPlan, LoadFaultPlan, LoadMix};
use gocc_repro::optilock::{GoccConfig, GoccRuntime};
use gocc_repro::workloads::{Engine, Mode};
use gocc_server::{spawn, BatchScratch, ServerConfig, ShardedStore, SyncPolicy, WalConfig};
use gocc_wire::{decode_response, encode_response, Pipe, Request, Response};

fn config(mode: Mode) -> ServerConfig {
    ServerConfig {
        mode,
        port: 0,
        workers: 1,
        shards: 4,
        capacity_per_shard: 1 << 12,
        write_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

fn connect(port: u16) -> Pipe<TcpStream> {
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    Pipe::new(stream)
}

/// The next answer on `pipe` as the body the server sent: decoding is
/// exact, so encoding the answer again gives back the server's bytes.
fn answer_bytes(pipe: &mut Pipe<TcpStream>) -> Vec<u8> {
    pipe.wait().expect("recv");
    let (_, resp) = pipe.answer().expect("answer").expect("ready");
    let mut frame = Vec::new();
    encode_response(&resp, &mut frame);
    frame.split_off(4)
}

/// The deterministic mixed-verb script both drivers run: every data verb,
/// keys spread over all four shards, repeated hits on the same keys so
/// GET/INCR/DEL observe earlier writes, a SCAN in the middle of each
/// round (the one data verb the batch pump must flush around, in order),
/// and the session verbs — SET_S, a GET_S whose floor sits near the
/// shard's version (so whether it answers the value or `Behind` depends on
/// the writes ahead of it, including ones in its own shard-group), and a
/// GET_S whose floor is far ahead of the shard.
fn script() -> Vec<(String, u8)> {
    let mut ops = Vec::new();
    for round in 0..10u64 {
        for k in 0..10u64 {
            ops.push((format!("bk-{k}"), ((round + k) % 8) as u8));
        }
    }
    ops
}

fn request_for(key: &str, verb: u8, round: usize) -> Request<'_> {
    match verb {
        0 => Request::Set {
            key: key.as_bytes(),
            value: (round as u64 + 1) * 1000,
            ttl: 0,
        },
        1 => Request::Get {
            key: key.as_bytes(),
        },
        2 => Request::Incr {
            key: key.as_bytes(),
            delta: 7,
        },
        3 => Request::Del {
            key: key.as_bytes(),
        },
        4 => Request::Scan { limit: 16 },
        5 => Request::SetS {
            key: key.as_bytes(),
            value: round as u64 + 5,
            ttl: 0,
        },
        6 => Request::GetS {
            key: key.as_bytes(),
            min_version: round as u64 / 6,
        },
        _ => Request::GetS {
            key: key.as_bytes(),
            min_version: 1 << 40,
        },
    }
}

/// A fresh data directory for one server, removed when dropped.
struct DataDir(PathBuf);

impl DataDir {
    fn new(name: &str) -> DataDir {
        let dir = std::env::temp_dir().join(format!("gocc-oracle-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DataDir(dir)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A server of `mode`, in memory or, when `logged`, with a write-ahead log
/// in `dir` under group commit: every write's answer then parks until its
/// record is durable, and is released by a later pass.
fn oracle_config(mode: Mode, logged: bool, dir: &DataDir) -> ServerConfig {
    ServerConfig {
        data_dir: logged.then(|| dir.0.clone()),
        wal: WalConfig {
            sync: SyncPolicy::Group,
            ..WalConfig::default()
        },
        ..config(mode)
    }
}

#[test]
fn pipelined_mixed_verbs_match_the_sequential_oracle_in_both_modes() {
    for (mode, logged) in [Mode::Lock, Mode::Gocc]
        .map(|m| [(m, false), (m, true)])
        .concat()
    {
        let ops = script();
        let dirs = [DataDir::new("sequential"), DataDir::new("pipelined")];

        // Sequential oracle: its own fresh server, one frame at a time.
        let oracle = spawn(oracle_config(mode, logged, &dirs[0])).expect("spawn oracle");
        let mut pipe = connect(oracle.port());
        let mut expected: Vec<Vec<u8>> = Vec::new();
        for (i, (key, verb)) in ops.iter().enumerate() {
            pipe.submit(&request_for(key, *verb, i), None);
            expected.push(answer_bytes(&mut pipe));
        }
        drop(pipe);
        oracle.request_shutdown();
        let _ = oracle.join();

        // Pipelined run: fresh server, the same script in bursts of 32
        // frames written before any response is read.
        let pipelined = spawn(oracle_config(mode, logged, &dirs[1])).expect("spawn pipelined");
        let mut pipe = connect(pipelined.port());
        let mut got: Vec<Vec<u8>> = Vec::new();
        for (chunk_idx, chunk) in ops.chunks(32).enumerate() {
            for (j, (key, verb)) in chunk.iter().enumerate() {
                pipe.submit(&request_for(key, *verb, chunk_idx * 32 + j), None);
            }
            for _ in chunk {
                got.push(answer_bytes(&mut pipe));
            }
        }
        drop(pipe);
        pipelined.request_shutdown();
        let _ = pipelined.join();

        assert_eq!(got.len(), expected.len());
        // The script must actually reach every session answer: tokens, and
        // a near-floor GET_S answering each way.
        let behind =
            |i: usize| matches!(decode_response(&expected[i]), Ok(Response::Behind { .. }));
        let near_floor: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].1 == 6).collect();
        assert!(
            expected
                .iter()
                .any(|e| matches!(decode_response(e), Ok(Response::DoneAt { .. })))
                && near_floor.iter().any(|&i| behind(i))
                && near_floor.iter().any(|&i| !behind(i)),
            "[{mode:?} logged={logged}] script misses a session answer"
        );
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(
                g,
                e,
                "[{mode:?} logged={logged}] response {i} diverged: pipelined {:?} vs sequential {:?}",
                decode_response(g),
                decode_response(e)
            );
        }
    }
}

#[test]
fn mid_batch_deadline_expiry_suppresses_the_response_not_the_effects() {
    for mode in [Mode::Lock, Mode::Gocc] {
        // Every request's storage call takes 20ms — far past the 5ms
        // budget, so each write passes the admission pre-check (it just
        // arrived) but fails the post-check after its group executes.
        let plan = Arc::new(LoadFaultPlan::new(
            7,
            LoadMix {
                slow_store: 1.0,
                slow_store_for: Duration::from_millis(20),
                ..LoadMix::default()
            },
        ));
        let handle = spawn(ServerConfig {
            load_plan: Some(plan),
            ..config(mode)
        })
        .expect("spawn goccd");
        let mut pipe = connect(handle.port());

        let keys = ["dl-a", "dl-b", "dl-c"];
        for (i, key) in keys.iter().enumerate() {
            pipe.submit(
                &Request::Set {
                    key: key.as_bytes(),
                    value: 100 + i as u64,
                    ttl: 0,
                },
                Some(5_000), // 5ms budget vs 20ms injected store latency
            );
        }
        for key in &keys {
            assert_eq!(
                decode_response(&answer_bytes(&mut pipe)).expect("decode"),
                Response::DeadlineExceeded,
                "[{mode:?}] {key}: the post-check must replace the response"
            );
        }

        // The writes landed anyway: the deadline machinery suppresses the
        // useful response, never the committed (and WAL-acknowledged)
        // effect.
        for (i, key) in keys.iter().enumerate() {
            let get = Request::Get {
                key: key.as_bytes(),
            };
            assert_eq!(
                pipe.call(&get).expect("get"),
                Response::Value {
                    found: true,
                    value: 100 + i as u64
                },
                "[{mode:?}] {key}: effect must survive the expired deadline"
            );
        }
        drop(pipe);
        handle.request_shutdown();
        let _ = handle.join();
    }
}

#[test]
fn batched_groups_survive_injected_htm_aborts() {
    // 30% of fast-path attempts abort with injected causes; the batch
    // fallback unit is the whole shard-group (the engine re-runs the
    // group closure, and the pessimistic path takes the group's one lock
    // acquisition), so results must stay identical to a fault-free run.
    let plan = Arc::new(HtmFaultPlan::new(11, AbortMix::uniform(0.3)));
    // No-perceptron config: HTM is attempted on every group, so the plan
    // keeps injecting instead of the predictor learning to skip elision.
    let mut faulty_cfg = GoccConfig::no_perceptron();
    faulty_cfg.htm.fault_plan = Some(Arc::clone(&plan));
    let faulty_rt = GoccRuntime::new(faulty_cfg);
    let faulty = Engine::new(&faulty_rt, Mode::Gocc);
    let faulty_store = ShardedStore::new(4, 256);

    let clean_rt = GoccRuntime::new(GoccConfig::standard());
    let clean = Engine::new(&clean_rt, Mode::Gocc);
    let clean_store = ShardedStore::new(4, 256);

    let ops = script();
    let (mut scratch, mut clean_scratch) = (BatchScratch::default(), BatchScratch::default());
    for rep in 0..8 {
        for (chunk_idx, chunk) in ops.chunks(16).enumerate() {
            let reqs: Vec<Request<'_>> = chunk
                .iter()
                .enumerate()
                .map(|(j, (key, verb))| {
                    // SCAN does not route; a GET stands in for it.
                    let verb = if *verb == 4 { 1 } else { *verb };
                    request_for(key, verb, rep * 1000 + chunk_idx * 16 + j)
                })
                .collect();
            let routed: Vec<_> = reqs
                .iter()
                .map(|r| faulty_store.route(r).expect("data verbs route"))
                .collect();
            let mut outcomes = routed.clone();
            faulty_store.execute_batch(&faulty, &mut outcomes, &mut scratch, |_, _, _, run| run());
            // The clean store runs the same requests as batches of one.
            for (one, outcome) in routed.iter().zip(&outcomes) {
                let mut want = [*one];
                clean_store
                    .execute_batch(&clean, &mut want, &mut clean_scratch, |_, _, _, run| run());
                assert_eq!(
                    outcome.response(),
                    want[0].response(),
                    "injected aborts must not change batch results"
                );
            }
        }
    }
    assert!(
        plan.total_injected() > 20,
        "injection must actually fire (got {})",
        plan.total_injected()
    );
}
