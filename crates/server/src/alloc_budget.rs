//! Allocation budget for the request path (unit-test build only).
//!
//! Every data verb is a batch entry and the batch path's buffers live on
//! the connection, so once a connection has seen its pipeline depth a pump
//! pass — read, decode, admit, one section per shard-group, encode, write
//! — must perform **zero** heap allocations. This pins that with the same
//! per-thread counting `#[global_allocator]` as
//! `optilock/tests/alloc_budget.rs`: the test thread plays the worker
//! (it owns the `Worker` and drives its passes exactly as `worker_loop`
//! does), so the count is the worker thread's and nothing another test
//! thread allocates can perturb it. Each burst ends with the idle passes
//! and both forms of the wait behind them: the timed pass, and the
//! poll-set refill an idle worker makes before it blocks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use gocc_wire::{encode_request_v2, encode_response, Request, Response};

use crate::{idle, Next, ServerConfig, ServerState, Worker};

struct CountingAllocator;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System`; only adds bookkeeping.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: the allocator can be called while this thread's TLS is
        // being torn down, where `with` would abort the process.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// One pipelined burst: writes `burst` from the client side, then takes
/// the worker's passes (as `worker_loop` would) until the client has read
/// `resp.len()` response bytes. Returns the passes it took.
fn serve_burst(
    client: &mut TcpStream,
    worker: &mut Worker<'_>,
    set: &mut idle::PollSet,
    burst: &[u8],
    resp: &mut [u8],
) -> u64 {
    client.write_all(burst).expect("client send");
    let (mut got, mut passes) = (0, 0);
    while got < resp.len() {
        worker.pass(Instant::now());
        assert_eq!(worker.conns.len(), 1, "connection closed mid-burst");
        passes += 1;
        match client.read(&mut resp[got..]) {
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("client recv: {e}"),
        }
        assert!(passes < 1_000_000, "burst never completed");
    }
    // The passes after the burst find nothing to do, and the worker's
    // idle decision runs both ways, as it does behind a pipelined burst:
    // the timed pass on the waker alone, then the poll-set refill and the
    // wait on it (neither waits here, which allocates the same).
    let waker = &worker.state.wakeups.wakers[0];
    for _ in 0..2 {
        let now = Instant::now();
        while worker.pass(now) == Next::Pass {
            passes += 1;
        }
        worker.watch(set);
        idle::wait(waker, set, Some(Duration::ZERO));
    }
    passes + 2
}

#[test]
fn steady_state_pump_passes_do_not_allocate() {
    let state = ServerState::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("state");
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
    let (stream, _) = listener.accept().expect("accept");
    for s in [&client, &stream] {
        s.set_nodelay(true).unwrap();
        s.set_nonblocking(true).unwrap();
    }
    let mut worker = Worker::new(&state, 0, Instant::now());
    worker.adopt(stream, Instant::now());
    let mut set = idle::PollSet::default();

    // 32 frames, GET and SET alternating over 16 keys (all four shards),
    // so every pass runs read groups' neighbours and write groups alike.
    let mut burst = Vec::new();
    for i in 0..32u64 {
        let key = format!("ab-{}", i % 16);
        let req = if i % 2 == 0 {
            Request::Set {
                key: key.as_bytes(),
                value: i,
                ttl: 0,
            }
        } else {
            Request::Get {
                key: key.as_bytes(),
            }
        };
        encode_request_v2(&req, None, &mut burst);
    }
    // Response sizes are fixed per verb: 16 `Done` and 16 `Value` frames.
    let mut resp = Vec::new();
    for _ in 0..16 {
        encode_response(&Response::Done, &mut resp);
        let value = Response::Value {
            found: true,
            value: 0,
        };
        encode_response(&value, &mut resp);
    }

    // Warm-up: buffers grow to the pipeline depth, the thread's HTM
    // context and telemetry sites come into being.
    for _ in 0..64 {
        serve_burst(&mut client, &mut worker, &mut set, &burst, &mut resp);
    }
    let executed = state.counters.total_requests();
    let before = ALLOCS.with(Cell::get);
    let mut passes = 0;
    for _ in 0..1000 {
        passes += serve_burst(&mut client, &mut worker, &mut set, &burst, &mut resp);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(
        allocs, 0,
        "{passes} steady-state pump passes over 32 000 GET/SET frames must not allocate"
    );
    assert!(passes >= 1000);
    assert_eq!(state.counters.total_requests() - executed, 32_000);
}
