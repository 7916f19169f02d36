//! The acceptor under descriptor exhaustion: `accept()` failing with
//! `EMFILE` is counted, retried with a growing pause instead of in a hot
//! loop (the listener stays readable the whole time), and the queued
//! connection is served once descriptors are back.
//!
//! Alone in its file, and so in its process: it lowers `RLIMIT_NOFILE`.

use std::fs::File;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use gocc_server::{spawn, ServerConfig};
use gocc_wire::{Pipe, Request, Response};

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: std::ffi::c_int = 7;

extern "C" {
    fn getrlimit(resource: std::ffi::c_int, limit: *mut Rlimit) -> std::ffi::c_int;
    fn setrlimit(resource: std::ffi::c_int, limit: *const Rlimit) -> std::ffi::c_int;
}

/// CPU nanoseconds the acceptor thread has used. (A thread names itself
/// as it starts, so right after `spawn` it may take a moment to appear.)
fn acceptor_cpu_ns() -> u64 {
    let t0 = Instant::now();
    loop {
        for task in std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .flatten()
        {
            let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            if comm.starts_with("goccd-acceptor") {
                let schedstat = std::fs::read_to_string(task.path().join("schedstat")).unwrap();
                return schedstat
                    .split_whitespace()
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap();
            }
        }
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "no goccd-acceptor thread"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn accept_failures_are_counted_and_backed_off_and_the_connection_survives() {
    let handle = spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("spawn");
    let counters = handle.state().counters();

    // Reading procfs takes a descriptor, so the acceptor's CPU time is
    // read before they run out and after they are back.
    let cpu0 = acceptor_cpu_ns();

    // Lower the soft limit, then hold every descriptor under it.
    let mut limit = Rlimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a live, writable `struct rlimit`.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) }, 0);
    limit.cur = limit.cur.min(256);
    // SAFETY: `limit` is a live `struct rlimit`; lowering the soft limit
    // is always permitted.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &limit) }, 0);
    let mut hoard: Vec<File> = std::iter::from_fn(|| File::open("/dev/null").ok()).collect();
    assert!(!hoard.is_empty() && hoard.len() < 256);

    // One descriptor for the client's end. The kernel completes the
    // handshake from the listen queue, so `connect` succeeds — and the
    // server's `accept()` has nothing left to return the peer in.
    drop(hoard.pop());
    let stream = TcpStream::connect(("127.0.0.1", handle.port())).expect("connect");
    // Non-blocking while nothing can answer: the pump only sends.
    stream.set_nonblocking(true).unwrap();
    let mut client = Pipe::new(stream);
    client.submit(&Request::Health, None);
    client.pump().expect("send");

    let t0 = Instant::now();
    std::thread::sleep(Duration::from_millis(400));
    let errors = counters.accept_errors();
    // 1 + 2 + 4 + … + 64 ms of pauses is seven failures, 100 ms each after.
    assert!(
        (3..=12).contains(&errors),
        "{errors} accept errors in {:?}: not backing off 1 ms → 100 ms",
        t0.elapsed()
    );
    assert_eq!(counters.accepted(), 0);

    // Descriptors return; the next retry (at most 100 ms away) takes the
    // connection, and its request has been waiting in the socket.
    drop(hoard);
    let cpu = acceptor_cpu_ns() - cpu0;
    assert!(
        cpu < 20_000_000,
        "acceptor burned {} µs failing",
        cpu / 1000
    );
    let stream = client.get_ref();
    stream.set_nonblocking(false).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    client.wait().expect("recv");
    assert!(matches!(
        client.answer().expect("answer").expect("ready").1,
        Response::Health { .. }
    ));
    assert_eq!(counters.accepted(), 1);

    // The pause starts over after a success: out of descriptors again, the
    // acceptor fails at 1, 2, 4… ms once more, not every 100 ms.
    let mut hoard: Vec<File> = std::iter::from_fn(|| File::open("/dev/null").ok()).collect();
    drop(hoard.pop());
    let _second = TcpStream::connect(("127.0.0.1", handle.port())).expect("connect");
    std::thread::sleep(Duration::from_millis(150));
    let again = counters.accept_errors() - errors;
    assert!(
        again >= 4,
        "{again} accept errors in 150 ms after a success"
    );
    drop(hoard);
    while counters.accepted() < 2 {
        assert!(t0.elapsed() < Duration::from_secs(5), "second client lost");
        std::thread::sleep(Duration::from_millis(5));
    }
    let errors = counters.accept_errors();

    handle.request_shutdown();
    let summary = handle.join();
    assert_eq!(summary.conns_accepted, 2);
    assert!(summary
        .stats_json
        .contains(&format!("\"accept_errors\":{errors}")));
}
