//! The open loop measures the server, not a nap of its own: on an idle
//! server its p50 stays within a small factor of the window loop's at
//! depth 1. Its own binary, so no other test shares the box with it.

use std::time::Duration;

use gocc_loadgen::{run_point, LoadConfig, Schedule};
use gocc_server::{spawn, Mode, ServerConfig};

/// Most open-loop p50 per window-loop p50 in one run. The open loop's
/// wait ends when its answer arrives, so on top of the window loop's round
/// trip it pays only its own wake-up at each due instant. On a 2-vCPU VM
/// the open loop read 52–100 µs and the window loop 15–25 µs or 44–50 µs
/// (its client and the worker on one CPU or two), a ratio of 1.2–4.0x in
/// 70 runs (9 above 3x). A loop that naps up to 500 µs between passes
/// read 12–17x in 20 runs.
const MAX_P50_RATIO: u64 = 6;

#[test]
fn open_loop_p50_is_near_the_window_loops() {
    let handle = spawn(ServerConfig {
        mode: Mode::Gocc,
        port: 0,
        workers: 1,
        shards: 2,
        capacity_per_shard: 4096,
        ..ServerConfig::default()
    })
    .expect("spawn");
    let p50 = |schedule| {
        let cfg = LoadConfig {
            schedule,
            warmup: Duration::from_millis(50),
            window: Duration::from_millis(500),
            scan_every: 0,
            ..LoadConfig::default()
        };
        let r = run_point(handle.port(), &cfg).expect("run");
        r.latency.quantile(0.5)
    };
    let rate = Schedule::Rate {
        per_conn: 200.0,
        max_inflight: 256,
    };
    // Side by side on the server's one worker, so both loops see the same
    // box and the same worker.
    let (window, open) = std::thread::scope(|s| {
        let window = s.spawn(|| p50(Schedule::Window(1)));
        let open = p50(rate);
        (window.join().expect("window loop"), open)
    });
    assert!(
        open <= MAX_P50_RATIO * window,
        "open loop p50 {open} ns against the window loop's {window} ns"
    );
    handle.request_shutdown();
    let _ = handle.join();
}
