//! The `serve_*` and `durable_w` workloads: an in-process `goccd` server
//! driven over loopback TCP by one client thread.

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gocc_server::{
    BrownoutConfig, Mode, ServerConfig, ServerHandle, ServerState, SyncPolicy, WalConfig,
};
use gocc_telemetry::JsonValue;

use crate::client::{Client, RunOut, Until, Wait};
use crate::guard;
use crate::ops::{self, KeyTable, Mix, Op, Part, STREAM_LEN};
use crate::procfs::{self, ThreadTotals};
use crate::spans::{self, ServerSpan, SpanLog};

/// Store shards the server runs with; the recovery oracle needs the same.
const SHARDS: usize = 4;
/// Frames outstanding while preloading.
const PRELOAD_DEPTH: usize = 64;
/// Server spans the traced pass keeps; draining stops past this.
const MAX_SERVER_SPANS: usize = 400_000;

/// How the client offers load.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Open loop: one request per period on one connection.
    Paced { period_ns: u64 },
    /// Closed loop: this many frames outstanding per connection.
    Pipelined { depth: usize, wait: Wait },
}

/// One server workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub mix: Mix,
    pub conns: u32,
    pub shape: Shape,
    /// Run the server with a data directory and group-commit fsync.
    pub durable: bool,
    /// SET every regular key before warm-up.
    pub preload: bool,
    pub warm_ops: u64,
}

/// Generated inputs of a server workload; made once, outside set-up.
pub struct Inputs {
    pub keys: KeyTable,
    pub streams: Vec<Vec<Op>>,
}

impl Inputs {
    #[must_use]
    pub fn new(seed: u64, spec: &Spec) -> Inputs {
        Inputs {
            keys: KeyTable::new(&spec.mix),
            streams: (0..spec.conns)
                .map(|c| {
                    let part = Part {
                        index: c,
                        of: spec.conns,
                    };
                    ops::generate(seed, u64::from(c), &spec.mix, part, STREAM_LEN)
                })
                .collect(),
        }
    }
}

/// A running server with its connected, warmed-up client.
pub struct Rig<'a> {
    handle: ServerHandle,
    pub client: Client<'a>,
    spec: Spec,
    data_dir: Option<PathBuf>,
    pub spawn_ms: f64,
    /// Present while the client spins; see [`procfs::KeepAwake`]. Not for
    /// `durable_w`, whose threads all block on each other: there the
    /// spinners got in the way (2–17 k ops/s run to run against 19 k).
    _awake: Option<procfs::KeepAwake>,
}

/// Counters read from the server's STATS document and its log.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    pub requests: f64,
    pub shed: f64,
    pub lat_count: f64,
    pub lat_sum_ns: f64,
    pub lat_p50_ns: f64,
    pub batches: f64,
    pub single_batches: f64,
    pub batched_requests: f64,
    pub queue_depth_max: f64,
    pub wal_records: f64,
    pub wal_bytes: f64,
    pub wal_fsyncs: f64,
}

impl ServerStats {
    /// Reads the public STATS document (and the log's own accessors).
    pub fn read(state: &ServerState) -> Result<ServerStats, String> {
        let doc = JsonValue::parse(&state.stats_json())?;
        let num = |path: &[&str]| {
            let mut v = &doc;
            for key in path {
                v = v.get(key)?;
            }
            v.as_f64()
        };
        let need = |path: &[&str]| num(path).ok_or(format!("STATS lacks {}", path.join(".")));
        let lat_count = need(&["request_latency", "count"])?;
        let rpb_count = need(&["batch", "requests_per_batch", "count"])?;
        let queue_depth_max = doc
            .get("per_worker")
            .and_then(JsonValue::as_array)
            .map(|ws| {
                ws.iter()
                    .filter_map(|w| w.get("queue_depth_max").and_then(JsonValue::as_f64))
                    .fold(0.0, f64::max)
            })
            .ok_or("STATS lacks per_worker")?;
        Ok(ServerStats {
            requests: need(&["requests", "total"])?,
            shed: need(&["overload", "shed_total"])?,
            lat_count,
            lat_sum_ns: need(&["request_latency", "mean_ns"])? * lat_count,
            lat_p50_ns: need(&["request_latency", "p50_ns"])?,
            batches: need(&["batch", "batches_executed"])?,
            single_batches: need(&["batch", "single_request_batches"])?,
            batched_requests: need(&["batch", "requests_per_batch", "mean"])? * rpb_count,
            queue_depth_max,
            wal_records: state.wal().map_or(0.0, |w| w.appended() as f64),
            wal_bytes: num(&["wal", "bytes"]).unwrap_or(0.0),
            wal_fsyncs: state.wal().map_or(0.0, |w| w.fsyncs() as f64),
        })
    }

    /// Growth of every counter since `earlier` (gauges keep their value).
    #[must_use]
    pub fn since(&self, earlier: &ServerStats) -> ServerStats {
        ServerStats {
            requests: self.requests - earlier.requests,
            shed: self.shed - earlier.shed,
            lat_count: self.lat_count - earlier.lat_count,
            lat_sum_ns: self.lat_sum_ns - earlier.lat_sum_ns,
            lat_p50_ns: self.lat_p50_ns,
            batches: self.batches - earlier.batches,
            single_batches: self.single_batches - earlier.single_batches,
            batched_requests: self.batched_requests - earlier.batched_requests,
            queue_depth_max: self.queue_depth_max,
            wal_records: self.wal_records - earlier.wal_records,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            wal_fsyncs: self.wal_fsyncs - earlier.wal_fsyncs,
        }
    }
}

/// Names of the threads under test in a server workload.
const SERVER_THREADS: [&str; 2] = ["goccd-", "wal-"];
const WORKER_THREADS: [&str; 1] = ["goccd-worker"];
const SYNCER_THREADS: [&str; 1] = ["wal-"];

/// What single kinds of server thread used during a window.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadUse {
    pub workers: ThreadTotals,
    pub syncer: ThreadTotals,
}

/// One timed window over a [`Rig`], with the server-side growth.
pub struct Measured {
    pub run: RunOut,
    pub stats: ServerStats,
    pub threads: ThreadUse,
    /// Server spans drained during the window (traced pass only).
    pub server_spans: Vec<ServerSpan>,
}

fn io_fail(what: &str, e: &std::io::Error) -> ! {
    guard::harness_error(&format!("{what} failed: {e}"))
}

/// Spawns the server every server workload runs against. Returns it with
/// the milliseconds `spawn` took (which include opening the log).
fn spawn_server(data_dir: Option<PathBuf>, trace_sample_n: Option<u64>) -> (ServerHandle, f64) {
    let defaults = ServerConfig::default();
    let t0 = Instant::now();
    let handle = gocc_server::spawn(ServerConfig {
        mode: Mode::Gocc,
        workers: 1,
        shards: SHARDS,
        port: 0,
        trace_sample_n: trace_sample_n.unwrap_or(defaults.trace_sample_n),
        // The brownout controller trips when mean engine time per pump
        // pass exceeds 5 ms, and then sheds writes. On this sandbox a CPU
        // stolen for tens of milliseconds inside a section does that,
        // turning a measurement into a failed run; overload behaviour is
        // `overload_soak`'s subject.
        brownout: BrownoutConfig {
            latency_high: Duration::from_secs(3600),
            ..defaults.brownout
        },
        data_dir,
        wal: WalConfig {
            sync: SyncPolicy::Group,
            ..WalConfig::default()
        },
        ..defaults
    })
    .unwrap_or_else(|e| io_fail("server spawn", &e));
    (handle, t0.elapsed().as_secs_f64() * 1e3)
}

/// Stops a server cleanly; returns the milliseconds it took.
fn stop_server(handle: ServerHandle) -> f64 {
    let t0 = Instant::now();
    handle.request_shutdown();
    let _summary = handle.join();
    t0.elapsed().as_secs_f64() * 1e3
}

/// `(spawn_ms, shutdown_ms)` of a server nobody connects to: what the
/// server layer adds to set-up, for workloads that have no server.
#[must_use]
pub fn spawn_probe() -> (f64, f64) {
    let (handle, spawn_ms) = spawn_server(None, None);
    (spawn_ms, stop_server(handle))
}

impl<'a> Rig<'a> {
    /// Everything before the first timed request: spawn the server (which
    /// opens its log when durable), connect, preload, warm up.
    /// `trace_sample_n` is `None` for the server's own default.
    pub fn set_up(spec: Spec, inputs: &'a Inputs, trace_sample_n: Option<u64>) -> Rig<'a> {
        let data_dir = spec.durable.then(|| guard::temp_dir("wal"));
        // A client that spins takes the first CPU for itself and leaves
        // the second to the server, whose threads inherit the seat of the
        // thread that spawns them. A client that sleeps shares both.
        let spins = !matches!(
            spec.shape,
            Shape::Pipelined {
                wait: Wait::Block,
                ..
            }
        );
        if spins {
            procfs::take_seat(procfs::SERVER_SEAT);
        }
        let (handle, spawn_ms) = spawn_server(data_dir.clone(), trace_sample_n);
        if spins {
            procfs::take_seat(procfs::DRIVER_SEAT);
        }
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, handle.port()));
        let mut client = Client::connect(addr, &inputs.streams, &inputs.keys)
            .unwrap_or_else(|e| io_fail("connect", &e));
        if spec.preload {
            client
                .preload(spec.mix.keys, PRELOAD_DEPTH)
                .unwrap_or_else(|e| io_fail("preload", &e));
        }
        let mut rig = Rig {
            _awake: spins.then(procfs::KeepAwake::start),
            handle,
            client,
            spec,
            data_dir,
            spawn_ms,
        };
        rig.drive(Until::Ops(spec.warm_ops), &mut |_| {}, &mut || 0, None);
        rig
    }

    fn drive(
        &mut self,
        until: Until,
        idle: &mut dyn FnMut(u64),
        cpu_ns: &mut dyn FnMut() -> u64,
        spans: Option<&mut SpanLog>,
    ) -> RunOut {
        let result = match self.spec.shape {
            Shape::Paced { period_ns } => {
                self.client.run_paced(period_ns, until, idle, cpu_ns, spans)
            }
            Shape::Pipelined { depth, wait } => self
                .client
                .run_pipelined(depth, wait, until, idle, cpu_ns, spans),
        };
        result.unwrap_or_else(|e| io_fail("request loop", &e))
    }

    /// Runs one timed window. With `spans`, the benchmark records its own
    /// spans and drains the server's flight recorder as it goes.
    pub fn measure(&mut self, seconds: f64, spans: Option<&mut SpanLog>) -> Measured {
        let stats0 =
            ServerStats::read(self.handle.state()).unwrap_or_else(|e| guard::harness_error(&e));
        let watch = procfs::Watch::new(&SERVER_THREADS);
        let workers = procfs::Watch::new(&WORKER_THREADS);
        let syncer = procfs::Watch::new(&SYNCER_THREADS);
        let read_threads = || ThreadUse {
            workers: workers.totals(),
            syncer: syncer.totals(),
        };
        let threads0 = read_threads();
        let traced = spans.is_some();
        let state = self.handle.state_arc();
        let mut docs: Vec<String> = Vec::new();
        let mut drained = 0usize;
        let mut last_drain = 0u64;
        let mut idle = |now: u64| {
            // The recorder keeps 512 spans per server thread; under load
            // that is a few hundred microseconds of history, so drain
            // every 2 ms and accept a sample of the requests.
            if traced && drained < MAX_SERVER_SPANS && now.saturating_sub(last_drain) > 2_000_000 {
                last_drain = now;
                let doc = state.trace_json(0);
                drained += doc.len() / 100;
                docs.push(doc);
            }
        };
        let run = self.drive(
            Until::Seconds(seconds),
            &mut idle,
            &mut || watch.cpu_ns(),
            spans,
        );
        let now = read_threads();
        let threads = ThreadUse {
            workers: now.workers.since(&threads0.workers),
            syncer: now.syncer.since(&threads0.syncer),
        };
        let stats = ServerStats::read(self.handle.state())
            .unwrap_or_else(|e| guard::harness_error(&e))
            .since(&stats0);
        let mut server_spans = Vec::new();
        if traced {
            docs.push(self.handle.state().trace_json(0));
            for doc in &docs {
                spans::parse_trace_json(doc, &mut server_spans)
                    .unwrap_or_else(|e| guard::harness_error(&e));
            }
        }
        Measured {
            run,
            stats,
            threads,
            server_spans,
        }
    }

    /// Stops the server cleanly and, for a durable workload, runs the
    /// recovery oracle. Returns `(shutdown_ms, lost_acked)`.
    pub fn tear_down(self, corrupt_recovery: bool) -> (f64, u64) {
        let Rig {
            handle,
            client,
            data_dir,
            ..
        } = self;
        let expected: Vec<Option<u64>> = client.model.values().to_vec();
        let keys = client.keys();
        drop(client);
        let shutdown_ms = stop_server(handle);
        let mut lost = 0;
        if let Some(dir) = data_dir {
            lost = lost_acked(&dir, keys, &expected, corrupt_recovery);
            guard::remove_temp_dir(&dir);
        }
        (shutdown_ms, lost)
    }
}

/// The recovery oracle: after a clean stop every request was
/// acknowledged, so recovering the data directory must yield, for every
/// key, exactly the value the model holds — the last one the client saw
/// acknowledged. Returns the number of keys for which it does not.
fn lost_acked(dir: &Path, keys: &KeyTable, expected: &[Option<u64>], corrupt: bool) -> u64 {
    let recovered = gocc_wal::recover(dir, SHARDS).unwrap_or_else(|e| {
        guard::harness_error(&format!("recovery of {} failed: {e}", dir.display()))
    });
    let mut on_disk: HashMap<u64, u64> = HashMap::new();
    for shard in &recovered.shards {
        for &(key, value, _exp) in &shard.entries {
            on_disk.insert(key, value);
        }
    }
    let mut lost = 0;
    let mut corrupt = corrupt;
    for (i, want) in expected.iter().enumerate() {
        let mut want = *want;
        if corrupt && want.is_some() {
            want = want.map(|v| v ^ 1);
            corrupt = false;
        }
        let got = on_disk.get(&keys.words[i]).copied();
        if got != want {
            if lost < 5 {
                eprintln!("benchmark: key {i}: recovered {got:?}, last acknowledged {want:?}");
            }
            lost += 1;
        }
    }
    lost
}

/// Times `Wal::open`, single-record `stage`→`wait` round trips and
/// `recover` on a private log in a scratch directory.
pub struct WalProbe {
    pub open_ms: f64,
    pub stage_ns: f64,
    pub fsync_us: f64,
    pub recover_ms: f64,
    pub recovered_records: f64,
}

#[must_use]
pub fn wal_probe(records: u32) -> WalProbe {
    use gocc_wal::{Staged, Wal, WalKind};
    let dir = guard::temp_dir("walprobe");
    let t0 = Instant::now();
    let (wal, _) = Wal::open(
        &dir,
        1,
        WalConfig {
            sync: SyncPolicy::Group,
            ..WalConfig::default()
        },
    )
    .unwrap_or_else(|e| guard::harness_error(&format!("Wal::open failed: {e}")));
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (mut stage_ns, mut wait_ns) = (Vec::new(), Vec::new());
    for i in 0..records {
        let t0 = Instant::now();
        let ticket = wal.stage(Staged {
            shard: 0,
            seq: u64::from(i) + 1,
            kind: WalKind::Put,
            key: u64::from(i),
            value: u64::from(i),
            exp: 0,
        });
        let t1 = Instant::now();
        wal.wait(ticket)
            .unwrap_or_else(|e| guard::harness_error(&format!("Wal::wait failed: {e:?}")));
        stage_ns.push((t1 - t0).as_nanos() as f64);
        wait_ns.push(t1.elapsed().as_nanos() as f64);
    }
    wal.shutdown();
    let t0 = Instant::now();
    let recovered = gocc_wal::recover(&dir, 1)
        .unwrap_or_else(|e| guard::harness_error(&format!("recover failed: {e}")));
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    guard::remove_temp_dir(&dir);
    WalProbe {
        open_ms,
        stage_ns: crate::stats::median(&stage_ns),
        fsync_us: crate::stats::median(&wait_ns) / 1e3,
        recover_ms,
        recovered_records: recovered.stats.replayed as f64,
    }
}
