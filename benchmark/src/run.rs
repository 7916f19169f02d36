//! One `--workload` run: set-up, the timed window, the output checks,
//! and — with `--trace 1` — the traced pass and the single-layer probes.

use std::time::{Duration, Instant};

use gocc_workloads::Mode;

use crate::guard;
use crate::layers;
use crate::ops::{KeyTable, Mix, Op, Verb};
use crate::procfs;
use crate::report::{ratio, Metrics, RunResult, END_TO_END, PER_LAYER};
use crate::section::{self, Outcome, World};
use crate::serve::{self, Inputs, Measured, Rig, Spec};
use crate::spans::{self, SelfTimes, SpanLog};
use crate::stats;
use crate::window::{percentile_us, Window};
use crate::workloads::{Kind, Workload};

/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Window of the throwaway set-ups: long enough to mark five slices.
const TOKEN_WINDOW_S: f64 = 0.02;

/// An expected value the self-test corrupts, to prove a check fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corrupt {
    /// One expected GET value of the FIFO response model.
    Fifo,
    /// One expected counter total of the counter oracle.
    Counter,
    /// One expected recovered value of the recovery oracle.
    Recovery,
}

/// Arguments of one run.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt: Option<Corrupt>,
}

fn stage(args: &Args, name: &str, limit_s: f64) {
    guard::enter_stage(args.workload.name, name, Duration::from_secs_f64(limit_s));
}

/// Runs the workload and returns its result.
#[must_use]
pub fn run(args: &Args) -> RunResult {
    // goccd does the same at boot: without it the single-thread bypass
    // would route every section to the lock on a small box.
    gocc_gosync::set_procs(8);
    // Before any thread takes a seat: the CPUs the process was given.
    let _ = procfs::cpus();
    let mut result = match (args.trace, args.workload.kind) {
        (
            false,
            Kind::Section {
                mix,
                threads,
                warm_ops,
            },
        ) => end_to_end_section(args, mix, threads, warm_ops),
        (false, Kind::Serve(spec)) => end_to_end_serve(args, spec),
        (true, _) => traced(args),
    };
    result.correct = result.failed == 0 && result.lost_acked == 0;
    result
}

fn window_metrics(m: &mut Metrics, w: &Window) {
    m.set("ops_per_s", w.ops_per_s());
    m.set("lat_p50_us", w.lat_us(0.50));
    m.set("lat_p90_us", w.lat_us(0.90));
    m.set("cpu_us_per_op", w.cpu_us_per_op());
}

fn end_to_end_section(args: &Args, mix: Mix, threads: usize, warm_ops: u64) -> RunResult {
    stage(args, "generate", 30.0);
    let streams = section::streams(args.seed, &mix, threads);
    let mut result = RunResult::new(END_TO_END);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut measured: Option<Outcome> = None;
    for i in 0..SETUPS {
        let last = i + 1 == SETUPS;
        stage(args, "set-up and window", 60.0 + args.seconds);
        let t0 = Instant::now();
        let mut world = World::new(mix, &streams);
        let built_s = t0.elapsed().as_secs_f64();
        let window_s = if last { args.seconds } else { TOKEN_WINDOW_S };
        let out = world.run(Mode::Gocc, threads, warm_ops, window_s);
        setups.push(built_s + out.warm_s);
        result.attempted += out.attempted;
        result.failed += out.failed;
        result.failed += world.check_counters(last && args.corrupt == Some(Corrupt::Counter));
        if last {
            measured = Some(out);
        }
    }
    let out = measured.expect("the last set-up is measured");
    let m = &mut result.metrics;
    window_metrics(m, &out.window);
    m.set("peak_rss_mb", procfs::peak_rss_mb());
    m.set("setup_s", stats::median(&setups));
    result
}

fn end_to_end_serve(args: &Args, spec: Spec) -> RunResult {
    stage(args, "generate", 30.0);
    let inputs = Inputs::new(args.seed, &spec);
    let mut result = RunResult::new(END_TO_END);
    let mut setups = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        let last = i + 1 == SETUPS;
        stage(args, "set-up", 60.0);
        let t0 = Instant::now();
        let mut rig = Rig::set_up(spec, &inputs, None);
        setups.push(t0.elapsed().as_secs_f64());
        if last {
            rig.client.corrupt_next_get = args.corrupt == Some(Corrupt::Fifo);
            stage(args, "window", 60.0 + args.seconds);
            let measured = rig.measure(args.seconds, None);
            window_metrics(&mut result.metrics, &measured.run.window);
            // Read before tear-down: the recovery oracle loads the whole
            // log, which is the benchmark's memory, not the system's.
            result.metrics.set("peak_rss_mb", procfs::peak_rss_mb());
        }
        result.attempted += rig.client.attempted;
        result.failed += rig.client.failed;
        stage(args, "shutdown and recovery", 60.0);
        let (_, lost) = rig.tear_down(last && args.corrupt == Some(Corrupt::Recovery));
        result.lost_acked += lost;
    }
    result.metrics.set("setup_s", stats::median(&setups));
    result
}

/// The section-level runs every traced pass makes on the workload's own
/// mix: two threads elided, one thread elided, two threads under the
/// original locks, and a one-thread replay with a timer around each call.
struct SectionProbe {
    /// The first thread's op stream, for the single-layer probes.
    stream: Vec<Op>,
    gocc2: Outcome,
    gocc1: Outcome,
    lock2: Outcome,
    replay_ops_per_s: f64,
    batch_ns_per_op: f64,
    wrong_counters: u64,
}

fn section_probe(
    args: &Args,
    mix: Mix,
    warm_ops: u64,
    each_s: f64,
    log: &mut SpanLog,
) -> SectionProbe {
    stage(args, "section probe", 60.0 + 4.0 * each_s);
    let streams = section::streams(args.seed, &mix, 2);
    let mut world = World::new(mix, &streams);
    let gocc2 = world.run(Mode::Gocc, 2, warm_ops, each_s);
    let gocc1 = world.run(Mode::Gocc, 1, warm_ops / 8, each_s);
    let lock2 = world.run(Mode::Lock, 2, warm_ops / 8, each_s);
    let replay_ops_per_s = world.replay_timed(each_s, log);
    let wrong_counters = world.check_counters(false);
    let batch_ns_per_op = world.batch_ns_per_op(4096);
    drop(world);
    SectionProbe {
        stream: streams.into_iter().next().expect("two streams"),
        gocc2,
        gocc1,
        lock2,
        replay_ops_per_s,
        batch_ns_per_op,
        wrong_counters,
    }
}

fn section_layer_metrics(m: &mut Metrics, p: &SectionProbe, log: &SpanLog) {
    let htm = &p.gocc2.htm;
    let opti = &p.gocc2.opti;
    let ops = p.gocc2.window.completed as f64 + 1.0; // warm-up ops are in the counters' past
    let sections = (opti.fast_commits + opti.slow_sections) as f64;
    let kop = ops / 1000.0;
    m.set(
        "htm.commit_frac",
        ratio(htm.commits as f64, htm.starts as f64),
    );
    m.set(
        "htm.read_only_commit_frac",
        ratio(htm.read_only_commits as f64, htm.commits as f64),
    );
    m.set(
        "htm.abort_conflict_per_kop",
        htm.aborts_conflict as f64 / kop,
    );
    m.set(
        "htm.abort_capacity_per_kop",
        htm.aborts_capacity as f64 / kop,
    );
    m.set(
        "htm.abort_explicit_per_kop",
        htm.aborts_explicit as f64 / kop,
    );
    m.set(
        "htm.direct_section_frac",
        ratio(htm.direct_sections as f64, sections),
    );
    m.set(
        "htm.ctx_reuse_frac",
        ratio(htm.ctx_reused as f64, htm.starts as f64),
    );
    m.set(
        "htm.two_thread_scaling_x",
        ratio(p.gocc2.window.ops_per_s(), p.gocc1.window.ops_per_s()),
    );
    m.set(
        "optilock.fast_frac",
        ratio(opti.fast_commits as f64, sections),
    );
    m.set(
        "optilock.attempts_per_section",
        ratio(opti.htm_attempts as f64, sections),
    );
    m.set(
        "optilock.perceptron_slow_frac",
        ratio(
            opti.perceptron_slow as f64,
            (opti.perceptron_htm + opti.perceptron_slow) as f64,
        ),
    );
    m.set(
        "optilock.bypass_frac",
        ratio(opti.single_thread_bypass as f64, sections),
    );
    m.set(
        "optilock.gocc_over_lock_x",
        ratio(p.gocc2.window.ops_per_s(), p.lock2.window.ops_per_s()),
    );
    m.set("gosync.lock_mode_ops_per_s", p.lock2.window.ops_per_s());
    m.set("workloads.cache_get_ns", log.mean_ns("cache_get"));
    m.set("workloads.cache_set_ns", log.mean_ns("cache_set"));
    m.set("workloads.cache_incr_ns", log.mean_ns("cache_incr"));
    m.set("workloads.cache_batch_ns_per_op", p.batch_ns_per_op);
}

fn single_layer_metrics(args: &Args, m: &mut Metrics, keys: &KeyTable, stream: &[Op]) {
    stage(args, "layer probes", 120.0);
    m.set("optilock.empty_section_ns", layers::empty_section_ns());
    let (lock_ns, rlock_ns) = layers::gosync_pair_ns();
    m.set("gosync.lock_unlock_ns", lock_ns);
    m.set("gosync.rlock_runlock_ns", rlock_ns);
    let (get_ns, insert_ns) = layers::txmap_ns(keys);
    m.set("txds.map_get_ns", get_ns);
    m.set("txds.map_insert_ns", insert_ns);
    let wire = layers::wire_cost(stream, keys);
    m.set("wire.encode_req_ns", wire.encode_req_ns);
    m.set("wire.decode_req_ns", wire.decode_req_ns);
    m.set("wire.encode_resp_ns", wire.encode_resp_ns);
    m.set("wire.decode_resp_ns", wire.decode_resp_ns);
    m.set("wire.bytes_per_req", wire.bytes_per_req);
    m.set("wire.bytes_per_resp", wire.bytes_per_resp);
    let wal = serve::wal_probe(200);
    m.set("wal.stage_ns", wal.stage_ns);
    m.set("wal.fsync_us", wal.fsync_us);
    m.set("wal.open_ms", wal.open_ms);
    m.set("wal.recover_ms", wal.recover_ms);
    m.set("wal.recovered_records", wal.recovered_records);
}

fn driver_metrics(m: &mut Metrics, w: &Window, sends: u64, late: u64) {
    let all = w.sorted_samples(None);
    m.set("driver.lat_p99_us", percentile_us(&all, 0.99));
    m.set("driver.lat_p999_us", percentile_us(&all, 0.999));
    m.set("driver.late_frac", ratio(late as f64, sends as f64));
    m.set(
        "driver.slice_spread_frac",
        stats::spread_frac(&w.slice_rates()),
    );
    m.set(
        "driver.get_p50_us",
        percentile_us(&w.sorted_samples(Some(Verb::Get)), 0.5),
    );
    m.set(
        "driver.set_p50_us",
        percentile_us(&w.sorted_samples(Some(Verb::Set)), 0.5),
    );
    m.set("driver.samples", all.len() as f64);
}

fn server_metrics(m: &mut Metrics, plain: &Measured, self_times: &SelfTimes) {
    let done = plain.run.window.completed as f64;
    let secs = plain.run.window.elapsed_s;
    let client_p50 = percentile_us(&plain.run.window.sorted_samples(None), 0.5);
    let server_p50 = plain.stats.lat_p50_ns / 1e3;
    m.set("server.req_latency_p50_us", server_p50);
    m.set("server.residual_us", client_p50 - server_p50);
    m.set(
        "server.worker_wakeups_per_s",
        ratio(plain.threads.workers.voluntary_switches as f64, secs),
    );
    m.set(
        "server.worker_cpu_us_per_op",
        ratio(plain.threads.workers.cpu_ns as f64 / 1e3, done),
    );
    m.set(
        "server.requests_per_batch",
        ratio(plain.stats.batched_requests, plain.stats.batches),
    );
    m.set(
        "server.single_batch_frac",
        ratio(plain.stats.single_batches, plain.stats.batches),
    );
    m.set("server.queue_depth_max", plain.stats.queue_depth_max);
    m.set(
        "server.shed_frac",
        ratio(plain.stats.shed, plain.stats.requests),
    );
    for kind in [
        "wire_decode",
        "queue_wait",
        "section",
        "store_op",
        "batch_exec",
        "wal_commit",
        "response_write",
    ] {
        m.set(&format!("server.span.{kind}_us"), self_times.mean_us(kind));
    }
    m.set("server.span.n", self_times.requests as f64);
    m.set(
        "wal.records_per_fsync",
        ratio(plain.stats.wal_records, plain.stats.wal_fsyncs),
    );
    m.set("wal.fsyncs_per_s", ratio(plain.stats.wal_fsyncs, secs));
    m.set(
        "wal.bytes_per_record",
        ratio(plain.stats.wal_bytes, plain.stats.wal_records),
    );
    m.set(
        "wal.syncer_cpu_us_per_op",
        ratio(plain.threads.syncer.cpu_ns as f64 / 1e3, done),
    );
}

/// The `--trace 1` run: per-layer metrics only.
fn traced(args: &Args) -> RunResult {
    let name = args.workload.name;
    let mix = args.workload.mix();
    let mut result = RunResult::new(PER_LAYER);
    let mut log = SpanLog::default();
    let mut server_spans = Vec::new();
    let mut self_times = SelfTimes::default();

    // A server workload spends half its time on the section probe's four
    // runs and half on its own two windows; a section workload spends it
    // all on the probe, which is its traced pass.
    let (probe_each_s, probe_warm) = match args.workload.kind {
        Kind::Section { warm_ops, .. } => (args.seconds / 4.0, warm_ops),
        Kind::Serve(_) => (args.seconds / 8.0, 400_000),
    };
    let probe = section_probe(args, mix, probe_warm, probe_each_s, &mut log);
    for out in [&probe.gocc2, &probe.gocc1, &probe.lock2] {
        result.attempted += out.attempted;
        result.failed += out.failed;
    }
    result.failed += probe.wrong_counters;
    section_layer_metrics(&mut result.metrics, &probe, &log);

    let keys = KeyTable::new(&mix);
    single_layer_metrics(args, &mut result.metrics, &keys, &probe.stream);

    let m = &mut result.metrics;
    match args.workload.kind {
        Kind::Section { .. } => {
            driver_metrics(m, &probe.gocc2.window, 0, 0);
            m.set(
                "telemetry.trace_overhead_frac",
                1.0 - ratio(probe.replay_ops_per_s, probe.gocc1.window.ops_per_s()),
            );
            // The server layer still has a set-up cost to report.
            stage(args, "server spawn probe", 60.0);
            let (spawn_ms, shutdown_ms) = serve::spawn_probe();
            m.set("server.spawn_ms", spawn_ms);
            m.set("server.shutdown_ms", shutdown_ms);
        }
        Kind::Serve(spec) => {
            let inputs = Inputs::new(args.seed, &spec);
            let window_s = args.seconds / 4.0;
            stage(args, "untraced window", 120.0 + window_s);
            let mut rig = Rig::set_up(spec, &inputs, None);
            m.set("server.spawn_ms", rig.spawn_ms);
            let plain = rig.measure(window_s, None);
            result.attempted += rig.client.attempted;
            result.failed += rig.client.failed;
            let (shutdown_ms, lost) = rig.tear_down(false);
            result.lost_acked += lost;
            m.set("server.shutdown_ms", shutdown_ms);

            stage(args, "traced window", 120.0 + window_s);
            let mut rig = Rig::set_up(spec, &inputs, Some(1));
            let traced = rig.measure(window_s, Some(&mut log));
            result.attempted += rig.client.attempted;
            result.failed += rig.client.failed;
            let (_, lost) = rig.tear_down(false);
            result.lost_acked += lost;

            self_times = spans::server_self_times(&traced.server_spans);
            server_metrics(m, &plain, &self_times);
            driver_metrics(m, &plain.run.window, plain.run.sends, plain.run.late_sends);
            m.set(
                "telemetry.trace_overhead_frac",
                1.0 - ratio(traced.run.window.ops_per_s(), plain.run.window.ops_per_s()),
            );
            server_spans = traced.server_spans;
        }
    }

    stage(args, "trace file", 60.0);
    let path = guard::scratch_root().join(format!("trace-{name}.json"));
    if let Err(e) =
        spans::write_trace_file(&path, name, args.seed, &log, &server_spans, &self_times)
    {
        guard::harness_error(&format!("cannot write {}: {e}", path.display()));
    }
    eprintln!("benchmark: spans written to {}", path.display());
    result
}
