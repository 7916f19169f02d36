//! Benchmark harness for reproducing the paper's tables and figures.
//!
//! Binaries (one per artifact) live in `src/bin/`; this library provides
//! the Go-`testing`-style driver they share: [`run_parallel`] mirrors
//! `b.RunParallel` — N workers hammer an operation for a fixed duration
//! and the result is nanoseconds per operation — and [`sweep_driver`]
//! runs a benchmark across worker counts and modes, printing paper-style
//! rows.
//!
//! Every measured GOCC point also captures the runtime's statistics
//! ([`Measured`]), and each reproduction binary writes a machine-readable
//! `BENCH_<figure>.json` artifact next to the text output — ns/op,
//! speedup percentages, commit ratios and abort-cause breakdowns — via
//! [`write_bench_json`]. The two gate binaries, `hotpath` and
//! `trace_overhead`, print their verdict and write nothing.
//!
//! A note on this reproduction's hardware: the container has **one** CPU,
//! so "cores" are oversubscribed workers. Contention *shapes* (lock-word
//! RMW serialization, abort/retry behavior, perceptron dynamics) survive;
//! absolute scaling numbers do not. EXPERIMENTS.md discusses per-figure
//! fidelity.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gocc_htm::StatsSnapshot;
use gocc_optilock::{GoccRuntime, OptiStatsSnapshot};
use gocc_telemetry::{JsonWriter, ABORT_CAUSE_NAMES};
use gocc_workloads::Mode;

/// Default measurement window per benchmark point.
pub const DEFAULT_WINDOW: Duration = Duration::from_millis(200);

/// The paper's core sweep.
pub const CORE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs `op` from `workers` threads for `window`, returning ns/op.
///
/// Mirrors Go's `b.RunParallel`: workers spin on the operation until the
/// window closes; throughput is aggregated across workers. Every worker
/// checks the clock (every 64 ops, to avoid per-op syscalls) — a single
/// designated timekeeper could block indefinitely on a contended lock
/// while the others spin past the window, or worse, leave the window
/// unbounded if it parks.
pub fn run_parallel(workers: usize, window: Duration, op: impl Fn(usize, u64) + Sync) -> f64 {
    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..workers {
            let (stop, total_ops, op) = (&stop, &total_ops, &op);
            s.spawn(move || {
                let mut local: u64 = 0;
                let mut i: u64 = 0;
                while !stop.load(Ordering::Relaxed) {
                    op(w, i);
                    i += 1;
                    local += 1;
                    if local.is_multiple_of(64) && start.elapsed() >= window {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                total_ops.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed();
    let ops = total_ops.load(Ordering::Relaxed).max(1);
    elapsed.as_nanos() as f64 / ops as f64
}

/// One measurement plus the runtime statistics accumulated while taking
/// it. Lock-mode points carry zeroed stats (the baseline never touches
/// the HTM machinery).
#[derive(Clone, Copy, Debug, Default)]
pub struct Measured {
    /// Nanoseconds per operation.
    pub ns_per_op: f64,
    /// HTM-domain counters (starts, commits, aborts by cause).
    pub htm: StatsSnapshot,
    /// `optiLib` counters (paths taken, perceptron decisions).
    pub opti: OptiStatsSnapshot,
}

impl Measured {
    /// A measurement with no runtime statistics (baseline mode).
    #[must_use]
    pub fn bare(ns_per_op: f64) -> Self {
        Measured {
            ns_per_op,
            ..Measured::default()
        }
    }

    /// Captures `rt`'s statistics alongside the measurement.
    #[must_use]
    pub fn with_runtime(ns_per_op: f64, rt: &GoccRuntime) -> Self {
        Measured {
            ns_per_op,
            htm: rt.htm().stats().snapshot(),
            opti: rt.stats().snapshot(),
        }
    }
}

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Simulated core (worker) count.
    pub cores: usize,
    /// Baseline ns/op.
    pub lock_ns: f64,
    /// GOCC ns/op.
    pub gocc_ns: f64,
    /// HTM statistics from the GOCC run at this point.
    pub htm: StatsSnapshot,
    /// `optiLib` statistics from the GOCC run at this point.
    pub opti: OptiStatsSnapshot,
}

impl Point {
    /// Percentage improvement of GOCC over the lock baseline (positive =
    /// GOCC wins), the paper's reporting convention.
    #[must_use]
    pub fn speedup_pct(&self) -> f64 {
        (self.lock_ns / self.gocc_ns - 1.0) * 100.0
    }
}

/// A benchmark's sweep results across core counts.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Benchmark name.
    pub name: String,
    /// Whether the benchmark belongs to the concurrency-sensitive group.
    pub sensitive: bool,
    /// Points in [`CORE_COUNTS`] order.
    pub points: Vec<Point>,
}

impl SweepResult {
    /// Prints one paper-style row: ns/op for both variants and the
    /// speedup percentage per core count.
    pub fn print(&self) {
        print!("{:<28}", self.name);
        for p in &self.points {
            print!(
                " | {:>2}c {:>9.1}/{:<9.1} {:>+7.1}%",
                p.cores,
                p.lock_ns,
                p.gocc_ns,
                p.speedup_pct()
            );
        }
        println!();
    }
}

/// Geometric mean of the speedup ratios (lock/gocc) at one core index,
/// expressed as a percentage like the paper's "sensitive"/"all" bars.
///
/// An empty set has no geomean: `None`, which the JSON emission renders
/// as `null`. (It used to render as `0.000`, which reads as "measured, no
/// speedup" — a different claim entirely.)
#[must_use]
pub fn geomean_pct(results: &[&SweepResult], core_idx: usize) -> Option<f64> {
    if results.is_empty() {
        return None;
    }
    let mut log_sum = 0.0;
    for r in results {
        let p = r.points[core_idx];
        log_sum += (p.lock_ns / p.gocc_ns).ln();
    }
    Some(((log_sum / results.len() as f64).exp() - 1.0) * 100.0)
}

/// Runs one benchmark across modes and core counts.
///
/// `point` measures one configuration: it receives the mode, worker count
/// and window, builds a fresh runtime + world (so perceptron state and
/// stripe versions never leak between points, like separate benchmark
/// process runs in the paper), warms up, and returns a [`Measured`] —
/// typically `Measured::with_runtime(warm_measure(...), &rt)`. The driver
/// owns the sweep structure.
pub fn sweep_driver(
    name: &str,
    sensitive: bool,
    window: Duration,
    point: &dyn Fn(Mode, usize, Duration) -> Measured,
) -> SweepResult {
    let mut points = Vec::new();
    for &cores in &CORE_COUNTS {
        // Go's benchmark harness sets GOMAXPROCS per `-cpu` point, so the
        // 1-core column runs with one P and the §5.4.2 single-OS-thread
        // bypass engages — mirror that by setting the modeled proc count
        // per point, not once per sweep.
        let prev_procs = gocc_gosync::set_procs(cores);
        // Engage the coherence-cost model at this sweep's core count (the
        // container has one CPU; see crate docs and DESIGN.md §7).
        let prev = gocc_htm::contention::set_sim_cores(cores);
        let lock = point(Mode::Lock, cores, window);
        let gocc = point(Mode::Gocc, cores, window);
        gocc_htm::contention::set_sim_cores(prev);
        gocc_gosync::set_procs(prev_procs);
        points.push(Point {
            cores,
            lock_ns: lock.ns_per_op,
            gocc_ns: gocc.ns_per_op,
            htm: gocc.htm,
            opti: gocc.opti,
        });
    }
    SweepResult {
        name: name.to_string(),
        sensitive,
        points,
    }
}

/// Warm-up-then-measure helper for `point` closures.
pub fn warm_measure(cores: usize, window: Duration, op: impl Fn(usize, u64) + Sync) -> f64 {
    run_parallel(cores, window / 4, &op);
    run_parallel(cores, window, &op)
}

/// Formats the standard figure header.
pub fn print_header(title: &str) {
    println!("== {title} ==");
    println!(
        "{:<28} | cores: lock-ns/gocc-ns  speedup (positive = GOCC wins)",
        "benchmark"
    );
    println!("{}", "-".repeat(120));
}

/// Prints the sensitive / non-sensitive / all geomean summary lines the
/// paper's figures carry.
pub fn print_geomeans(results: &[SweepResult]) {
    let sensitive: Vec<&SweepResult> = results.iter().filter(|r| r.sensitive).collect();
    let non: Vec<&SweepResult> = results.iter().filter(|r| !r.sensitive).collect();
    let all: Vec<&SweepResult> = results.iter().collect();
    for (label, group) in [
        (format!("sensitive ({})", sensitive.len()), sensitive),
        (format!("non sensitive ({})", non.len()), non),
        (format!("all ({})", all.len()), all),
    ] {
        if group.is_empty() {
            continue;
        }
        print!("{label:<28}");
        for (idx, &cores) in CORE_COUNTS.iter().enumerate() {
            match geomean_pct(&group, idx) {
                Some(g) => print!(" | {cores:>2}c geomean {g:>+7.1}%          "),
                None => print!(" | {cores:>2}c geomean     n/a           "),
            }
        }
        println!();
    }
}

/// Abort counts from an HTM snapshot in [`ABORT_CAUSE_NAMES`] order.
#[must_use]
pub fn abort_counts(htm: &StatsSnapshot) -> [u64; 7] {
    [
        htm.aborts_explicit,
        htm.aborts_retry,
        htm.aborts_conflict,
        htm.aborts_capacity,
        htm.aborts_debug,
        htm.aborts_nested,
        htm.aborts_unfriendly,
    ]
}

/// Writes the shared GOCC statistics fields — commit ratio, fast-path
/// ratio, HTM counters, abort-cause breakdown and `optiLib` counters —
/// into the writer's current object. Used by every figure's JSON
/// emission so the artifacts share a schema.
pub fn stats_fields(w: &mut JsonWriter, htm: &StatsSnapshot, opti: &OptiStatsSnapshot) {
    w.field_f64("commit_ratio", htm.commit_ratio())
        .field_f64("fast_ratio", opti.fast_ratio())
        .key("htm")
        .begin_object()
        .field_u64("starts", htm.starts)
        .field_u64("commits", htm.commits)
        .field_u64("read_only_commits", htm.read_only_commits)
        .field_u64("direct_sections", htm.direct_sections)
        .field_u64("ctx_fresh", htm.ctx_fresh)
        .field_u64("ctx_reused", htm.ctx_reused)
        .field_u64("inline_overflows", htm.inline_overflows)
        .end_object()
        .key("aborts")
        .begin_object();
    for (name, count) in ABORT_CAUSE_NAMES.iter().zip(abort_counts(htm)) {
        w.field_u64(name, count);
    }
    w.end_object()
        .key("opti")
        .begin_object()
        .field_u64("htm_attempts", opti.htm_attempts)
        .field_u64("fast_commits", opti.fast_commits)
        .field_u64("slow_sections", opti.slow_sections)
        .field_u64("perceptron_htm", opti.perceptron_htm)
        .field_u64("perceptron_slow", opti.perceptron_slow)
        .field_u64("single_thread_bypass", opti.single_thread_bypass)
        .field_u64("mismatch_recoveries", opti.mismatch_recoveries)
        .field_u64("watchdog_forced", opti.watchdog_forced)
        .end_object();
}

/// Renders a figure's sweep results as the `BENCH_<figure>.json` document.
#[must_use]
pub fn bench_json(figure: &str, results: &[SweepResult]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().field_str("figure", figure);
    w.key("core_counts").begin_array();
    for &c in &CORE_COUNTS {
        w.u64(c as u64);
    }
    w.end_array();
    w.key("benchmarks").begin_array();
    for r in results {
        w.begin_object()
            .field_str("name", &r.name)
            .field_bool("sensitive", r.sensitive)
            .key("points")
            .begin_array();
        for p in &r.points {
            w.begin_object()
                .field_u64("cores", p.cores as u64)
                .field_f64("lock_ns_per_op", p.lock_ns)
                .field_f64("gocc_ns_per_op", p.gocc_ns)
                .field_f64("speedup_pct", p.speedup_pct());
            stats_fields(&mut w, &p.htm, &p.opti);
            w.end_object();
        }
        w.end_array().end_object();
    }
    w.end_array();
    let groups: [(&str, Vec<&SweepResult>); 3] = [
        (
            "sensitive",
            results.iter().filter(|r| r.sensitive).collect(),
        ),
        (
            "non_sensitive",
            results.iter().filter(|r| !r.sensitive).collect(),
        ),
        ("all", results.iter().collect()),
    ];
    // Geomeans per sweep position (defensively bounded by the shortest
    // sweep, though all figure bins emit full CORE_COUNTS sweeps).
    let npoints = results.iter().map(|r| r.points.len()).min().unwrap_or(0);
    w.key("geomean_pct").begin_object();
    for (label, group) in &groups {
        w.key(label).begin_array();
        for idx in 0..npoints {
            match geomean_pct(group, idx) {
                Some(g) => w.f64(g),
                None => w.null(),
            };
        }
        w.end_array();
    }
    w.end_object().end_object();
    w.finish()
}

/// Writes `BENCH_<figure>.json` into the current directory and reports
/// the path on stdout. Benchmarks must not silently lose their artifact,
/// so IO errors panic.
pub fn write_bench_json(figure: &str, results: &[SweepResult]) {
    write_artifact(figure, &bench_json(figure, results));
}

/// Writes an already-rendered JSON document as `BENCH_<figure>.json` in
/// the current directory. Only the paper's reproduction bins write one.
pub fn write_artifact(figure: &str, json: &str) {
    let path = format!("BENCH_{figure}.json");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocc_telemetry::JsonValue;

    #[test]
    fn run_parallel_measures_something() {
        let counter = AtomicU64::new(0);
        let ns = run_parallel(2, Duration::from_millis(20), |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ns > 0.0);
        assert!(counter.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn run_parallel_terminates_when_worker_zero_is_blocked() {
        // Regression: only worker 0 used to check the clock. If worker 0
        // stalls (here: sleeping far past the window), the run must still
        // end promptly because any worker can flip the stop flag.
        let start = Instant::now();
        let ns = run_parallel(2, Duration::from_millis(20), |w, _| {
            if w == 0 && start.elapsed() < Duration::from_millis(400) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert!(ns > 0.0);
        assert!(
            start.elapsed() < Duration::from_millis(300),
            "run_parallel failed to stop without worker 0's help"
        );
    }

    #[test]
    fn speedup_sign_convention() {
        let p = Point {
            cores: 1,
            lock_ns: 200.0,
            gocc_ns: 100.0,
            htm: StatsSnapshot::default(),
            opti: OptiStatsSnapshot::default(),
        };
        assert!((p.speedup_pct() - 100.0).abs() < 1e-9, "2x faster = +100%");
        let q = Point {
            cores: 1,
            lock_ns: 90.0,
            gocc_ns: 100.0,
            htm: StatsSnapshot::default(),
            opti: OptiStatsSnapshot::default(),
        };
        assert!(q.speedup_pct() < 0.0, "slower = negative");
    }

    #[test]
    fn geomean_of_identical_points() {
        let r = SweepResult {
            name: "x".into(),
            sensitive: true,
            points: vec![Point {
                cores: 1,
                lock_ns: 100.0,
                gocc_ns: 50.0,
                htm: StatsSnapshot::default(),
                opti: OptiStatsSnapshot::default(),
            }],
        };
        let g = geomean_pct(&[&r, &r], 0).expect("non-empty set");
        assert!((g - 100.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_empty_set_is_none_and_renders_null() {
        assert_eq!(geomean_pct(&[], 0), None);
        // A figure where every benchmark is sensitive leaves the
        // non_sensitive group empty: its geomeans must render as null,
        // not 0.000 ("measured, no speedup").
        let r = SweepResult {
            name: "x".into(),
            sensitive: true,
            points: vec![Point {
                cores: 1,
                lock_ns: 100.0,
                gocc_ns: 50.0,
                htm: StatsSnapshot::default(),
                opti: OptiStatsSnapshot::default(),
            }],
        };
        let json = bench_json("test", &[r]);
        let doc = JsonValue::parse(&json).expect("valid JSON");
        let geo = doc.get("geomean_pct").unwrap();
        assert_eq!(
            geo.get("non_sensitive").unwrap().as_array().unwrap()[0],
            JsonValue::Null,
            "empty group must emit null: {json}"
        );
        assert!(
            (geo.get("all").unwrap().as_array().unwrap()[0]
                .as_f64()
                .unwrap()
                - 100.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn bench_json_parses_and_carries_the_schema() {
        let r = SweepResult {
            name: "Bench".into(),
            sensitive: true,
            points: vec![Point {
                cores: 2,
                lock_ns: 100.0,
                gocc_ns: 80.0,
                htm: StatsSnapshot {
                    starts: 10,
                    commits: 8,
                    aborts_conflict: 2,
                    ..StatsSnapshot::default()
                },
                opti: OptiStatsSnapshot {
                    htm_attempts: 10,
                    fast_commits: 8,
                    slow_sections: 2,
                    ..OptiStatsSnapshot::default()
                },
            }],
        };
        let doc = JsonValue::parse(&bench_json("test", &[r])).expect("valid JSON");
        assert_eq!(doc.get("figure").unwrap().as_str().unwrap(), "test");
        let bench = &doc.get("benchmarks").unwrap().as_array().unwrap()[0];
        let point = &bench.get("points").unwrap().as_array().unwrap()[0];
        assert_eq!(point.get("cores").unwrap().as_f64().unwrap(), 2.0);
        assert_eq!(point.get("speedup_pct").unwrap().as_f64().unwrap(), 25.0);
        assert_eq!(point.get("commit_ratio").unwrap().as_f64().unwrap(), 0.8);
        assert_eq!(
            point
                .get("aborts")
                .unwrap()
                .get("conflict")
                .unwrap()
                .as_f64()
                .unwrap(),
            2.0
        );
        let geo = doc.get("geomean_pct").unwrap();
        assert_eq!(geo.get("sensitive").unwrap().as_array().unwrap().len(), 1);
        assert!(
            (geo.get("sensitive").unwrap().as_array().unwrap()[0]
                .as_f64()
                .unwrap()
                - 25.0)
                .abs()
                < 1e-9
        );
    }
}
