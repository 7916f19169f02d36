//! `overload_soak` — open-loop saturation harness for `goccd`'s overload
//! protection.
//!
//! For each mode (lock, gocc) the soak:
//!
//! 1. spawns an in-process `goccd` with a seeded [`LoadFaultPlan`]
//!    (worker stalls + slow store calls) so the latency signal that
//!    drives the brownout controller is deterministic and guaranteed;
//! 2. **calibrates** capacity with a short closed-loop run;
//! 3. proves the deadline guarantee with a zero-budget probe: the SET is
//!    answered `DeadlineExceeded` and the key must NOT exist afterwards —
//!    an expired request never executes against the engine;
//! 4. drives **open-loop** arrivals at 2× the calibrated capacity with
//!    per-request deadline budgets, past saturation by construction;
//! 5. after removing the load, polls HEALTH until the server walks back
//!    to `healthy`, and requires it within 5 seconds;
//! 6. checks the overload gates from the server's own counters:
//!    admitted-request p99 within [`ADMITTED_P99_PASSES`] full admission
//!    passes of the same run's calibrated service rate, mean shed cost
//!    < 10 µs server-side, bounded per-worker queue depth, at least one
//!    brownout escalation, zero executed-but-expired requests.
//!
//! Each gate's verdict is printed; the soak writes no file (the flight
//! recorder's Chrome trace dump is drained and must parse, then dropped).
//! Exit codes: 0 all gates pass, 1 setup/driver failure, 4 one or more
//! overload gates violated (distinct so CI can tell a broken harness from
//! a broken guarantee) — the mapping every harness shares, `soak::main`.
//!
//! ```console
//! $ overload_soak --quick --seed 7
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gocc_faultplane::{LoadFaultPlan, LoadMix};
use gocc_loadgen::soak::{self, spawn_node, violation, Flags, SoakResult};
use gocc_loadgen::{fetch_health, run_point, LoadConfig, PointResult, Schedule};
use gocc_server::{mode_name, HealthState, Mode, ServerConfig, ServerSummary};
use gocc_telemetry::JsonValue;
use gocc_wire::{Request, Response};

const NAME: &str = "overload_soak";

/// Mean server-side cost of a shed request must stay under this.
const SHED_COST_GATE_NS: f64 = 10_000.0;
/// The server must walk Shedding → Healthy within this after the load
/// stops.
const RECOVERY_GATE: Duration = Duration::from_secs(5);
/// Server-internal cap on frames decoded per pump pass (`conn.rs`); the
/// queue-depth gauge is bounded by it times the connections a worker owns.
const MAX_FRAMES_PER_PUMP: u64 = 256;
/// Per-worker admission limit: a saturated pump pass admits this many
/// frames and sheds the rest.
const QUEUE_LIMIT: u64 = 64;
/// Deadline budget stamped on every open-loop request.
const DEADLINE_BUDGET: Duration = Duration::from_millis(100);
/// Admitted p99 bound, in full admission passes: `QUEUE_LIMIT` requests
/// at the per-worker service rate the same run's calibration measured.
/// Admission reads 1.6–1.8 passes; with it off, requests queue in the
/// sockets and read 10–13.
const ADMITTED_P99_PASSES: f64 = 4.0;

struct Args {
    seed: u64,
    /// None = both modes.
    mode: Option<Mode>,
    quick: bool,
    conns: usize,
    server_workers: usize,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 2026,
        mode: None,
        quick: false,
        conns: 8,
        server_workers: 2,
    };
    Flags::new(NAME)
        .seed(&mut args.seed)
        .mode(&mut args.mode)
        .switch("--quick", &mut args.quick)
        .num("--conns", "N", &mut args.conns)
        .num("--server-workers", "N", &mut args.server_workers)
        .parse(raw)?;
    if args.conns == 0 {
        return Err("--conns must be >= 1".into());
    }
    Ok(args)
}

/// One gate's verdict, printed on stdout.
struct Gate {
    name: &'static str,
    pass: bool,
    detail: String,
}

fn gate(name: &'static str, pass: bool, detail: String) -> Gate {
    Gate { name, pass, detail }
}

/// Server-side overload counters pulled out of the final STATS document.
struct ServerOverload {
    shed_total: u64,
    shed_ns_total: u64,
    shed_ns_max: u64,
    deadline_pre: u64,
    deadline_post: u64,
    healthy_to_degraded: u64,
    shedding_to_degraded: u64,
    degraded_to_healthy: u64,
    queue_depth_max: u64,
    workers: u64,
}

fn parse_server_overload(stats_json: &str) -> Result<ServerOverload, String> {
    let v = JsonValue::parse(stats_json).map_err(|e| format!("final STATS does not parse: {e}"))?;
    let num = |node: &JsonValue, key: &str| -> Result<u64, String> {
        node.get(key)
            .and_then(JsonValue::as_f64)
            .map(|f| f as u64)
            .ok_or_else(|| format!("STATS missing {key:?}"))
    };
    let o = v.get("overload").ok_or("STATS missing \"overload\"")?;
    let t = o.get("transitions").ok_or("STATS missing transitions")?;
    let workers = v
        .get("per_worker")
        .and_then(JsonValue::as_array)
        .ok_or("STATS missing per_worker")?;
    let queue_depth_max = workers
        .iter()
        .map(|w| num(w, "queue_depth_max"))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .max()
        .unwrap_or(0);
    Ok(ServerOverload {
        shed_total: num(o, "shed_total")?,
        shed_ns_total: num(o, "shed_ns_total")?,
        shed_ns_max: num(o, "shed_ns_max")?,
        deadline_pre: num(o, "deadline_pre")?,
        deadline_post: num(o, "deadline_post")?,
        healthy_to_degraded: num(t, "healthy_to_degraded")?,
        shedding_to_degraded: num(t, "shedding_to_degraded")?,
        degraded_to_healthy: num(t, "degraded_to_healthy")?,
        queue_depth_max,
        workers: workers.len() as u64,
    })
}

/// Proves an already-expired request never reaches the engine: a SET with
/// a zero deadline budget must come back `DeadlineExceeded`, and the key
/// must not exist afterwards.
fn deadline_probe(port: u16, key: &str) -> SoakResult<()> {
    let mut conn = soak::connect(port)?;
    let set = Request::Set {
        key: key.as_bytes(),
        value: 0xDEAD,
        ttl: 0,
    };
    conn.submit(&set, Some(0));
    conn.wait()?;
    match conn.answer()?.ok_or("no answer")?.1 {
        Response::DeadlineExceeded => {}
        other => return Err(violation(format!("zero-budget SET answered {other:?}"))),
    }
    let get = Request::Get {
        key: key.as_bytes(),
    };
    match conn.call(&get)? {
        Response::Value { found: false, .. } => Ok(()),
        Response::Value { found: true, .. } => {
            Err(violation("expired SET was executed against the engine"))
        }
        other => Err(format!("probe GET answered {other:?}").into()),
    }
}

struct ModeOutcome {
    capacity_ops_per_sec: f64,
    open: PointResult,
    recovery_ms: u64,
    server: ServerOverload,
    summary: ServerSummary,
    gates: Vec<Gate>,
}

fn soak_mode(args: &Args, mode: Mode) -> SoakResult<ModeOutcome> {
    // Fault mix: enough slow-store draws that the latency EWMA crosses
    // the (lowered) brownout thresholds under saturation, deterministic
    // per seed so reruns see the same schedule.
    let plan = Arc::new(LoadFaultPlan::new(
        args.seed,
        LoadMix {
            stall: 0.05,
            stall_for: Duration::from_millis(1),
            slow_store: 0.25,
            slow_store_for: Duration::from_millis(2),
        },
    ));
    let mut cfg = ServerConfig {
        mode,
        port: 0,
        workers: args.server_workers,
        shards: 4,
        capacity_per_shard: 1 << 14,
        queue_limit: QUEUE_LIMIT,
        load_plan: Some(Arc::clone(&plan)),
        ..ServerConfig::default()
    };
    // Thresholds matched to the injected fault mix: ~25% of requests at
    // +2ms puts the latency EWMA well over latency_high once saturated,
    // and well under latency_low once the load is gone.
    cfg.brownout.alpha = 0.3;
    cfg.brownout.depth_high = 16.0;
    cfg.brownout.depth_low = 2.0;
    cfg.brownout.latency_high = Duration::from_micros(400);
    cfg.brownout.latency_low = Duration::from_micros(150);
    cfg.brownout.recover_obs = 8;
    let handle = spawn_node("goccd", cfg)?;
    let port = handle.port();

    // Phase 1: the deadline guarantee, proven while the server is calm.
    deadline_probe(port, &format!("soak-probe-{}", args.seed))?;

    // Phase 2: closed-loop calibration. The closed loop cannot overload
    // the server (it waits for every response), so its throughput is a
    // fair capacity estimate that already includes the injected faults.
    let (cal_window, open_window) = if args.quick {
        (Duration::from_millis(300), Duration::from_millis(1_000))
    } else {
        (Duration::from_millis(600), Duration::from_millis(3_000))
    };
    let cal = run_point(
        port,
        &LoadConfig {
            conns: 4,
            warmup: Duration::from_millis(150),
            window: cal_window,
            scan_every: 0,
            seed: args.seed,
            ..LoadConfig::default()
        },
    )
    .map_err(|e| format!("calibration: {e}"))?;
    if cal.counts.completed == 0 {
        return Err("calibration completed zero operations".into());
    }
    let capacity = cal.ops_per_sec();

    // Phase 3: open-loop arrivals at 2× capacity — past saturation by
    // construction — with a per-request deadline budget. The client keeps
    // offering while it is shed, and sends no SCAN: this measures the
    // cheap-verb path under pressure.
    let per_conn = (2.0 * capacity / args.conns as f64).max(50.0);
    let open = run_point(
        port,
        &LoadConfig {
            conns: args.conns,
            schedule: Schedule::Rate {
                per_conn,
                max_inflight: 256,
            },
            warmup: Duration::from_millis(200),
            window: open_window,
            deadline_us: Some(DEADLINE_BUDGET.as_micros() as u32),
            scan_every: 0,
            seed: args.seed ^ 0x0516,
            ..LoadConfig::default()
        },
    )
    .map_err(|e| format!("open loop: {e}"))?;

    // Phase 4: load removed — the server must walk back to Healthy.
    let t0 = Instant::now();
    let recovery_ms = loop {
        let (state, _, _) = fetch_health(port)?;
        if HealthState::from_u8(state) == HealthState::Healthy {
            break t0.elapsed().as_millis() as u64;
        }
        if t0.elapsed() > RECOVERY_GATE + Duration::from_secs(1) {
            break u64::MAX; // the gate below fails loudly
        }
        std::thread::sleep(Duration::from_millis(25));
    };

    let state = handle.state_arc();
    let summary = soak::stop(handle);
    let server = parse_server_overload(&summary.stats_json)?;
    // The flight recorder's surviving spans, drained after shutdown, must
    // still render as a Chrome trace-event document.
    JsonValue::parse(&state.chrome_trace_json())
        .map_err(|e| format!("chrome trace dump does not parse: {e}"))?;

    // The gates, each verified from the server's own counters. A full
    // admission pass is `QUEUE_LIMIT` requests on one worker, at the
    // per-worker rate the calibration measured on this host, in this run.
    let p99_ms = open.latency.quantile(0.99) as f64 / 1e6;
    let pass_ms = QUEUE_LIMIT as f64 * server.workers.max(1) as f64 / capacity * 1e3;
    let p99_passes = p99_ms / pass_ms;
    let shed_mean_ns = if server.shed_total > 0 {
        server.shed_ns_total as f64 / server.shed_total as f64
    } else {
        0.0
    };
    // `queue_depth` counts every frame a pump pass sees (shed ones too),
    // so its bound is frames-per-pump-pass × the connections one worker
    // owns, not `queue_limit`.
    let depth_bound = MAX_FRAMES_PER_PUMP * (args.conns as u64).div_ceil(server.workers.max(1));
    let gates = vec![
        gate(
            "saturated",
            open.counts.overloaded > 0 && server.shed_total > 0,
            format!(
                "server shed {} requests ({} observed client-side) at 2x capacity",
                server.shed_total, open.counts.overloaded
            ),
        ),
        gate(
            "admitted_p99",
            open.counts.ok > 0 && p99_passes <= ADMITTED_P99_PASSES,
            format!(
                "admitted p99 {p99_ms:.2}ms = {p99_passes:.2} passes of {pass_ms:.1}ms \
                 vs gate {ADMITTED_P99_PASSES:.1} over {} admitted",
                open.counts.ok
            ),
        ),
        gate(
            "shed_cost",
            server.shed_total > 0 && shed_mean_ns < SHED_COST_GATE_NS,
            format!(
                "mean shed cost {shed_mean_ns:.0}ns (max {}ns) vs gate {SHED_COST_GATE_NS:.0}ns",
                server.shed_ns_max
            ),
        ),
        gate(
            "no_expired_executed",
            server.deadline_pre > 0,
            format!(
                "{} expired requests rejected pre-engine, {} post (probe proved none executed)",
                server.deadline_pre, server.deadline_post
            ),
        ),
        gate(
            "brownout_engaged",
            server.healthy_to_degraded >= 1,
            format!(
                "{} healthy->degraded escalations",
                server.healthy_to_degraded
            ),
        ),
        gate(
            "recovers",
            recovery_ms != u64::MAX
                && Duration::from_millis(recovery_ms) <= RECOVERY_GATE
                && server.degraded_to_healthy >= 1,
            format!(
                "healthy {recovery_ms}ms after load removal \
                 ({} shedding->degraded, {} degraded->healthy edges)",
                server.shedding_to_degraded, server.degraded_to_healthy
            ),
        ),
        gate(
            "bounded_memory",
            server.queue_depth_max <= depth_bound,
            format!(
                "peak queue depth {} vs bound {depth_bound}",
                server.queue_depth_max
            ),
        ),
    ];

    Ok(ModeOutcome {
        capacity_ops_per_sec: capacity,
        open,
        recovery_ms,
        server,
        summary,
        gates,
    })
}

fn run(args: &Args) -> SoakResult<()> {
    let mut failed = 0;
    for mode in soak::modes(args.mode) {
        println!("== overload soak: {} mode ==", mode_name(mode));
        let m = soak_mode(args, mode)?;
        println!(
            "   capacity {:.0} ops/s, offered {:.0}/s open-loop; \
             {} ok, {} shed, {} deadline-missed, recovered in {}ms",
            m.capacity_ops_per_sec,
            m.open.counts.offered as f64 / m.open.elapsed.as_secs_f64(),
            m.open.counts.ok,
            m.server.shed_total,
            m.summary.deadline_misses,
            m.recovery_ms,
        );
        for g in &m.gates {
            println!(
                "   [{}] {:<20} {}",
                if g.pass { "pass" } else { "FAIL" },
                g.name,
                g.detail
            );
        }
        failed += m.gates.iter().filter(|g| !g.pass).count();
    }
    if failed > 0 {
        return Err(violation(format!("{failed} gate(s) violated")));
    }
    println!("overload_soak: all gates passed");
    Ok(())
}

fn main() -> ExitCode {
    soak::main(NAME, parse, run)
}
