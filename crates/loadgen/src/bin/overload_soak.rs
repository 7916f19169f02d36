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
//!    admitted-request p99 ≤ `OVERLOAD_GATE_P99_MS` (default 100), mean
//!    shed cost < 10 µs server-side, bounded per-worker queue depth, at
//!    least one brownout escalation, zero executed-but-expired requests.
//!
//! Each gate's verdict is printed; the soak writes no file (the flight
//! recorder's Chrome trace dump is drained and must parse, then dropped).
//! Exit codes: 0 all gates pass, 1 setup/driver failure, 4 one or more
//! overload gates violated (distinct so CI can tell a broken harness from
//! a broken guarantee) — the mapping every harness shares, `soak::main`.
//!
//! ```console
//! $ OVERLOAD_GATE_P99_MS=150 overload_soak --quick --seed 7
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gocc_faultplane::{LoadFaultPlan, LoadMix};
use gocc_loadgen::soak::{self, spawn_node, violation, Flags, SoakResult};
use gocc_loadgen::{
    fetch_health, run_open_loop, run_point, LoadConfig, OpenLoopConfig, OpenLoopResult,
};
use gocc_server::{mode_name, HealthState, Mode, ServerConfig, ServerSummary};
use gocc_telemetry::JsonValue;
use gocc_wire::{decode_response, encode_request_v2, Request, Response};

const NAME: &str = "overload_soak";

/// Mean server-side cost of a shed request must stay under this.
const SHED_COST_GATE_NS: f64 = 10_000.0;
/// The server must walk Shedding → Healthy within this after the load
/// stops.
const RECOVERY_GATE: Duration = Duration::from_secs(5);
/// Server-internal cap on frames decoded per pump pass (`conn.rs`); the
/// queue-depth gauge is bounded by it times the connections a worker owns.
const MAX_FRAMES_PER_PUMP: u64 = 256;

struct Args {
    seed: u64,
    /// None = both modes.
    mode: Option<Mode>,
    quick: bool,
    conns: usize,
    server_workers: usize,
    gate_p99_ms: f64,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    // OVERLOAD_GATE_P99_MS overrides the default p99 gate (ms); the flag
    // overrides both.
    let mut args = Args {
        seed: 2026,
        mode: None,
        quick: false,
        conns: 8,
        server_workers: 2,
        gate_p99_ms: soak::gate_env("OVERLOAD_GATE_P99_MS", 100.0)?,
    };
    Flags::new(NAME)
        .seed(&mut args.seed)
        .mode(&mut args.mode)
        .switch("--quick", &mut args.quick)
        .num("--conns", "N", &mut args.conns)
        .num("--server-workers", "N", &mut args.server_workers)
        .num("--gate-p99-ms", "F", &mut args.gate_p99_ms)
        .parse(raw)?;
    if args.conns == 0 {
        return Err("--conns must be >= 1".into());
    }
    if args.gate_p99_ms <= 0.0 {
        return Err("the p99 gate must be positive".into());
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
    let call = |req: &Request<'_>, deadline: Option<u32>| -> Result<Vec<u8>, String> {
        let mut wire = Vec::new();
        encode_request_v2(req, deadline, &mut wire);
        soak::round_trip(port, &wire).map_err(|e| format!("deadline probe: {e}"))
    };
    let resp = call(
        &Request::Set {
            key: key.as_bytes(),
            value: 0xDEAD,
            ttl: 0,
        },
        Some(0),
    )?;
    match decode_response(&resp).map_err(|e| e.to_string())? {
        Response::DeadlineExceeded => {}
        other => return Err(violation(format!("zero-budget SET answered {other:?}"))),
    }
    let resp = call(
        &Request::Get {
            key: key.as_bytes(),
        },
        None,
    )?;
    match decode_response(&resp).map_err(|e| e.to_string())? {
        Response::Value { found: false, .. } => Ok(()),
        Response::Value { found: true, .. } => {
            Err(violation("expired SET was executed against the engine"))
        }
        other => Err(format!("probe GET answered {other:?}").into()),
    }
}

struct ModeOutcome {
    capacity_ops_per_sec: f64,
    open: OpenLoopResult,
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
        queue_limit: 64,
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
        4,
        &LoadConfig {
            warmup: Duration::from_millis(150),
            window: cal_window,
            scan_every: 0,
            seed: args.seed,
            ..LoadConfig::default()
        },
    )
    .map_err(|e| format!("calibration: {e}"))?;
    if cal.ops == 0 {
        return Err("calibration completed zero operations".into());
    }
    let capacity = cal.ops_per_sec();

    // Phase 3: open-loop arrivals at 2× capacity — past saturation by
    // construction — with a per-request deadline budget at the p99 gate.
    let deadline_us = (args.gate_p99_ms * 1_000.0) as u32;
    let open_cfg = OpenLoopConfig {
        conns: args.conns,
        rate_per_conn: (2.0 * capacity / args.conns as f64).max(50.0),
        warmup: Duration::from_millis(200),
        duration: open_window,
        deadline_us: Some(deadline_us),
        seed: args.seed ^ 0x0516,
        max_inflight: 256,
        breaker: None, // adversarial client: keeps offering while shed
        drain_grace: Duration::from_secs(3),
        ..OpenLoopConfig::default()
    };
    let open = run_open_loop(port, &open_cfg).map_err(|e| format!("open loop: {e}"))?;

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

    // The gates, each verified from the server's own counters.
    let p99_ns = open.latency.quantile(0.99);
    let gate_ns = (args.gate_p99_ms * 1e6) as u64;
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
            open.overloaded > 0 && server.shed_total > 0,
            format!(
                "server shed {} requests ({} observed client-side) at 2x capacity",
                server.shed_total, open.overloaded
            ),
        ),
        gate(
            "admitted_p99",
            open.ok > 0 && p99_ns <= gate_ns,
            format!(
                "admitted p99 {:.2}ms vs gate {:.2}ms over {} admitted",
                p99_ns as f64 / 1e6,
                args.gate_p99_ms,
                open.ok
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
            m.open.target_rate,
            m.open.ok,
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
