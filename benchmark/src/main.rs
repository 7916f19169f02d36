//! Command line of the repo benchmark. `run.sh` builds this and passes
//! its arguments through; see the README for the modes.

use std::fmt::Write as _;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gocc_benchmark::guard::{self, EXIT_HARNESS, EXIT_LIVENESS, EXIT_VIOLATION};
use gocc_benchmark::report::{self, json_num, MetricDef, END_TO_END, PER_LAYER};
use gocc_benchmark::run::{self, Args, Corrupt};
use gocc_benchmark::workloads::{self, ALL};
use gocc_telemetry::JsonValue;

const USAGE: &str = "usage:
  run.sh [--seed N] [--seconds S] [--out FILE]   every workload, both passes, one JSON document
  run.sh --smoke                                 the same with 1 s windows
  run.sh --workload NAME --seed N --seconds S --trace 0|1
                                                 one workload, one pass, one result line
  run.sh --compare A.json B.json                 B against base A; exit 4 on a regression
  run.sh --self-test                             prove that each output check fires";

/// Seconds one window measures when `--seconds` is not given. The
/// benchmark driver passes `run_seconds` of BENCHMARK.json (28): with four
/// workloads to bound it can afford longer windows than a full run of
/// five workloads and both passes.
const DEFAULT_SECONDS: f64 = 16.0;
/// How long one child run of the full suite may take before it is
/// killed and the suite exits with the liveness code.
const CHILD_LIMIT: Duration = Duration::from_secs(170);

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    corrupt: Option<String>,
    smoke: bool,
    self_test: bool,
    compare: Option<(String, String)>,
    out: Option<String>,
}

fn usage_error(message: &str) -> ! {
    eprintln!("benchmark: {message}\n{USAGE}");
    guard::exit(EXIT_HARNESS)
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        seed: 1,
        ..Cli::default()
    };
    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| {
        args.next()
            .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => cli.workload = Some(value(&flag, &mut args)),
            "--seed" => {
                cli.seed = value(&flag, &mut args)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed takes a whole number"));
            }
            "--seconds" => {
                let s: f64 = value(&flag, &mut args)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seconds takes a number"));
                if !(0.1..=60.0).contains(&s) {
                    usage_error("--seconds must be between 0.1 and 60");
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value(&flag, &mut args).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace takes 0 or 1"),
                };
            }
            "--corrupt" => cli.corrupt = Some(value(&flag, &mut args)),
            "--smoke" => cli.smoke = true,
            "--self-test" => cli.self_test = true,
            "--compare" => {
                let a = value(&flag, &mut args);
                let b = value(&flag, &mut args);
                cli.compare = Some((a, b));
            }
            "--out" => cli.out = Some(value(&flag, &mut args)),
            "--help" | "-h" => {
                println!("{USAGE}");
                guard::exit(0);
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    cli
}

fn main() {
    guard::install();
    let cli = parse_cli();
    if let Some((a, b)) = &cli.compare {
        compare(a, b);
    } else if cli.self_test {
        self_test(cli.seed);
    } else if let Some(name) = &cli.workload {
        single(&cli, name);
    } else {
        suite(&cli);
    }
}

/// One workload, one pass: the mode the benchmark driver calls.
fn single(cli: &Cli, name: &str) -> ! {
    let workload = workloads::by_name(name).unwrap_or_else(|| {
        usage_error(&format!(
            "unknown workload {name}; the workloads are {}",
            workloads::NAMES.join(", ")
        ))
    });
    let corrupt = cli.corrupt.as_deref().map(|c| match c {
        "fifo" => Corrupt::Fifo,
        "counter" => Corrupt::Counter,
        "recovery" => Corrupt::Recovery,
        _ => usage_error("--corrupt takes fifo, counter or recovery"),
    });
    let args = Args {
        workload,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: cli.trace,
        corrupt,
    };
    let result = run::run(&args);
    print!("{}", result.table(name));
    println!(
        "{name:<12} attempted {} failed {} lost_acked {}",
        result.attempted, result.failed, result.lost_acked
    );
    println!("{}", result.result_line());
    guard::exit(if result.correct { 0 } else { EXIT_VIOLATION })
}

/// What one child run printed and how it ended.
struct Child {
    code: i32,
    stdout: String,
}

/// Runs this executable again with `args`, in a fresh process, under
/// [`CHILD_LIMIT`]. The child's standard error passes through.
fn run_child(label: &str, args: &[String]) -> Child {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| guard::harness_error(&format!("cannot locate the executable: {e}")));
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| guard::harness_error(&format!("cannot start {label}: {e}")));
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = pipe.read_to_string(&mut s);
        s
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > CHILD_LIMIT => {
                let _ = child.kill();
                let _ = child.wait();
                eprintln!("benchmark: liveness: {label} ran past {CHILD_LIMIT:?} and was killed");
                guard::exit(EXIT_LIVENESS);
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => guard::harness_error(&format!("cannot wait for {label}: {e}")),
        }
    };
    Child {
        code: status.code().unwrap_or(EXIT_HARNESS),
        stdout: reader.join().unwrap_or_default(),
    }
}

/// Parses the result line a `--workload` run ends with and checks it
/// against the schema: exactly the four keys, and exactly the declared
/// metrics, each with a number and its declared unit.
fn parse_result_line(stdout: &str, defs: &[MetricDef]) -> Result<JsonValue, String> {
    let line = stdout.lines().last().ok_or("no output")?;
    let v = JsonValue::parse(line)?;
    let JsonValue::Object(top) = &v else {
        return Err("the result line is not an object".into());
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("unexpected keys {keys:?}"));
    }
    let JsonValue::Object(metrics) = &top["metrics"] else {
        return Err("metrics is not an object".into());
    };
    if metrics.len() != defs.len() {
        return Err(format!(
            "{} metrics, {} declared",
            metrics.len(),
            defs.len()
        ));
    }
    for d in defs {
        let m = metrics
            .get(d.name)
            .ok_or(format!("metric {} is missing", d.name))?;
        m.get("value")
            .and_then(JsonValue::as_f64)
            .ok_or(format!("metric {} has no numeric value", d.name))?;
        if m.get("unit").and_then(JsonValue::as_str) != Some(d.unit) {
            return Err(format!("metric {} has the wrong unit", d.name));
        }
    }
    Ok(v)
}

/// The `lost_acked` count on the totals line a `--workload` run prints
/// before its result line (the result line's keys are fixed).
fn lost_acked_of(stdout: &str) -> u64 {
    stdout
        .lines()
        .filter_map(|l| l.split(" lost_acked ").nth(1))
        .filter_map(|n| n.trim().parse::<u64>().ok())
        .sum()
}

/// The declared metrics of a parsed result line, as JSON object members.
fn metrics_json(v: &JsonValue, defs: &[MetricDef]) -> String {
    let values: Vec<(&MetricDef, f64)> = defs
        .iter()
        .map(|d| {
            let value = v
                .get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            (d, value)
        })
        .collect();
    report::metrics_members(&values)
}

/// Every workload, each pass in a fresh process, `durable_w` last.
fn suite(cli: &Cli) -> ! {
    let seconds = if cli.smoke {
        1.0
    } else {
        cli.seconds.unwrap_or(DEFAULT_SECONDS)
    };
    let started = Instant::now();
    let mut doc = format!(
        "{{\"schema\": 1, \"seed\": {}, \"seconds\": {}, \"nproc\": {}, \"workloads\": {{",
        cli.seed,
        json_num(seconds),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let mut violations = 0;
    let mut lost_total = 0;
    for (i, w) in ALL.iter().enumerate() {
        let mut passes = Vec::new();
        let mut lost = 0;
        for (trace, defs) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let label = format!("{} --trace {trace}", w.name);
            eprintln!("benchmark: running {label}");
            let args: Vec<String> = [
                "--workload",
                w.name,
                "--seed",
                &cli.seed.to_string(),
                "--seconds",
                &json_num(seconds),
                "--trace",
                trace,
            ]
            .iter()
            .map(ToString::to_string)
            .collect();
            let child = run_child(&label, &args);
            // The child's table, without its machine-readable last line.
            let lines: Vec<&str> = child.stdout.lines().collect();
            for line in &lines[..lines.len().saturating_sub(1)] {
                println!("{line}");
            }
            match child.code {
                0 => {}
                EXIT_VIOLATION => violations += 1,
                code => {
                    eprintln!("benchmark: {label} exited with code {code}");
                    guard::exit(code);
                }
            }
            let v = parse_result_line(&child.stdout, defs).unwrap_or_else(|e| {
                eprintln!("benchmark: {label} broke the result schema: {e}");
                guard::exit(EXIT_VIOLATION)
            });
            passes.push(v);
            lost += lost_acked_of(&child.stdout);
        }
        let int = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
        lost_total += lost;
        let (e2e, layers) = (&passes[0], &passes[1]);
        let attempted = int(e2e, "attempted");
        let failed = int(e2e, "failed");
        let correct = [e2e, layers]
            .iter()
            .all(|v| v.get("correct") == Some(&JsonValue::Bool(true)));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            doc,
            "{sep}\"{}\": {{\"why\": \"{}\", \"correct\": {correct}, \"attempted\": {attempted}, \
             \"failed\": {failed}, \"fail_frac\": {}, \"lost_acked\": {lost}, \
             \"end_to_end\": {{",
            w.name,
            w.why,
            json_num(report::ratio(failed, attempted)),
        );
        let _ = write!(
            doc,
            "{}}}, \"per_layer\": {{{}}}}}",
            metrics_json(e2e, END_TO_END),
            metrics_json(layers, PER_LAYER)
        );
    }
    doc.push_str("}}");
    eprintln!(
        "benchmark: {} workloads in {:.1} s, {violations} runs failed their output checks, \
         {lost_total} acknowledged writes lost",
        ALL.len(),
        started.elapsed().as_secs_f64()
    );
    if let Some(path) = &cli.out {
        std::fs::write(path, &doc)
            .unwrap_or_else(|e| guard::harness_error(&format!("cannot write {path}: {e}")));
    }
    println!("{doc}");
    guard::exit(if violations == 0 { 0 } else { EXIT_VIOLATION })
}

fn compare(a: &str, b: &str) -> ! {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .unwrap_or_else(|e| guard::harness_error(&format!("cannot read {p}: {e}")))
    };
    match report::compare(&read(a), &read(b)) {
        Ok((table, regressions)) => {
            print!("{table}");
            println!("{regressions} regressed");
            guard::exit(if regressions == 0 { 0 } else { EXIT_VIOLATION })
        }
        Err(e) => guard::harness_error(&format!("cannot compare: {e}")),
    }
}

/// Runs each output check once with one expected value corrupted; every
/// such run must end with the violation code, or the check is blind.
fn self_test(seed: u64) -> ! {
    let cases = [
        ("serve_d32", "fifo", "the FIFO response model"),
        ("section_w50", "counter", "the counter oracle"),
        ("durable_w", "recovery", "the recovery oracle"),
    ];
    let mut blind = 0;
    for (workload, corrupt, what) in cases {
        let args: Vec<String> = [
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--trace",
            "0",
            "--corrupt",
            corrupt,
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let child = run_child(&format!("self-test of {what}"), &args);
        if child.code == EXIT_VIOLATION {
            println!("self-test: {what} fired on a corrupted expectation ({workload})");
        } else {
            println!(
                "self-test: {what} did NOT fire ({workload} exited with code {})",
                child.code
            );
            blind += 1;
        }
    }
    guard::exit(if blind == 0 { 0 } else { EXIT_VIOLATION })
}
