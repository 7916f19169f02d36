//! The gate bins follow the workspace exit-code convention `ci.sh`'s
//! `run_soak` reads — 4 = a gate violated, 1 = a harness error or a bad
//! command line — and write nothing: their verdict is what they print.

use std::process::Command;

const HOTPATH: &str = env!("CARGO_BIN_EXE_hotpath");
const TRACE_OVERHEAD: &str = env!("CARGO_BIN_EXE_trace_overhead");

/// Runs `bin` in a fresh working directory named after `label` and
/// returns its exit code and whatever it left there.
fn run(label: &str, bin: &str, args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("gocc-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin)
        .args(args)
        .envs(env.iter().copied())
        .current_dir(&dir)
        .output()
        .expect("gate bin runs");
    let left = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    (out.status.code(), left)
}

#[test]
fn hotpath_exits_4_on_a_violated_gate() {
    let args = ["--window-ms", "5", "--gate", "0.0001"];
    assert_eq!(run("hotpath-gate", HOTPATH, &args, &[]).0, Some(4));
}

#[test]
fn hotpath_exits_1_on_an_unknown_flag() {
    assert_eq!(run("hotpath-bogus", HOTPATH, &["--bogus"], &[]).0, Some(1));
}

#[test]
fn trace_overhead_exits_4_on_a_violated_gate() {
    // The overhead is clamped at >= 0, so a negative gate always fails.
    let env = [("TRACE_GATE_DISABLED_PCT", "-1")];
    let code = run("trace-gate", TRACE_OVERHEAD, &["--window-ms", "5"], &env).0;
    assert_eq!(code, Some(4));
}

#[test]
fn neither_gate_bin_writes_a_file() {
    let args = ["--window-ms", "5", "--gate", "1000"];
    let (code, left) = run("hotpath-files", HOTPATH, &args, &[]);
    assert_eq!((code, left), (Some(0), vec![]), "hotpath");
    let env = [
        ("TRACE_GATE_DISABLED_PCT", "1000"),
        ("TRACE_GATE_SAMPLED_PCT", "1000"),
    ];
    let (code, left) = run("trace-files", TRACE_OVERHEAD, &["--window-ms", "5"], &env);
    assert_eq!((code, left), (Some(0), vec![]), "trace_overhead");
}
