//! The gate bin follows the workspace exit-code convention `ci.sh`'s
//! `run_soak` reads — 4 = a gate violated, 1 = a harness error or a bad
//! command line — and writes nothing: its verdict is what it prints.

use std::process::Command;

const HOTPATH: &str = env!("CARGO_BIN_EXE_hotpath");

/// Runs `hotpath` in a fresh working directory named after `label` and
/// returns its exit code and whatever it left there.
fn run(label: &str, args: &[&str]) -> (Option<i32>, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("gocc-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(HOTPATH)
        .args(args)
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
    assert_eq!(run("hotpath-gate", &args).0, Some(4));
}

#[test]
fn hotpath_exits_1_on_an_unknown_flag() {
    assert_eq!(run("hotpath-bogus", &["--bogus"]).0, Some(1));
}

#[test]
fn hotpath_writes_no_file() {
    let args = ["--window-ms", "5", "--gate", "1000"];
    assert_eq!(run("hotpath-files", &args), (Some(0), vec![]));
}
