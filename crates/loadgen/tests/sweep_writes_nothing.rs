//! A `loadgen` sweep prints its rows and writes nothing: gates and soaks
//! have no artifact (`benchmark/` is the one measurement system).

use std::process::Command;

use gocc_loadgen::soak::TempDir;

#[test]
fn a_one_point_sweep_leaves_its_working_directory_empty() {
    let dir = TempDir::new("loadgen-sweep-cwd");
    std::fs::create_dir_all(dir.path()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--mode", "gocc", "--workers", "1", "--pipeline", "1"])
        .args(["--warmup-ms", "10", "--window-ms", "50"])
        .current_dir(dir.path())
        .output()
        .expect("loadgen runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let left: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(left.is_empty(), "loadgen left {left:?} behind");
}
