//! Exit discipline: the repo's 4/2/1 exit codes, a stage watchdog so no
//! wait can hang the run, and scratch directories that are removed on
//! every way out.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// An output check failed, or `--compare` found a regression.
pub const EXIT_VIOLATION: i32 = 4;
/// A stage ran past its deadline.
pub const EXIT_LIVENESS: i32 = 2;
/// The harness itself failed (bad arguments, I/O on its own files).
pub const EXIT_HARNESS: i32 = 1;

struct Stage {
    workload: String,
    name: String,
    deadline: Instant,
}

static STAGE: Mutex<Option<Stage>> = Mutex::new(None);
static TEMP_DIRS: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Every update leaves these registries valid, so a poisoned lock
    // (a panic elsewhere, already on its way out) is still usable.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Removes every scratch directory this process created and exits.
pub fn exit(code: i32) -> ! {
    remove_temp_dirs();
    std::process::exit(code)
}

fn remove_temp_dirs() {
    for dir in lock(&TEMP_DIRS).drain(..) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Prints `message`, with the workload and stage the run is in, and
/// exits with the harness-error code.
pub fn harness_error(message: &str) -> ! {
    match lock(&STAGE).as_ref() {
        Some(stage) => eprintln!(
            "benchmark: harness error: workload {} stage {}: {message}",
            stage.workload, stage.name
        ),
        None => eprintln!("benchmark: harness error: {message}"),
    }
    exit(EXIT_HARNESS)
}

/// Names the stage the run is in and the time it may take. A watchdog
/// thread exits the process with [`EXIT_LIVENESS`], naming the workload
/// and stage, if the stage is still current past its deadline — so a
/// blocked connect, read or join ends the run instead of hanging it.
pub fn enter_stage(workload: &str, name: &str, limit: Duration) {
    *lock(&STAGE) = Some(Stage {
        workload: workload.to_string(),
        name: name.to_string(),
        deadline: Instant::now() + limit,
    });
}

/// Starts the watchdog and makes panics leave through [`exit`] too.
pub fn install() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        exit(EXIT_HARNESS);
    }));
    std::thread::Builder::new()
        .name("bench-watchdog".into())
        .spawn(|| loop {
            std::thread::sleep(Duration::from_millis(50));
            if let Some(stage) = lock(&STAGE).as_ref() {
                if Instant::now() > stage.deadline {
                    eprintln!(
                        "benchmark: liveness: workload {} stuck in stage {}",
                        stage.workload, stage.name
                    );
                    exit(EXIT_LIVENESS);
                }
            }
        })
        .unwrap_or_else(|e| harness_error(&format!("cannot start the watchdog: {e}")));
}

/// Where this benchmark keeps its files: `<target dir>/benchmark`, next
/// to the `release` directory the running executable was built into, so
/// it is inside the checkout and already ignored by git.
#[must_use]
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| harness_error(&format!("cannot locate the executable: {e}")));
    let target = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or_else(|| harness_error("the executable has no target directory above it"));
    target.join("benchmark")
}

/// Creates a fresh directory under [`scratch_root`], registered for
/// removal on exit.
#[must_use]
pub fn temp_dir(label: &str) -> PathBuf {
    let dir = scratch_root().join(format!(
        "tmp-{}-{}-{label}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| harness_error(&format!("cannot create {}: {e}", dir.display())));
    lock(&TEMP_DIRS).push(dir.clone());
    dir
}

/// Removes one directory made by [`temp_dir`] early.
pub fn remove_temp_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    lock(&TEMP_DIRS).retain(|d| d != dir);
}
