//! What the kernel reports about this process and its threads: CPU time,
//! context switches and peak resident memory, read from `/proc/self`.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`),
/// which Linux fixes at 100 for every architecture it exports them on.
const USER_HZ: u64 = 100;

/// CPU nanoseconds (user + system) a thread has run, given its
/// `/proc/self/task/<tid>` directory. Prefers `schedstat`, which counts
/// in nanoseconds; falls back to the 10 ms ticks of `stat`.
fn task_cpu_ns(task_dir: &str) -> Option<u64> {
    if let Ok(s) = fs::read_to_string(format!("{task_dir}/schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return Some(ns);
        }
    }
    let stat = fs::read_to_string(format!("{task_dir}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// CPU nanoseconds of the calling thread.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    task_cpu_ns("/proc/thread-self").unwrap_or(0)
}

/// CPU time and voluntary context switches of a set of threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadTotals {
    pub cpu_ns: u64,
    pub voluntary_switches: u64,
}

impl ThreadTotals {
    /// Growth since an earlier reading.
    #[must_use]
    pub fn since(&self, earlier: &ThreadTotals) -> ThreadTotals {
        ThreadTotals {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            voluntary_switches: self
                .voluntary_switches
                .saturating_sub(earlier.voluntary_switches),
        }
    }
}

/// The threads of this process whose name (the kernel's 15-byte `comm`)
/// starts with one of some prefixes, found once so they can be re-read
/// cheaply at every slice boundary.
pub struct Watch {
    task_dirs: Vec<String>,
}

impl Watch {
    /// Finds the live threads named `prefix*` for any of `prefixes`.
    #[must_use]
    pub fn new(prefixes: &[&str]) -> Watch {
        let mut task_dirs = Vec::new();
        if let Ok(dir) = fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(path) = entry.path().to_str().map(str::to_string) else {
                    continue;
                };
                let comm = fs::read_to_string(format!("{path}/comm")).unwrap_or_default();
                if prefixes.iter().any(|p| comm.starts_with(p)) {
                    task_dirs.push(path);
                }
            }
        }
        Watch { task_dirs }
    }

    /// CPU nanoseconds the watched threads have used so far, in total.
    #[must_use]
    pub fn cpu_ns(&self) -> u64 {
        self.task_dirs
            .iter()
            .map(|d| task_cpu_ns(d).unwrap_or(0))
            .sum()
    }

    /// CPU time and voluntary context switches so far, in total.
    #[must_use]
    pub fn totals(&self) -> ThreadTotals {
        ThreadTotals {
            cpu_ns: self.cpu_ns(),
            voluntary_switches: self
                .task_dirs
                .iter()
                .filter_map(|d| fs::read_to_string(format!("{d}/status")).ok())
                .map(|status| status_field(&status, "voluntary_ctxt_switches:"))
                .sum(),
        }
    }
}

extern "C" {
    fn setpriority(
        which: std::ffi::c_int,
        who: std::ffi::c_uint,
        prio: std::ffi::c_int,
    ) -> std::ffi::c_int;
    fn sched_getaffinity(pid: std::ffi::c_int, size: usize, mask: *mut u64) -> std::ffi::c_int;
    fn sched_setaffinity(pid: std::ffi::c_int, size: usize, mask: *const u64) -> std::ffi::c_int;
}

/// Words of a CPU mask: 1 024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// The CPUs this process was given, in ascending order. Read once, on
/// the first call, which must come before any thread is placed.
#[must_use]
pub fn cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is `size_of_val(&mask)` writable bytes; pid 0 is
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        let found: Vec<usize> = (0..MASK_WORDS * 64)
            .filter(|i| rc == 0 && mask[i / 64] >> (i % 64) & 1 == 1)
            .collect();
        if found.is_empty() {
            vec![0]
        } else {
            found
        }
    })
}

/// The seat of the thread that generates load: the first CPU.
pub const DRIVER_SEAT: usize = 0;
/// The seat of the threads under test in a server workload: the second
/// CPU (the only one, on a one-CPU box).
pub const SERVER_SEAT: usize = 1;

/// Places the calling thread, and every thread it spawns from now on, on
/// one CPU: seat `i` is the `i`-th CPU of [`cpus`], wrapping around.
///
/// Left to the scheduler, which threads share a CPU changes every few
/// seconds and the cost of a wake-up with it: `serve_paced` CPU per
/// request moved between plateaus of 35, 38, 42 and 47 us within one run.
/// Seated, each workload has one layout. A refusal (a restricted cpuset)
/// leaves the thread where it was.
pub fn take_seat(seat: usize) {
    let all = cpus();
    let cpu = all[seat % all.len()];
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is `size_of_val(&mask)` readable bytes; pid 0 is the
    // calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Threads that keep every CPU from halting, at the lowest priority.
///
/// A worker that sleeps 200 µs on an otherwise idle virtual CPU is woken
/// by a timer interrupt the hypervisor must first schedule that CPU to
/// deliver: 50 µs on a quiet host, 2 ms on a busy one, for minutes at a
/// time. `serve_paced` was bimodal with it (p90 280 µs or 2 ms, CPU per
/// request halved). A nice-19 spinner seated on each CPU keeps the CPUs
/// running, so timers fire on time; every thread under test preempts it
/// at once.
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one spinner per available CPU.
    #[must_use]
    pub fn start() -> KeepAwake {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let threads = (0..cpus().len())
            .filter_map(|i| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("bench-awake-{i}"))
                    .spawn(move || {
                        take_seat(i);
                        // SAFETY: plain integers in, an integer out; `who`
                        // 0 with PRIO_PROCESS (0) names the calling
                        // thread on Linux. Failure leaves the priority
                        // as it was, which only makes the spinner ruder.
                        unsafe {
                            setpriority(0, 0, 19);
                        }
                        while !stop.load(Ordering::Relaxed) {
                            for _ in 0..256 {
                                std::hint::spin_loop();
                            }
                        }
                    })
                    .ok()
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn status_field(status: &str, name: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t    2048 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_field(s, "VmHWM:"), 2048);
        assert_eq!(status_field(s, "voluntary_ctxt_switches:"), 17);
        assert_eq!(status_field(s, "absent:"), 0);
    }

    #[test]
    fn this_thread_accumulates_cpu_time() {
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > before);
        assert!(peak_rss_mb() > 0.0);
    }
}
