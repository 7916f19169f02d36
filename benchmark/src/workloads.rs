//! The five workloads. Names are fixed; later issues cite them.

use crate::client::Wait;
use crate::ops::Mix;
use crate::serve::{Shape, Spec};

/// What a workload runs against.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Threads calling the cache through the engine; no wire, server or
    /// log.
    Section {
        mix: Mix,
        threads: usize,
        warm_ops: u64,
    },
    /// An in-process server driven over loopback TCP.
    Serve(Spec),
}

/// One workload and the reason it exists.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

/// The mix the paper's go-cache figure and the server workloads share:
/// 4 096 keys, Zipf 0.99, 90 % GET, writes SET/INCR/DEL 6:1:1.
const R90: Mix = Mix {
    keys: 4096,
    counters: 16,
    read_permille: 900,
    zipf_theta: 0.99,
};

/// In run order; `durable_w` last, so its disk traffic follows no other
/// workload's.
pub const NAMES: [&str; 5] = [
    "section_r90",
    "section_w50",
    "serve_paced",
    "serve_d32",
    "durable_w",
];

/// The workloads `BENCHMARK.json` declares and the benchmark driver
/// bounds. `durable_w` is not among them: its latency and throughput are
/// those of the host's shared disk, which moved its medians by a sixth
/// within twenty minutes of one afternoon (README, "Calibration"). It
/// stays in the full run, in `--self-test` and in `--compare`.
pub const DECLARED: [&str; 4] = ["section_r90", "section_w50", "serve_paced", "serve_d32"];

pub const ALL: [Workload; 5] = [
    Workload {
        name: "section_r90",
        why: "closed loop, 2 threads calling the go-cache model through the engine, 4096 keys Zipf 0.99, 90% GET: the paper's own shape; htm, optilock and txds do all the work, wire, server and wal none",
        kind: Kind::Section {
            mix: R90,
            threads: 2,
            warm_ops: 1_500_000,
        },
    },
    Workload {
        name: "section_w50",
        why: "same layers, other use: 50% writes over 16 keys, so both threads write the same stripes and conflict aborts, retries and the lock fallback run; a read-path gain that taxes writers shows here",
        kind: Kind::Section {
            mix: Mix {
                keys: 16,
                counters: 4,
                read_permille: 500,
                zipf_theta: 0.0,
            },
            threads: 2,
            warm_ops: 1_000_000,
        },
    },
    Workload {
        name: "serve_paced",
        why: "open loop, one connection, one request per 500 us timed from its due instant: every request meets an idle worker, so latency is the worker's poll-and-sleep loop and the socket path, not store work",
        kind: Kind::Serve(Spec {
            mix: R90,
            conns: 1,
            shape: Shape::Paced { period_ns: 500_000 },
            durable: false,
            preload: true,
            warm_ops: 1_000,
        }),
    },
    Workload {
        name: "serve_d32",
        why: "closed loop, one connection with 32 frames outstanding: the batch pump, wire decode/encode and execute_batch carry the load and the socket wait is amortised 32 times",
        kind: Kind::Serve(Spec {
            mix: R90,
            conns: 1,
            shape: Shape::Pipelined {
                depth: 32,
                wait: Wait::Spin,
            },
            durable: false,
            preload: true,
            warm_ops: 50_000,
        }),
    },
    Workload {
        name: "durable_w",
        why: "closed loop, 2 connections x 4 outstanding, 100% writes, data dir with group-commit fsync: wal staging, the fsync barrier and ack-after-barrier dominate; ends with the recovery oracle",
        kind: Kind::Serve(Spec {
            mix: Mix {
                keys: 2048,
                counters: 16,
                read_permille: 0,
                zipf_theta: 0.99,
            },
            conns: 2,
            shape: Shape::Pipelined {
                depth: 4,
                wait: Wait::Block,
            },
            durable: true,
            preload: false,
            warm_ops: 4_000,
        }),
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// The traffic mix, whatever the kind.
    #[must_use]
    pub fn mix(&self) -> Mix {
        match self.kind {
            Kind::Section { mix, .. } => mix,
            Kind::Serve(spec) => spec.mix,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_table_and_whys_fit_one_line() {
        assert!(DECLARED.iter().all(|d| NAMES.contains(d)));
        for (w, name) in ALL.iter().zip(NAMES) {
            assert_eq!(w.name, name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{name}");
        }
    }
}
