//! `optiLib`: the adaptive HTM runtime of GOCC (§5.4 of the paper).
//!
//! This crate layers the paper's runtime logic on top of the simulated HTM
//! in `gocc-htm` and the Go-faithful locks in `gocc-gosync`:
//!
//! * [`ElidableMutex`] / [`ElidableRwMutex`] — a `sync.Mutex`/`sync.RWMutex`
//!   paired with the lock word transactions subscribe to;
//! * [`OptiLock`] — the per-critical-section state object with
//!   `FastLock()`/`FastUnlock()` semantics, including nesting, mutex
//!   mismatch detection and recovery (Appendix C), and the retry loop of
//!   Listing 19;
//! * [`Perceptron`] — the hashed perceptron (two 4K-entry weight tables,
//!   weights in [-16, 15], features: mutex ⊕ call-site and call-site) that
//!   learns per-site/per-lock whether HTM pays off, with the 1000-decision
//!   weight-decay reset;
//! * [`GoccRuntime`] — the bundle of HTM domain, perceptron, policy and
//!   statistics a program links against.
//!
//! The common entry points are the closure helpers [`critical_mutex`],
//! [`critical_read`] and [`critical_write`], which own the re-execution
//! loop that hardware performs by rolling back to `xbegin`:
//!
//! ```
//! use gocc_htm::TxVar;
//! use gocc_optilock::{critical_mutex, ElidableMutex, GoccRuntime};
//!
//! let rt = GoccRuntime::new_default();
//! let m = ElidableMutex::new();
//! let counter = TxVar::new(0u64);
//! let site = gocc_optilock::call_site!();
//!
//! let seen = critical_mutex(&rt, site, &m, |tx| {
//!     let v = tx.read(&counter)?;
//!     tx.write(&counter, v + 1)?;
//!     Ok(v)
//! });
//! assert_eq!(seen, 0);
//! ```

mod elidable;
mod perceptron;
mod policy;
mod runtime;
mod session;
mod stats;

pub use elidable::{ElidableMutex, ElidableRwMutex};
pub use perceptron::{Perceptron, PerceptronConfig, PerceptronSnapshot};
pub use policy::RetryPolicy;
pub use runtime::{GoccConfig, GoccRuntime};
pub use session::{
    critical, critical_mutex, critical_read, critical_write, HtmScope, LockRef, OptiLock,
};
pub use stats::{OptiStatsSnapshot, StatsView};

/// Declares a stable call-site identifier for perceptron context hashing.
///
/// The paper uses the stack address of the `OptiLock` variable as the
/// calling-context feature; in Rust a per-call-site `static` provides a
/// stable identity across invocations and threads, which is strictly better
/// behaved as a learning feature.
#[macro_export]
macro_rules! call_site {
    () => {{
        static SITE: u8 = 0;
        std::ptr::addr_of!(SITE) as usize
    }};
}
