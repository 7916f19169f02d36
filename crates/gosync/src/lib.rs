//! Go-faithful synchronization primitives.
//!
//! The GOCC paper evaluates lock elision against Go's `sync.Mutex` and
//! `sync.RWMutex`, and several of its observed effects depend on the exact
//! semantics of those locks rather than on "a mutex" in the abstract:
//!
//! * the RWMutex read-path speedups (Figures 6–8) come from eliding the two
//!   contended atomic RMWs on `reader_count` that every `RLock`/`RUnlock`
//!   performs;
//! * the fastcache `CacheSetGet` anomaly (§6.1) comes from the mutex's
//!   *starvation mode*: once a waiter has been blocked for more than 1 ms,
//!   ownership is handed off FIFO and new arrivals stop barging.
//!
//! This crate therefore ports the algorithms of Go's `sync/mutex.go` and
//! `sync/rwmutex.go` (state word with locked/woken/starving bits and a
//! waiter count; reader count with the `MAX_READERS` offset trick),
//! including the runtime semaphore's LIFO/FIFO queueing and handoff.
//!
//! `runtime.GOMAXPROCS` is not modelled here: the `optiLib` single-thread
//! bypass reads it from its runtime handle (`GoccConfig::procs`), and the
//! mutex spin heuristic keeps only its iteration bound. Nor is the cost of
//! bouncing a state word between cores: `optilock`'s `LockRef` charges it
//! around each acquire and release, from its runtime's
//! `HtmConfig::sim_cores`, so these locks know nothing of the HTM.

mod mutex;
mod pairing;
mod rwmutex;
mod sema;

pub use mutex::{GoMutex, GoMutexGuard};
pub use pairing::{lock_id, LockLedger};
pub use rwmutex::{GoRwMutex, GoRwReadGuard, GoRwWriteGuard};
pub use sema::Semaphore;

/// Does nothing. The processor count lives in each runtime handle
/// (`GoccConfig::procs`, default 8), so there is no process-wide value to
/// set. `benchmark/src/run.rs` is the last caller; the benchmark change of
/// ROADMAP item 1 deletes that call and then this function.
pub fn set_procs(_n: usize) {}
