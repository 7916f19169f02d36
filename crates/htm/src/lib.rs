//! Software Hardware-Transactional-Memory emulation for GOCC.
//!
//! This crate is the substrate that stands in for Intel TSX/RTM, which the
//! paper "Optimistic Concurrency Control for Real-world Go Programs"
//! (USENIX ATC 2021) relies on but which is disabled on modern CPUs. It
//! provides optimistic, atomic, abortable code regions with the same
//! *observable contract* as RTM:
//!
//! * a region either commits entirely or rolls back with a machine-readable
//!   abort cause ([`AbortCause`]) mirroring the TSX `EAX` status bits;
//! * conflicts are detected at cache-line granularity — two variables that
//!   fall into the same 64-byte line share a version stripe, so false
//!   sharing causes real aborts, as on hardware;
//! * capacity is bounded: transactions that read or write too many distinct
//!   lines abort with [`AbortCause::Capacity`];
//! * nesting is flat (subsumption) with a depth cap, like TSX;
//! * "HTM-unfriendly" operations (IO, syscalls) abort the transaction via
//!   [`Tx::unfriendly`].
//!
//! The engine is a TL2-style software transactional memory: reads are
//! version-validated against a global clock, writes are buffered and
//! published at commit under per-stripe versioned locks. Transactional data
//! lives in [`TxVar`] cells; the same cells support a *direct* (slow-path)
//! mode used when the guarding mutex is actually held, so workload code is
//! written once and runs on both the fast path and the fall-back path.
//!
//! # Interoperability with lock slow paths
//!
//! [`LockWord`] implements the elision hand-shake from §5.4 of the paper:
//! a fast-path transaction subscribes to the lock word so that a slow-path
//! acquisition invalidates it, and a slow-path owner drains in-flight commit
//! write-backs before entering its critical section. The fast path only
//! *reads* the word: a writing commit announces itself in its own arena's
//! commit slot (one 128-byte line per thread, in a process-global registry,
//! see [`commit_slot_usage`]) and the slow-path acquirer, after bumping the
//! word, scans the registry for announcements naming it. On the fast path
//! nobody writes the lock's line.
//!
//! # Safety model
//!
//! Shared data guarded by a mutex must only be accessed (a) inside
//! transactions eliding that mutex or (b) in direct mode while that mutex is
//! held. This is exactly the "properly synchronized program" precondition of
//! the paper; see [`TxVar`] for details.

pub mod contention;

mod abort;
mod clock;
mod config;
mod ctx;
mod gate;
mod runtime;
mod stats;
mod stripe;
mod tx;
mod txvar;

pub use abort::{Abort, AbortCause, TxResult, LOCK_HELD_CODE, MUTEX_MISMATCH_CODE};
pub use config::HtmConfig;
pub use ctx::{INLINE_VALUE_ALIGN, INLINE_VALUE_BYTES};
pub use gate::{commit_slot_usage, LockWord};
pub use runtime::HtmRuntime;
pub use stats::{HtmStats, StatsSnapshot};
pub use stripe::{StripeId, StripeTable, CACHE_LINE};
pub use tx::{Elision, Tx, TxMode};
pub use txvar::{Padded, TxVar};
