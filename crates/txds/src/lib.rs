//! Transactional data structures for GOCC workloads.
//!
//! Hardware transactional memory operates on raw words, so data structures
//! placed under elided locks need no special types. The software HTM in
//! `gocc-htm` versions [`TxVar`](gocc_htm::TxVar) cells instead, so this
//! crate provides the word-oriented building blocks the paper's evaluation
//! subjects (maps, sets, caches, metric registries) are assembled from:
//!
//! * [`TxMap`] — fixed-capacity open-addressing hash map (`u64 → u64`, or
//!   `u64 →` any `Copy` value of up to two words);
//! * [`TxSet`] — a set over [`TxMap`];
//! * [`TxVec`] — fixed-capacity vector with a transactional length;
//! * [`TxCounter`] — a counter cell;
//! * [`Arena`] — a non-transactional append-only blob store whose `Copy`
//!   handles let structured values (strings, byte blobs) live behind
//!   word-sized transactional cells, the same way HTM-friendly code keeps
//!   large payloads out of the write set.
//!
//! Every operation takes the ambient [`Tx`](gocc_htm::Tx) and works
//! identically on the speculative fast path and the mutex-held direct
//! path; callers are responsible for wrapping operations in critical
//! sections (see `gocc-optilock`).

mod arena;
mod counter;
mod hash;
mod map;
mod set;
mod vec;

pub use arena::{Arena, BlobHandle};
pub use counter::TxCounter;
pub use hash::{fnv1a, mix64};
pub use map::{InsertOutcome, TxMap};
pub use set::TxSet;
pub use vec::TxVec;
