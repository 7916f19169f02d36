//! `gocc-wal` — durability for the GOCC cache: group-commit write-ahead
//! logging, checkpoints, and seeded crash recovery.
//!
//! The paper's thesis is that optimistic concurrency pays off when the
//! cost of synchronization is amortized across many operations. This
//! crate applies the identical argument to the most expensive
//! synchronization primitive on the box — `fsync` — so that making the
//! cache durable does not give back what lock elision won:
//!
//! * [`record`] — fixed-layout 52-byte records, CRC-32 checksums, and a
//!   panic-free incremental decoder ([`RecordBuf`]) in the style of
//!   `gocc_wire::FrameBuf`.
//! * [`wal`] — the [`Wal`] itself: mutating sections stage post-images
//!   onto per-shard commit pipes; one syncer thread batches them into a
//!   single write + fsync and releases acknowledgements only after the
//!   barrier ([`SyncPolicy::Group`]), per record ([`SyncPolicy::Always`])
//!   or immediately ([`SyncPolicy::Off`]).
//! * [`checkpoint`] — consistent per-shard snapshots written to an
//!   atomically renamed side file, bounding replay and letting old
//!   segments be deleted.
//! * [`recover`] — boot-time replay of checkpoint + WAL tail with
//!   checksum verification and torn-tail truncation.
//! * [`file`] — the [`WalFile`] seam where `gocc_faultplane`'s
//!   `StorageFaultPlan` injects torn writes, short fsyncs and crashes at
//!   seeded `(seed, lsn)` points, in-process ([`WalBackend::Sim`]) or by
//!   aborting a live daemon ([`WalBackend::Abort`]).
//!
//! The invariant the whole crate exists to uphold, and that `crash_soak`
//! attacks at every seeded crash point: **an acknowledged write is in
//! the fsynced prefix and survives any crash; an unacknowledged write is
//! either fully replayed or fully absent, never torn in half.**

pub mod checkpoint;
pub mod file;
pub mod record;
pub mod recover;
#[allow(clippy::module_inception)]
pub mod wal;

pub use checkpoint::{decode_checkpoint, encode_checkpoint, CheckpointImage, ShardImage};
pub use file::{WalBackend, WalFile, WalIoError};
pub use record::{crc32, encode_record, RecordBuf, RecordError, WalKind, WalRecord, RECORD_LEN};
pub use recover::{recover, segment_path, Recovered, RecoveryStats, CKPT_FILE, CKPT_TMP};
pub use wal::{
    DurableState, DurableTap, FlushToken, Staged, SyncPolicy, Wal, WalConfig, WalError, WalTicket,
};
