//! Transport (I/O) fault injection.
//!
//! The wire protocol is length-prefixed, so the interesting failures are
//! the ones that land *mid-frame*: a read that returns half a header, a
//! write that flushes half a payload, a socket that stalls, a peer that
//! resets. The plan decides, per I/O operation on a stream, whether to
//! inject one of:
//!
//! * **ShortRead** — deliver fewer bytes than were available;
//! * **ShortWrite** — accept fewer bytes than were offered;
//! * **Stall** — report "not ready" (`WouldBlock`-shaped) this round;
//! * **Reset** — fail with `ConnectionReset`; the stream is dead after.
//!
//! Short reads/writes are *correctness-preserving* faults: `FrameBuf`
//! reassembly and `write_all` loops must absorb them with zero protocol
//! divergence. Stalls exercise timeout paths; resets exercise the
//! client's reconnect-with-replay and the server's connection isolation.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::seq::SeqTable;
use crate::{decide, unit};

/// A transport fault class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportFault {
    /// Deliver fewer bytes than available on a read.
    ShortRead,
    /// Accept fewer bytes than offered on a write.
    ShortWrite,
    /// Report "not ready" for this operation.
    Stall,
    /// Fail with `ConnectionReset`; the stream stays dead.
    Reset,
}

impl TransportFault {
    /// Stable index into [`TRANSPORT_FAULT_NAMES`] and counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            TransportFault::ShortRead => 0,
            TransportFault::ShortWrite => 1,
            TransportFault::Stall => 2,
            TransportFault::Reset => 3,
        }
    }
}

/// Names matching [`TransportFault::index`], for reports.
pub const TRANSPORT_FAULT_NAMES: [&str; 4] = ["short_read", "short_write", "stall", "reset"];

/// Per-operation transport fault probabilities. Absolute, sum ≤ 1.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransportMix {
    /// P(short read) per read op.
    pub short_read: f64,
    /// P(short write) per write op.
    pub short_write: f64,
    /// P(stall) per op.
    pub stall: f64,
    /// P(reset) per op.
    pub reset: f64,
}

impl TransportMix {
    /// An even split of `total` across all four classes.
    #[must_use]
    pub fn uniform(total: f64) -> Self {
        let each = total / 4.0;
        TransportMix {
            short_read: each,
            short_write: each,
            stall: each,
            reset: each,
        }
    }
}

/// Salt decorrelating length draws from fault-class draws.
const CHOP_SALT: u64 = 0xC4CE_B9FE_1A85_EC53;

/// Deterministic per-stream transport fault schedule.
///
/// Streams are identified by a caller-chosen `u64` (connection index,
/// worker id, …); [`TransportFaultPlan::next_stream_id`] hands out fresh
/// ones when the caller has no natural key.
#[derive(Debug)]
pub struct TransportFaultPlan {
    seed: u64,
    mix: TransportMix,
    seq: SeqTable,
    injected: [AtomicU64; 4],
    next_stream: AtomicU64,
}

impl TransportFaultPlan {
    /// A plan applying `mix` on every stream.
    #[must_use]
    pub fn new(seed: u64, mix: TransportMix) -> Self {
        TransportFaultPlan {
            seed,
            mix,
            seq: SeqTable::new(),
            injected: Default::default(),
            next_stream: AtomicU64::new(0),
        }
    }

    /// The configured mix.
    #[must_use]
    pub fn mix(&self) -> TransportMix {
        self.mix
    }

    /// Allocates a fresh stream id.
    pub fn next_stream_id(&self) -> u64 {
        self.next_stream.fetch_add(1, Ordering::Relaxed)
    }

    fn draw(&self, stream: u64, classes: [(f64, TransportFault); 3]) -> Option<TransportFault> {
        if classes.iter().map(|(p, _)| p).sum::<f64>() <= 0.0 {
            return None;
        }
        let n = self.seq.next(stream as usize);
        let u = unit(decide(self.seed, stream, n));
        let mut edge = 0.0;
        for (p, fault) in classes {
            edge += p;
            if u < edge {
                self.injected[fault.index()].fetch_add(1, Ordering::Relaxed);
                return Some(fault);
            }
        }
        None
    }

    /// Decision for the next read operation on `stream`.
    pub fn draw_read(&self, stream: u64) -> Option<TransportFault> {
        self.draw(
            stream,
            [
                (self.mix.short_read, TransportFault::ShortRead),
                (self.mix.stall, TransportFault::Stall),
                (self.mix.reset, TransportFault::Reset),
            ],
        )
    }

    /// Decision for the next write operation on `stream`.
    pub fn draw_write(&self, stream: u64) -> Option<TransportFault> {
        self.draw(
            stream,
            [
                (self.mix.short_write, TransportFault::ShortWrite),
                (self.mix.stall, TransportFault::Stall),
                (self.mix.reset, TransportFault::Reset),
            ],
        )
    }

    /// Deterministically truncates `len` to `[1, len]` for a short
    /// read/write on `stream`.
    #[must_use]
    pub fn chop(&self, stream: u64, len: usize) -> usize {
        if len <= 1 {
            return len;
        }
        let n = self.seq.next(stream as usize);
        1 + (decide(self.seed ^ CHOP_SALT, stream, n) % len as u64) as usize
    }

    /// Injected-fault counts, indexed per [`TransportFault::index`].
    #[must_use]
    pub fn counts(&self) -> [u64; 4] {
        [
            self.injected[0].load(Ordering::Relaxed),
            self.injected[1].load(Ordering::Relaxed),
            self.injected[2].load(Ordering::Relaxed),
            self.injected[3].load(Ordering::Relaxed),
        ]
    }

    /// Total injected transport faults across all classes.
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        self.counts().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_mix_is_transparent() {
        let plan = TransportFaultPlan::new(1, TransportMix::default());
        for _ in 0..100 {
            assert_eq!(plan.draw_read(0), None);
            assert_eq!(plan.draw_write(0), None);
        }
        assert_eq!(plan.total_injected(), 0);
    }

    #[test]
    fn read_and_write_sides_see_their_classes() {
        let plan = TransportFaultPlan::new(2, TransportMix::uniform(1.0));
        let mut read_seen = [false; 4];
        let mut write_seen = [false; 4];
        for _ in 0..400 {
            if let Some(f) = plan.draw_read(0) {
                read_seen[f.index()] = true;
            }
            if let Some(f) = plan.draw_write(1) {
                write_seen[f.index()] = true;
            }
        }
        assert!(read_seen[TransportFault::ShortRead.index()]);
        assert!(!read_seen[TransportFault::ShortWrite.index()]);
        assert!(read_seen[TransportFault::Stall.index()]);
        assert!(read_seen[TransportFault::Reset.index()]);
        assert!(write_seen[TransportFault::ShortWrite.index()]);
        assert!(!write_seen[TransportFault::ShortRead.index()]);
    }

    #[test]
    fn chop_is_deterministic_and_in_range() {
        let a = TransportFaultPlan::new(3, TransportMix::uniform(0.5));
        let b = TransportFaultPlan::new(3, TransportMix::uniform(0.5));
        for _ in 0..200 {
            let ca = a.chop(4, 100);
            let cb = b.chop(4, 100);
            assert_eq!(ca, cb);
            assert!((1..=100).contains(&ca));
        }
        assert_eq!(a.chop(5, 1), 1);
        assert_eq!(a.chop(5, 0), 0);
    }

    #[test]
    fn stream_ids_are_unique() {
        let plan = TransportFaultPlan::new(4, TransportMix::default());
        assert_eq!(plan.next_stream_id(), 0);
        assert_eq!(plan.next_stream_id(), 1);
        assert_eq!(plan.next_stream_id(), 2);
    }
}
