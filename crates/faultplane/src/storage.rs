//! Storage (durability) fault injection.
//!
//! A write-ahead log makes promises only a crash can test: an
//! acknowledged write must survive, an unacknowledged one must never be
//! half-applied. Nothing in normal operation crashes the process at the
//! worst possible byte, so [`StorageFaultPlan`] manufactures those
//! moments deterministically. Every draw is the pure `decide(seed, key,
//! n)` function shared with the other plans, keyed by the WAL position
//! the fault lands on:
//!
//! * **Crash at `(seed, lsn)`** — the process (or the simulated file)
//!   dies inside the append carrying log sequence number `lsn`. A
//!   companion draw decides whether the final append survives **torn at
//!   byte granularity** (a partial record prefix lands on disk) or is
//!   lost entirely, along with how much of the unsynced tail the page
//!   cache happened to flush.
//! * **Short fsync** — the barrier reports success but persists only a
//!   prefix of the bytes it covered. Harmless until a later crash, which
//!   is exactly why it must be paired with the crash schedule above.
//! * **Checkpoint-phase crash** — keyed by `(checkpoint index, phase)`
//!   so a schedule can land a death mid-checkpoint-write, between the
//!   side-file rename and the WAL truncation, or mid-truncation.
//!
//! The plan is consumed through the `WalFile` seam in `gocc-wal`; the
//! real-file backend turns a crash draw into `process::abort()`, the
//! simulated backend materializes the surviving prefix and poisons the
//! log in-process.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{decide, unit};

/// A storage fault class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageFault {
    /// Death inside an append; only the durable prefix (plus a possibly
    /// torn fragment) survives.
    Crash,
    /// The crash left a partial record on disk.
    TornWrite,
    /// An fsync that persisted only a prefix of what it claimed.
    ShortFsync,
    /// Death inside the checkpoint/truncate sequence.
    CkptCrash,
}

impl StorageFault {
    /// Stable index into counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            StorageFault::Crash => 0,
            StorageFault::TornWrite => 1,
            StorageFault::ShortFsync => 2,
            StorageFault::CkptCrash => 3,
        }
    }
}

/// Per-operation storage fault probabilities. Absolute, each in `[0, 1]`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StorageMix {
    /// P(crash) per appended record, keyed by its LSN.
    pub crash_per_append: f64,
    /// P(the fatal append survives torn | crash). The torn length is a
    /// further uniform draw over the record's bytes.
    pub torn_given_crash: f64,
    /// P(short fsync) per durability barrier.
    pub short_fsync: f64,
    /// P(crash) per checkpoint phase (write / rename / truncate).
    pub ckpt_crash: f64,
}

// Draw-salt namespaces: one per independent question asked about a key,
// so schedules never alias.
const N_CRASH: u64 = 0;
const N_TORN: u64 = 1;
const N_TORN_LEN: u64 = 2;
const N_TAIL_KEEP: u64 = 3;
const N_SHORT: u64 = 4;
const N_SHORT_LEN: u64 = 5;

// Key namespaces keep fsync and checkpoint draws decorrelated from LSN
// draws that happen to share small integer keys.
const K_FSYNC: u64 = 0x5F5F_F5_00 << 32;
const K_CKPT: u64 = 0x6C6B_70_00 << 32;

/// Seeded storage fault schedule; a pure function of `(seed, position)`.
#[derive(Debug)]
pub struct StorageFaultPlan {
    seed: u64,
    mix: StorageMix,
    injected: [AtomicU64; 4],
}

impl StorageFaultPlan {
    /// Builds a plan. `seed` fully determines the schedule.
    #[must_use]
    pub fn new(seed: u64, mix: StorageMix) -> Self {
        StorageFaultPlan {
            seed,
            mix,
            injected: Default::default(),
        }
    }

    /// The schedule's seed, for replay and reports.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured mix.
    #[must_use]
    pub fn mix(&self) -> StorageMix {
        self.mix
    }

    /// Does the append carrying `lsn` crash the process?
    #[must_use]
    pub fn crash_at(&self, lsn: u64) -> bool {
        let hit = unit(decide(self.seed, lsn, N_CRASH)) < self.mix.crash_per_append;
        if hit {
            self.note(StorageFault::Crash);
        }
        hit
    }

    /// Given a crash at `lsn` during an append of `len` bytes: how many
    /// of those bytes survive on disk? `0` means the append vanishes;
    /// anything in `1..len` is a torn write.
    #[must_use]
    pub fn surviving_append_bytes(&self, lsn: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        if unit(decide(self.seed, lsn, N_TORN)) < self.mix.torn_given_crash {
            self.note(StorageFault::TornWrite);
            // Uniform in 1..len: torn means *some* bytes landed.
            1 + (decide(self.seed, lsn, N_TORN_LEN) as usize) % len.max(2).saturating_sub(1)
        } else {
            0
        }
    }

    /// Given a crash at `lsn`: the fraction of the unsynced tail (bytes
    /// appended but not yet covered by a successful fsync) the page cache
    /// happened to flush before death. Uniform in `[0, 1)`.
    #[must_use]
    pub fn surviving_tail_fraction(&self, lsn: u64) -> f64 {
        unit(decide(self.seed, lsn, N_TAIL_KEEP))
    }

    /// Does the `idx`-th fsync persist only a prefix? Returns the kept
    /// fraction of the newly covered bytes, or `None` for an honest sync.
    #[must_use]
    pub fn short_fsync(&self, idx: u64) -> Option<f64> {
        if unit(decide(self.seed, K_FSYNC ^ idx, N_SHORT)) < self.mix.short_fsync {
            self.note(StorageFault::ShortFsync);
            Some(unit(decide(self.seed, K_FSYNC ^ idx, N_SHORT_LEN)))
        } else {
            None
        }
    }

    /// Does checkpoint number `ckpt` crash in `phase`? Phases are the
    /// caller's enumeration of its fs-operation sequence (side-file
    /// write, rename, per-segment truncation step, ...).
    #[must_use]
    pub fn ckpt_crash(&self, ckpt: u64, phase: u64) -> bool {
        let hit = unit(decide(self.seed, K_CKPT ^ ckpt, phase)) < self.mix.ckpt_crash;
        if hit {
            self.note(StorageFault::CkptCrash);
        }
        hit
    }

    fn note(&self, fault: StorageFault) {
        self.injected[fault.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Injected-fault count for one class.
    #[must_use]
    pub fn injected(&self, fault: StorageFault) -> u64 {
        self.injected[fault.index()].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLASSES: [StorageFault; 4] = [
        StorageFault::Crash,
        StorageFault::TornWrite,
        StorageFault::ShortFsync,
        StorageFault::CkptCrash,
    ];

    #[test]
    fn same_seed_same_schedule() {
        let mix = StorageMix {
            crash_per_append: 0.01,
            torn_given_crash: 0.5,
            short_fsync: 0.05,
            ckpt_crash: 0.1,
        };
        let a = StorageFaultPlan::new(77, mix);
        let b = StorageFaultPlan::new(77, mix);
        for lsn in 0..5000 {
            assert_eq!(a.crash_at(lsn), b.crash_at(lsn));
            assert_eq!(
                a.surviving_append_bytes(lsn, 52),
                b.surviving_append_bytes(lsn, 52)
            );
        }
        for idx in 0..1000 {
            assert_eq!(a.short_fsync(idx), b.short_fsync(idx));
        }
        for ckpt in 0..100 {
            for phase in 0..4 {
                assert_eq!(a.ckpt_crash(ckpt, phase), b.ckpt_crash(ckpt, phase));
            }
        }
        for f in CLASSES {
            assert_eq!(a.injected(f), b.injected(f), "{f:?}");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mix = StorageMix {
            crash_per_append: 0.05,
            ..StorageMix::default()
        };
        let a = StorageFaultPlan::new(1, mix);
        let b = StorageFaultPlan::new(2, mix);
        let divergent = (0..2000)
            .filter(|&l| a.crash_at(l) != b.crash_at(l))
            .count();
        assert!(divergent > 0, "independent seeds must differ somewhere");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mix = StorageMix {
            crash_per_append: 0.02,
            torn_given_crash: 1.0,
            short_fsync: 0.1,
            ckpt_crash: 0.0,
        };
        let plan = StorageFaultPlan::new(9, mix);
        let crashes = (0..50_000).filter(|&l| plan.crash_at(l)).count();
        assert!(
            (500..1500).contains(&crashes),
            "2% of 50k draws, got {crashes}"
        );
        let shorts = (0..50_000)
            .filter(|&i| plan.short_fsync(i).is_some())
            .count();
        assert!((3500..6500).contains(&shorts), "10% of 50k, got {shorts}");
    }

    #[test]
    fn torn_bytes_stay_in_record_bounds() {
        let mix = StorageMix {
            torn_given_crash: 1.0,
            ..StorageMix::default()
        };
        let plan = StorageFaultPlan::new(4, mix);
        for lsn in 0..10_000 {
            let kept = plan.surviving_append_bytes(lsn, 52);
            assert!(kept >= 1 && kept < 52, "lsn {lsn}: kept {kept}");
            let frac = plan.surviving_tail_fraction(lsn);
            assert!((0.0..1.0).contains(&frac));
        }
        assert_eq!(plan.surviving_append_bytes(3, 0), 0, "empty append");
    }

    #[test]
    fn zero_mix_is_silent() {
        let plan = StorageFaultPlan::new(123, StorageMix::default());
        for lsn in 0..10_000 {
            assert!(!plan.crash_at(lsn));
            assert!(plan.short_fsync(lsn).is_none());
            assert!(!plan.ckpt_crash(lsn, lsn % 4));
        }
        for f in CLASSES {
            assert_eq!(plan.injected(f), 0, "{f:?}");
        }
    }
}
