//! The `WalFile` seam: where bytes meet disk, and where faults are
//! injected.
//!
//! The syncer thread writes segments through the [`WalFile`] trait so the
//! same group-commit machinery runs over three backends:
//!
//! * [`WalBackend::Real`] — a plain `File` with `write_all`/`sync_data`.
//!   Production.
//! * [`WalBackend::Sim`] — an in-memory model of a file with an explicit
//!   *durable prefix*: appends buffer, an honest fsync advances the
//!   durable watermark, a short fsync advances it only partially, and a
//!   seeded crash **materializes** exactly the surviving bytes (durable
//!   prefix + whatever fraction of the unsynced tail the page cache
//!   happened to flush, possibly ending in a torn record) to the real
//!   path, then poisons every later operation. Recovery then reads the
//!   materialized file — the in-process equivalent of `kill -9` at a
//!   chosen byte.
//! * [`WalBackend::Abort`] — a real `File` that, on a seeded crash draw,
//!   writes a torn prefix of the fatal append and calls
//!   `process::abort()`. The end-to-end harness uses this to kill a live
//!   `goccd` at a reproducible LSN.
//!
//! The sim backend is deliberately *adversarial*: `close` without a crash
//! materializes everything (a graceful shutdown persists its buffers),
//! but a crash keeps only what an honest kernel must keep.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gocc_faultplane::StorageFaultPlan;

use crate::record::RECORD_LEN;

/// Error surface of a [`WalFile`] operation.
#[derive(Debug)]
pub enum WalIoError {
    /// Real I/O failure.
    Io(io::Error),
    /// A seeded crash fired (sim backend); the log is dead.
    Crashed,
}

impl From<io::Error> for WalIoError {
    fn from(e: io::Error) -> Self {
        WalIoError::Io(e)
    }
}

/// One open WAL segment, as seen by the syncer thread.
pub trait WalFile: Send {
    /// Appends `buf`, whose first record carries `lsn`.
    fn append(&mut self, lsn: u64, buf: &[u8]) -> Result<(), WalIoError>;
    /// Durability barrier attempt. `fsync_idx` is the log-lifetime fsync
    /// counter (fault-schedule key). Returns the number of file bytes
    /// now known durable — a **short fsync** reports success from the
    /// kernel but persisted less than everything, so the syncer compares
    /// the return against its append watermark and retries the barrier
    /// until the batch is actually covered. Acks release only then.
    fn sync(&mut self, fsync_idx: u64) -> Result<u64, WalIoError>;
    /// Graceful close: persist what a clean shutdown should persist.
    fn close(&mut self) -> Result<(), WalIoError>;
}

/// How segments are opened; carries the fault plan for the test backends.
#[derive(Clone, Debug)]
pub enum WalBackend {
    /// Plain files, no faults.
    Real,
    /// In-memory durable-prefix model; crashes materialize and poison.
    Sim(Arc<StorageFaultPlan>),
    /// Real files; a crash draw tears the append and aborts the process.
    Abort(Arc<StorageFaultPlan>),
}

impl WalBackend {
    /// Opens (creating or appending) the segment at `path`.
    pub fn open(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        match self {
            WalBackend::Real => Ok(Box::new(RealWalFile {
                file: OpenOptions::new().create(true).append(true).open(path)?,
            })),
            WalBackend::Sim(plan) => Ok(Box::new(SimWalFile {
                path: path.to_path_buf(),
                buffered: std::fs::read(path).unwrap_or_default(),
                durable: 0,
                crashed: false,
                plan: Arc::clone(plan),
            })),
            WalBackend::Abort(plan) => Ok(Box::new(AbortWalFile {
                file: OpenOptions::new().create(true).append(true).open(path)?,
                plan: Arc::clone(plan),
            })),
        }
    }

    /// The fault plan, when this backend carries one.
    #[must_use]
    pub fn plan(&self) -> Option<&Arc<StorageFaultPlan>> {
        match self {
            WalBackend::Real => None,
            WalBackend::Sim(p) | WalBackend::Abort(p) => Some(p),
        }
    }
}

struct RealWalFile {
    file: File,
}

impl WalFile for RealWalFile {
    fn append(&mut self, _lsn: u64, buf: &[u8]) -> Result<(), WalIoError> {
        self.file.write_all(buf)?;
        Ok(())
    }

    fn sync(&mut self, _fsync_idx: u64) -> Result<u64, WalIoError> {
        self.file.sync_data()?;
        Ok(u64::MAX) // a real fsync that returns covers everything
    }

    fn close(&mut self) -> Result<(), WalIoError> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// In-memory file model with an explicit durable prefix.
struct SimWalFile {
    path: PathBuf,
    /// Everything appended since open (re-seeded from disk contents so a
    /// reopened segment keeps its recovered prefix).
    buffered: Vec<u8>,
    /// Bytes guaranteed to survive a crash.
    durable: usize,
    crashed: bool,
    plan: Arc<StorageFaultPlan>,
}

impl SimWalFile {
    /// Writes the surviving bytes to the real path and poisons the file.
    fn crash(&mut self, surviving: usize) -> WalIoError {
        self.crashed = true;
        let keep = surviving.min(self.buffered.len());
        // Materialize atomically enough for a test harness: recovery runs
        // in the same process after this returns, never concurrently.
        if std::fs::write(&self.path, &self.buffered[..keep]).is_err() {
            // Disk trouble while simulating disk trouble; the poisoned
            // flag still guarantees no later op succeeds.
        }
        WalIoError::Crashed
    }
}

impl WalFile for SimWalFile {
    fn append(&mut self, lsn: u64, buf: &[u8]) -> Result<(), WalIoError> {
        if self.crashed {
            return Err(WalIoError::Crashed);
        }
        if self.plan.crash_at(lsn) {
            // Appends are prefix-ordered (ext4 ordered-mode model): what
            // survives is the durable prefix plus some prefix of the
            // unsynced tail. A torn draw means the fatal append itself
            // started landing — then everything before it landed too and
            // the partial record is the last thing on disk. Otherwise the
            // kernel flushed some fraction of the tail on its own.
            let tail = self.buffered.len() - self.durable;
            let torn = self.plan.surviving_append_bytes(lsn, buf.len());
            let surviving = if torn > 0 {
                self.buffered.extend_from_slice(&buf[..torn]);
                self.durable + tail + torn
            } else {
                self.durable + (tail as f64 * self.plan.surviving_tail_fraction(lsn)) as usize
            };
            return Err(self.crash(surviving));
        }
        self.buffered.extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self, fsync_idx: u64) -> Result<u64, WalIoError> {
        if self.crashed {
            return Err(WalIoError::Crashed);
        }
        let pending = self.buffered.len() - self.durable;
        match self.plan.short_fsync(fsync_idx) {
            // A short fsync persists only a prefix of the newly covered
            // bytes. The returned watermark is honest (the syncer retries
            // off it); the *lie* being modeled is the kernel's Ok.
            Some(frac) => self.durable += (pending as f64 * frac) as usize,
            None => self.durable = self.buffered.len(),
        }
        Ok(self.durable as u64)
    }

    fn close(&mut self) -> Result<(), WalIoError> {
        if self.crashed {
            return Err(WalIoError::Crashed);
        }
        self.durable = self.buffered.len();
        std::fs::write(&self.path, &self.buffered)?;
        Ok(())
    }
}

/// Real file that aborts the whole process at a seeded LSN.
struct AbortWalFile {
    file: File,
    plan: Arc<StorageFaultPlan>,
}

impl WalFile for AbortWalFile {
    fn append(&mut self, lsn: u64, buf: &[u8]) -> Result<(), WalIoError> {
        if self.plan.crash_at(lsn) {
            let torn = self.plan.surviving_append_bytes(lsn, buf.len());
            // Tear at sub-record granularity, push it to disk, and die the
            // way SIGKILL would: no unwinding, no destructors, no acks.
            let _ = self.file.write_all(&buf[..torn.min(RECORD_LEN)]);
            let _ = self.file.sync_data();
            std::process::abort();
        }
        self.file.write_all(buf)?;
        Ok(())
    }

    fn sync(&mut self, _fsync_idx: u64) -> Result<u64, WalIoError> {
        self.file.sync_data()?;
        Ok(u64::MAX)
    }

    fn close(&mut self) -> Result<(), WalIoError> {
        self.file.sync_data()?;
        Ok(())
    }
}
