//! Transaction abort causes, mirroring the Intel TSX `EAX` status encoding.

use std::fmt;

/// Explicit-abort code used when the elided lock is observed held inside a
/// transaction (the `xabort(0xFF)` convention used by glibc lock elision).
pub const LOCK_HELD_CODE: u8 = 0xFF;

/// Explicit-abort code raised when `FastUnlock` is handed a different mutex
/// than the one memorized by `FastLock` (mis-paired LU-pair recovery, §5.2.3).
pub const MUTEX_MISMATCH_CODE: u8 = 0xFE;

/// Why a transaction aborted.
///
/// The variants mirror the Intel RTM abort-status bits reported in `EAX`
/// after a failed `xbegin`:
///
/// | TSX bit | Variant |
/// |---|---|
/// | bit 0 (XABORT) + imm8 | [`AbortCause::Explicit`] |
/// | bit 1 (may succeed on retry) | [`AbortCause::Retry`] |
/// | bit 2 (data conflict) | [`AbortCause::Conflict`] |
/// | bit 3 (internal buffer overflow) | [`AbortCause::Capacity`] |
/// | bit 4 (debug breakpoint) | [`AbortCause::Debug`] |
/// | bit 5 (abort during nested tx) | [`AbortCause::Nested`] |
/// | n/a (unfriendly instruction, e.g. syscall) | [`AbortCause::Unfriendly`] |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// The program requested the abort (`xabort imm8`). The payload is the
    /// 8-bit abort code; see [`LOCK_HELD_CODE`] and [`MUTEX_MISMATCH_CODE`].
    Explicit(u8),
    /// Transient failure that may succeed if retried (TSX sets this for
    /// e.g. cache evictions that were not capacity-fatal).
    Retry,
    /// Another agent conflicted with this transaction's read or write set.
    Conflict,
    /// The transaction overflowed the read- or write-set capacity.
    Capacity,
    /// A debug exception occurred inside the transaction.
    Debug,
    /// The abort happened while a nested transaction was active.
    Nested,
    /// The transaction executed an instruction that can never commit under
    /// HTM (IO, syscalls, privileged instructions). Modeled explicitly
    /// because the simulation cannot observe raw instructions.
    Unfriendly,
}

impl AbortCause {
    /// Whether retrying the transaction can plausibly succeed.
    ///
    /// This drives the retry policy in `optilock`: conflicts and transient
    /// failures are worth retrying; capacity overflows and unfriendly
    /// instructions are deterministic and are not.
    #[must_use]
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            AbortCause::Retry | AbortCause::Conflict | AbortCause::Explicit(LOCK_HELD_CODE)
        )
    }

    /// A dense index for per-cause counters, matching the order of
    /// `gocc_telemetry::ABORT_CAUSE_NAMES` (explicit, retry, conflict,
    /// capacity, debug, nested, unfriendly). The explicit payload is not
    /// part of the index; attribution tables fold all explicit codes into
    /// one bucket.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            AbortCause::Explicit(_) => 0,
            AbortCause::Retry => 1,
            AbortCause::Conflict => 2,
            AbortCause::Capacity => 3,
            AbortCause::Debug => 4,
            AbortCause::Nested => 5,
            AbortCause::Unfriendly => 6,
        }
    }
}

impl fmt::Display for AbortCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortCause::Explicit(code) => write!(f, "explicit(0x{code:02X})"),
            AbortCause::Retry => f.write_str("retry"),
            AbortCause::Conflict => f.write_str("conflict"),
            AbortCause::Capacity => f.write_str("capacity"),
            AbortCause::Debug => f.write_str("debug"),
            AbortCause::Nested => f.write_str("nested"),
            AbortCause::Unfriendly => f.write_str("unfriendly"),
        }
    }
}

/// An in-flight transaction abort.
///
/// Hardware rolls back to `xbegin` via a non-local jump; the safe-Rust
/// rendering is an error value that the critical section propagates with
/// `?`. The retry loop in `optilock` catches it, rolls the transaction
/// back, and decides whether to retry on the fast path or fall back to the
/// lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort {
    /// Why the transaction aborted.
    pub cause: AbortCause,
}

impl Abort {
    /// Creates an abort with the given cause.
    #[must_use]
    pub fn new(cause: AbortCause) -> Self {
        Abort { cause }
    }
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction aborted: {}", self.cause)
    }
}

impl std::error::Error for Abort {}

/// Result type used throughout transactional code.
pub type TxResult<T> = Result<T, Abort>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_causes() {
        assert!(AbortCause::Retry.is_transient());
        assert!(AbortCause::Conflict.is_transient());
        assert!(AbortCause::Explicit(LOCK_HELD_CODE).is_transient());
        assert!(!AbortCause::Capacity.is_transient());
        assert!(!AbortCause::Unfriendly.is_transient());
        assert!(!AbortCause::Explicit(MUTEX_MISMATCH_CODE).is_transient());
    }

    #[test]
    fn index_order_matches_telemetry_names() {
        use gocc_telemetry::ABORT_CAUSE_NAMES;
        for (cause, name) in [
            (AbortCause::Explicit(0xFF), "explicit"),
            (AbortCause::Retry, "retry"),
            (AbortCause::Conflict, "conflict"),
            (AbortCause::Capacity, "capacity"),
            (AbortCause::Debug, "debug"),
            (AbortCause::Nested, "nested"),
            (AbortCause::Unfriendly, "unfriendly"),
        ] {
            assert_eq!(ABORT_CAUSE_NAMES[cause.index()], name);
        }
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(AbortCause::Explicit(0xFF).to_string(), "explicit(0xFF)");
        assert_eq!(
            Abort::new(AbortCause::Capacity).to_string(),
            "transaction aborted: capacity"
        );
    }
}
