//! A zap-like structured logger (§6.1's Zap results).
//!
//! Logging libraries keep IO in their critical sections, so GOCC rewrites
//! few of their locks and the improvements are mild (~4% geomean in the
//! paper, 28% best case, worst slowdown −7%). The model captures that mix:
//! hot, elidable level checks and field lookups; an IO-bound write path
//! that stays on the lock (the body raises the HTM-unfriendly marker, so
//! in GOCC mode the perceptron learns to stop speculating on it).

use gocc_htm::Tx;
use gocc_optilock::{call_site, ElidableMutex, ElidableRwMutex, LockRef};
use gocc_txds::{fnv1a, TxCounter, TxMap};

use crate::engine::Engine;

/// Log levels.
pub const DEBUG: u64 = 0;
/// Info level.
pub const INFO: u64 = 1;
/// Error level.
pub const ERROR: u64 = 2;

/// The logger core: an atomic-ish level gate, a field registry and a
/// buffered write path.
pub struct Logger {
    level_lock: ElidableRwMutex,
    level: TxCounter,
    fields_lock: ElidableRwMutex,
    fields: TxMap,
    write_lock: ElidableMutex,
    bytes_written: TxCounter,
    entries_written: TxCounter,
}

impl Logger {
    /// Creates a logger at `INFO` with `preload` registered fields.
    #[must_use]
    pub fn new(rt: &gocc_htm::HtmRuntime, preload: usize) -> Self {
        let l = Logger {
            level_lock: ElidableRwMutex::new(),
            level: TxCounter::new(INFO),
            fields_lock: ElidableRwMutex::new(),
            fields: TxMap::with_capacity(preload.max(8) * 4),
            write_lock: ElidableMutex::new(),
            bytes_written: TxCounter::new(0),
            entries_written: TxCounter::new(0),
        };
        let mut tx = Tx::direct(rt);
        for i in 0..preload {
            l.fields
                .insert(&mut tx, Self::field_key(i), i as u64)
                .expect("preload");
        }
        tx.commit().expect("direct commit");
        l
    }

    /// Canonical field-name hash.
    #[must_use]
    pub fn field_key(i: usize) -> u64 {
        fnv1a(format!("field-{i}").as_bytes())
    }

    /// `LevelEnabled`: the hottest call in any logging pipeline.
    pub fn enabled(&self, engine: &Engine<'_>, lvl: u64) -> bool {
        engine.section(call_site!(), LockRef::Read(&self.level_lock), |tx| {
            Ok(lvl >= self.level.get(tx)?)
        })
    }

    /// `SetLevel`: rare reconfiguration write.
    pub fn set_level(&self, engine: &Engine<'_>, lvl: u64) {
        engine.section(call_site!(), LockRef::Write(&self.level_lock), |tx| {
            self.level.set(tx, lvl)
        });
    }

    /// `FieldLookup`: resolve a structured field id.
    pub fn field(&self, engine: &Engine<'_>, key: u64) -> Option<u64> {
        engine.section(call_site!(), LockRef::Read(&self.fields_lock), |tx| {
            self.fields.get(tx, key)
        })
    }

    /// `With`: register a field (occasional write).
    pub fn with_field(&self, engine: &Engine<'_>, key: u64, value: u64) {
        engine.section(call_site!(), LockRef::Write(&self.fields_lock), |tx| {
            self.fields.insert(tx, key, value)?;
            Ok(())
        });
    }

    /// `Write`: the sink. The section performs (simulated) IO, which on
    /// real RTM aborts the transaction; the body raises the unfriendly
    /// marker so the GOCC path behaves identically.
    pub fn write(&self, engine: &Engine<'_>, msg_len: u64) {
        engine.section(call_site!(), LockRef::Mutex(&self.write_lock), |tx| {
            tx.unfriendly()?; // the syscall in the buffered writer
            self.bytes_written.add(tx, msg_len)?;
            self.entries_written.add(tx, 1)?;
            Ok(())
        });
    }

    /// Full `Infow`-style call: level gate, field resolution, write.
    pub fn infow(&self, engine: &Engine<'_>, field_idx: usize, msg_len: u64) -> bool {
        if !self.enabled(engine, INFO) {
            return false;
        }
        let _ = self.field(engine, Self::field_key(field_idx));
        self.write(engine, msg_len);
        true
    }

    /// Bytes and entries written so far.
    pub fn written(&self, engine: &Engine<'_>) -> (u64, u64) {
        engine.section(call_site!(), LockRef::Mutex(&self.write_lock), |tx| {
            Ok((self.bytes_written.get(tx)?, self.entries_written.get(tx)?))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Mode;
    use gocc_optilock::GoccRuntime;

    #[test]
    fn level_gate_and_write_path() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let log = Logger::new(rt.htm(), 8);
            let engine = Engine::new(&rt, mode);
            assert!(log.enabled(&engine, ERROR));
            assert!(!log.enabled(&engine, DEBUG));
            assert!(log.infow(&engine, 2, 100));
            log.set_level(&engine, ERROR);
            assert!(
                !log.infow(&engine, 2, 100),
                "INFO suppressed at ERROR level"
            );
            let (bytes, entries) = log.written(&engine);
            assert_eq!((bytes, entries), (100, 1), "mode {mode:?}");
        }
    }

    #[test]
    fn write_path_falls_back_and_perceptron_learns() {
        let rt = GoccRuntime::new_default();
        let log = Logger::new(rt.htm(), 4);
        let engine = Engine::new(&rt, Mode::Gocc);
        for _ in 0..50 {
            log.write(&engine, 10);
        }
        let snap = rt.stats().snapshot();
        assert_eq!(
            snap.slow_sections, 50,
            "IO sections always finish on the lock"
        );
        assert!(
            snap.htm_attempts < 20,
            "perceptron must learn the write path is hopeless: {snap:?}"
        );
        let (bytes, entries) = log.written(&engine);
        assert_eq!((bytes, entries), (500, 50));
    }

    #[test]
    fn concurrent_level_checks_elide() {
        let rt = GoccRuntime::new_default();
        let log = Logger::new(rt.htm(), 4);
        let engine = Engine::new(&rt, Mode::Gocc);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (engine, log) = (&engine, &log);
                s.spawn(move || {
                    for _ in 0..250 {
                        let _ = log.enabled(engine, INFO);
                    }
                });
            }
        });
        let snap = rt.stats().snapshot();
        assert!(
            snap.fast_commits > 900,
            "level checks should elide: {snap:?}"
        );
    }
}
