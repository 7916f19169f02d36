//! Critical-section execution: original locks vs. GOCC.

use gocc_htm::{Tx, TxResult};
use gocc_optilock::{critical, GoccRuntime, LockRef};
use gocc_telemetry::trace;
use gocc_telemetry::{Span, SpanKind, Telemetry};

/// Which program variant runs: the baseline or the transformed one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The original pessimistic program (`sync.Mutex`/`sync.RWMutex`).
    Lock,
    /// The GOCC-transformed program (`optiLib` lock elision).
    Gocc,
}

/// Executes critical sections under a chosen [`Mode`].
///
/// The workload code is written once against the transactional API; the
/// engine decides whether a section runs under the real lock (with direct
/// memory access, exactly the cost profile of the untransformed program)
/// or through `optiLib`'s `FastLock` machinery.
pub struct Engine<'a> {
    rt: &'a GoccRuntime,
    mode: Mode,
}

impl<'a> Engine<'a> {
    /// Creates an engine over a runtime.
    #[must_use]
    pub fn new(rt: &'a GoccRuntime, mode: Mode) -> Self {
        Engine { rt, mode }
    }

    /// The runtime in use.
    #[must_use]
    pub fn runtime(&self) -> &'a GoccRuntime {
        self.rt
    }

    /// The execution mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The runtime's telemetry bundle, when enabled via
    /// [`gocc_optilock::GoccConfig::with_telemetry`].
    #[must_use]
    pub fn telemetry(&self) -> Option<&'a Telemetry> {
        self.rt.telemetry()
    }

    /// Runs a critical section that the analyzer accepted for elision.
    ///
    /// In [`Mode::Lock`] the original lock is taken (bypassing the lock
    /// word — the baseline program has no speculating peers); in
    /// [`Mode::Gocc`] the section goes through `optiLib`.
    pub fn section<R>(
        &self,
        site: usize,
        lock: LockRef<'a>,
        body: impl FnMut(&mut Tx<'a>) -> TxResult<R>,
    ) -> R {
        let trace_id = self.rt.tracer().current();
        if trace_id == 0 {
            return match self.mode {
                Mode::Gocc => critical(self.rt, site, lock, body),
                Mode::Lock => self.pessimistic(lock, body),
            };
        }
        // Sampled request: wrap the whole elision envelope (all retries
        // and the fallback included) in one section span.
        let start = trace::now_ns();
        let out = match self.mode {
            Mode::Gocc => critical(self.rt, site, lock, body),
            Mode::Lock => self.pessimistic(lock, body),
        };
        self.rt.tracer().push(Span {
            trace_id,
            kind: SpanKind::Section,
            start_ns: start,
            dur_ns: trace::now_ns().saturating_sub(start),
            a: site as u64,
            b: 0,
        });
        out
    }

    /// Runs a critical section that GOCC did *not* transform (e.g.
    /// fastcache's panic-guarded `Set`): both modes use the original lock.
    ///
    /// In GOCC mode the acquisition must go through the elidable wrapper
    /// (bumping the lock word) so concurrent elided sections on the same
    /// lock abort correctly — this is the lock/HTM interoperability of §4.
    pub fn untransformed_section<R>(
        &self,
        lock: LockRef<'a>,
        mut body: impl FnMut(&mut Tx<'a>) -> TxResult<R>,
    ) -> R {
        match self.mode {
            Mode::Lock => self.pessimistic(lock, body),
            Mode::Gocc => {
                lock.acquire(self.rt);
                let mut tx = Tx::direct(self.rt.htm());
                let out = body(&mut tx).expect("direct sections cannot abort");
                tx.commit().expect("direct commits succeed");
                lock.release(self.rt);
                out
            }
        }
    }

    fn pessimistic<R>(
        &self,
        lock: LockRef<'a>,
        mut body: impl FnMut(&mut Tx<'a>) -> TxResult<R>,
    ) -> R {
        lock.acquire_raw(self.rt);
        let mut tx = Tx::direct(self.rt.htm());
        let out = body(&mut tx).expect("direct sections cannot abort");
        tx.commit().expect("direct commits succeed");
        lock.release_raw(self.rt);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocc_htm::contention::RMW_PENALTY_NS;
    use gocc_htm::{HtmConfig, TxVar};
    use gocc_optilock::{ElidableMutex, GoccConfig};
    use std::time::{Duration, Instant};

    #[test]
    fn both_modes_produce_same_result() {
        for mode in [Mode::Lock, Mode::Gocc] {
            let rt = GoccRuntime::new_default();
            let engine = Engine::new(&rt, mode);
            let m = ElidableMutex::new();
            let v = TxVar::new(0u64);
            for _ in 0..100 {
                engine.section(gocc_optilock::call_site!(), LockRef::Mutex(&m), |tx| {
                    let cur = tx.read(&v)?;
                    tx.write(&v, cur + 1)
                });
            }
            let mut check = Tx::direct(rt.htm());
            assert_eq!(check.read(&v).unwrap(), 100, "mode {mode:?}");
        }
    }

    #[test]
    fn lock_mode_never_speculates() {
        let rt = GoccRuntime::new_default();
        let engine = Engine::new(&rt, Mode::Lock);
        let m = ElidableMutex::new();
        let v = TxVar::new(0u64);
        engine.section(gocc_optilock::call_site!(), LockRef::Mutex(&m), |tx| {
            tx.write(&v, 1)
        });
        assert_eq!(rt.stats().snapshot().htm_attempts, 0);
        assert_eq!(rt.htm().stats().snapshot().starts, 0);
    }

    #[test]
    fn untransformed_sections_interoperate_with_elided_ones() {
        let rt = GoccRuntime::new_default();
        let engine = Engine::new(&rt, Mode::Gocc);
        let m = ElidableMutex::new();
        let v = TxVar::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..200 {
                        engine.section(gocc_optilock::call_site!(), LockRef::Mutex(&m), |tx| {
                            let cur = tx.read(&v)?;
                            tx.write(&v, cur + 1)
                        });
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..200 {
                        engine.untransformed_section(LockRef::Mutex(&m), |tx| {
                            let cur = tx.read(&v)?;
                            tx.write(&v, cur + 1)
                        });
                    }
                });
            }
        });
        let mut check = Tx::direct(rt.htm());
        assert_eq!(check.read(&v).unwrap(), 800, "no lost updates across paths");
    }

    #[test]
    fn two_runtimes_with_different_sim_cores_at_once() {
        const SECTIONS: u64 = 2_000;
        let one = GoccRuntime::new_default();
        let eight = GoccRuntime::new(GoccConfig {
            htm: HtmConfig {
                sim_cores: 8,
                ..HtmConfig::coffee_lake()
            },
            ..GoccConfig::standard()
        });
        assert_eq!(one.htm().rmw_charge_ns(), 0);
        assert_eq!(eight.htm().rmw_charge_ns(), 7 * RMW_PENALTY_NS);

        let barrier = std::sync::Barrier::new(2);
        let run = |rt: &GoccRuntime| {
            let engine = Engine::new(rt, Mode::Lock);
            let m = ElidableMutex::new();
            let v = TxVar::new(7u64);
            // The first charge calibrates the spin; keep that out of the
            // timed window, where it would cover for missing charges.
            rt.htm().charge_shared_rmw();
            barrier.wait();
            let t0 = Instant::now();
            for _ in 0..SECTIONS {
                // A read alone, so the lock is the only thing charged.
                let read = engine.section(gocc_optilock::call_site!(), LockRef::Mutex(&m), |tx| {
                    tx.read(&v)
                });
                assert_eq!(read, 7);
            }
            t0.elapsed()
        };
        let eight_took = std::thread::scope(|s| {
            let a = s.spawn(|| run(&one));
            let b = s.spawn(|| run(&eight));
            a.join().unwrap();
            b.join().unwrap()
        });
        // A mutex section is one acquire and one release, each charged
        // once; the other runtime's model never reaches this one.
        let floor = Duration::from_nanos(u64::from(eight.htm().rmw_charge_ns()) * 2 * SECTIONS);
        assert!(
            eight_took >= floor,
            "{SECTIONS} sections at 8 cores took {eight_took:?}, below the {floor:?} charged"
        );
    }
}
