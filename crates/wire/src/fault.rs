//! Injectable I/O faults: a [`FaultyStream`] wrapper that perturbs any
//! `Read + Write` transport according to a seeded
//! [`TransportFaultPlan`](gocc_faultplane::TransportFaultPlan).
//!
//! Four fault classes, mapped onto ordinary `io` surface so every consumer
//! exercises its real error-handling paths rather than special cases:
//!
//! * **short read** — the next read is truncated to a deterministic prefix
//!   of the caller's buffer, splitting frames across arbitrary boundaries;
//! * **short write** — likewise for writes, forcing partial-write loops;
//! * **stall** — the call fails with `WouldBlock`, indistinguishable from
//!   an empty socket (non-blocking consumers retry; blocking consumers
//!   treat it as a timeout tick);
//! * **reset** — the call fails with `ConnectionReset`, which must cost
//!   exactly that one connection.
//!
//! Fault decisions are pure functions of `(seed, stream id, call index)`,
//! so a given stream's schedule is independent of all other traffic.
//! Wrapping with [`FaultyStream::passthrough`] (or a `None` plan) is
//! transparent: production paths pay one branch.

use std::io::{self, Read, Write};
use std::sync::Arc;

use gocc_faultplane::{TransportFault, TransportFaultPlan};

/// A `Read + Write` transport with seeded fault injection in front.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    plan: Option<Arc<TransportFaultPlan>>,
    stream: u64,
}

impl<S> FaultyStream<S> {
    /// Wraps `inner`, drawing faults from `plan` under a fresh stream id.
    pub fn new(inner: S, plan: Arc<TransportFaultPlan>) -> Self {
        let stream = plan.next_stream_id();
        FaultyStream {
            inner,
            plan: Some(plan),
            stream,
        }
    }

    /// Wraps `inner` with no injection at all (one branch of overhead).
    pub fn passthrough(inner: S) -> Self {
        FaultyStream {
            inner,
            plan: None,
            stream: 0,
        }
    }

    /// [`FaultyStream::new`] when a plan is present, otherwise
    /// [`FaultyStream::passthrough`].
    pub fn maybe(inner: S, plan: Option<Arc<TransportFaultPlan>>) -> Self {
        match plan {
            Some(p) => FaultyStream::new(inner, p),
            None => FaultyStream::passthrough(inner),
        }
    }

    /// The wrapped transport.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }
}

fn injected(kind: io::ErrorKind, what: &'static str) -> io::Error {
    io::Error::new(kind, what)
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(plan) = &self.plan else {
            return self.inner.read(buf);
        };
        match plan.draw_read(self.stream) {
            Some(TransportFault::Reset) => {
                Err(injected(io::ErrorKind::ConnectionReset, "injected reset"))
            }
            Some(TransportFault::Stall) => {
                Err(injected(io::ErrorKind::WouldBlock, "injected stall"))
            }
            Some(TransportFault::ShortRead) if buf.len() > 1 => {
                let n = plan.chop(self.stream, buf.len());
                self.inner.read(&mut buf[..n])
            }
            _ => self.inner.read(buf),
        }
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(plan) = &self.plan else {
            return self.inner.write(buf);
        };
        match plan.draw_write(self.stream) {
            Some(TransportFault::Reset) => {
                Err(injected(io::ErrorKind::ConnectionReset, "injected reset"))
            }
            Some(TransportFault::Stall) => {
                Err(injected(io::ErrorKind::WouldBlock, "injected stall"))
            }
            Some(TransportFault::ShortWrite) if buf.len() > 1 => {
                let n = plan.chop(self.stream, buf.len());
                self.inner.write(&buf[..n])
            }
            _ => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocc_faultplane::TransportMix;

    /// In-memory duplex: reads from `input`, writes into `output`.
    #[derive(Default)]
    struct Pipe {
        input: io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn plan(mix: TransportMix, seed: u64) -> Arc<TransportFaultPlan> {
        Arc::new(TransportFaultPlan::new(seed, mix))
    }

    #[test]
    fn passthrough_is_transparent() {
        let mut pipe = Pipe::default();
        pipe.input = io::Cursor::new(b"hello".to_vec());
        let mut fs = FaultyStream::passthrough(pipe);
        let mut buf = [0u8; 16];
        assert_eq!(fs.read(&mut buf).unwrap(), 5);
        assert_eq!(fs.write(b"world").unwrap(), 5);
        assert_eq!(fs.get_ref().output, b"world");
    }

    #[test]
    fn short_reads_still_deliver_every_byte() {
        // 100% short-read: the payload arrives fragmented but complete and
        // in order — exactly what frame reassembly must cope with.
        let payload: Vec<u8> = (0..=255u8).collect();
        let mut pipe = Pipe::default();
        pipe.input = io::Cursor::new(payload.clone());
        let p = plan(
            TransportMix {
                short_read: 1.0,
                ..TransportMix::default()
            },
            3,
        );
        let mut fs = FaultyStream::new(pipe, Arc::clone(&p));
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        let mut saw_partial = false;
        loop {
            match fs.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    saw_partial |= n < 64;
                    got.extend_from_slice(&buf[..n]);
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(got, payload, "fragmented but complete and in order");
        assert!(saw_partial, "chop must actually fragment the stream");
        assert!(p.total_injected() > 0);
    }

    #[test]
    fn short_writes_force_partial_write_loops() {
        let p = plan(
            TransportMix {
                short_write: 1.0,
                ..TransportMix::default()
            },
            4,
        );
        let mut fs = FaultyStream::new(Pipe::default(), p);
        let payload = vec![7u8; 300];
        // write_all must converge despite every write being chopped.
        fs.write_all(&payload).unwrap();
        assert_eq!(fs.get_ref().output, payload);
    }

    #[test]
    fn stalls_and_resets_surface_as_io_errors() {
        let p = plan(
            TransportMix {
                stall: 1.0,
                ..TransportMix::default()
            },
            5,
        );
        let mut fs = FaultyStream::new(Pipe::default(), p);
        let mut buf = [0u8; 8];
        assert_eq!(
            fs.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        assert_eq!(
            fs.write(&buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );

        let p = plan(
            TransportMix {
                reset: 1.0,
                ..TransportMix::default()
            },
            6,
        );
        let mut fs = FaultyStream::new(Pipe::default(), p);
        assert_eq!(
            fs.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
    }

    #[test]
    fn same_seed_same_fault_schedule_per_stream() {
        let run = |seed: u64| {
            let p = plan(TransportMix::uniform(0.5), seed);
            let mut kinds = Vec::new();
            let mut fs = FaultyStream::new(Pipe::default(), Arc::clone(&p));
            let mut buf = [0u8; 32];
            for _ in 0..50 {
                kinds.push(fs.read(&mut buf).map_err(|e| e.kind()));
                kinds.push(fs.write(&buf).map_err(|e| e.kind()));
            }
            (kinds, p.counts())
        };
        assert_eq!(run(9), run(9), "replay-by-seed contract");
        assert_ne!(run(9).1, run(10).1, "different seeds must diverge");
    }
}
