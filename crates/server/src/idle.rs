//! The readiness wait an idle worker or acceptor blocks in: `poll(2)` on
//! the sockets its owner would touch next, plus a [`Waker`] other threads
//! write to. No registration state — a worker owns a handful of
//! connections, and the set is refilled from their current
//! [`interest`](crate::conn::Conn::interest) before every wait.

use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// Readable (or the peer hung up: the next read says which).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable.
pub(crate) const POLLOUT: c_short = 0x004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Ends a [`wait`] from another thread. A non-blocking socket pair: the
/// pending byte is level-triggered, so a wake that lands between the
/// owner's last look at its work and its `poll` is not lost.
pub(crate) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Makes the owner's current or next [`wait`] return. A full socket
    /// buffer means wakes are already pending, which is all a wake says.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// The descriptors one [`wait`] watches. Capacity persists across waits,
/// so a steady connection set refills it without allocating.
#[derive(Default)]
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    pub(crate) fn clear(&mut self) {
        self.fds.clear();
    }

    /// Watches `fd` for `events`. With no events the descriptor is left
    /// out: `poll` reports hang-up and error on every descriptor it is
    /// given, and an owner that will neither read nor write this one
    /// could not clear them — the wait would return at once, forever.
    pub(crate) fn push(&mut self, fd: RawFd, events: c_short) {
        if events != 0 {
            self.fds.push(PollFd {
                fd,
                events,
                revents: 0,
            });
        }
    }
}

/// Blocks until a descriptor in `set` is ready, `waker` is woken or
/// `timeout` passes (`None`: no limit). Which of them it was is not
/// reported: the caller looks at all of its work again, exactly as after
/// the sleep this replaces. A signal ends the wait early, which is safe
/// for the same reason.
pub(crate) fn wait(waker: &Waker, set: &mut PollSet, timeout: Option<Duration>) {
    // Rounded up, so a deadline the caller computed has passed on return.
    let timeout_ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    set.push(waker.rx.as_raw_fd(), POLLIN);
    // SAFETY: `set.fds` points to `len()` initialised `pollfd` structures
    // that outlive the call, and `poll` writes only their `revents`. Each
    // descriptor is an open socket: the waker's is owned by `waker`, the
    // rest by the caller's connections or listener, which it keeps
    // borrowed or owned across this call.
    unsafe {
        poll(set.fds.as_mut_ptr(), set.fds.len() as c_ulong, timeout_ms);
    }
    if set.fds.pop().is_some_and(|w| w.revents != 0) {
        waker.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn a_wake_before_the_wait_is_not_lost_and_is_consumed_once() {
        let waker = Waker::new().expect("socket pair");
        let mut set = PollSet::default();
        waker.wake();
        waker.wake();
        let t0 = Instant::now();
        wait(&waker, &mut set, Some(Duration::from_secs(5)));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "pending wake ignored"
        );
        // Both bytes were drained: the next wait runs to its timeout.
        let t0 = Instant::now();
        wait(&waker, &mut set, Some(Duration::from_millis(30)));
        assert!(t0.elapsed() >= Duration::from_millis(30), "stale wake");
        assert!(set.fds.is_empty(), "the waker's slot is popped again");
    }

    #[test]
    fn a_wake_from_another_thread_ends_an_unbounded_wait() {
        let waker = Waker::new().expect("socket pair");
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                waker.wake();
            });
            wait(&waker, &mut PollSet::default(), None);
        });
    }

    #[test]
    fn readiness_ends_the_wait_and_a_descriptor_without_events_is_not_watched() {
        let waker = Waker::new().expect("socket pair");
        let (a, b) = UnixStream::pair().expect("socket pair");
        let mut set = PollSet::default();
        // `b` hung up: poll would report POLLHUP on `a` whatever was
        // asked, so a descriptor nobody will touch must stay out.
        drop(b);
        set.push(a.as_raw_fd(), 0);
        let t0 = Instant::now();
        wait(&waker, &mut set, Some(Duration::from_millis(30)));
        assert!(t0.elapsed() >= Duration::from_millis(30), "spun on POLLHUP");
        set.clear();
        set.push(a.as_raw_fd(), POLLIN);
        let t0 = Instant::now();
        wait(&waker, &mut set, Some(Duration::from_secs(5)));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "readable end ignored"
        );
    }
}
