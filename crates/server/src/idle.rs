//! The wait every serving thread blocks in — a worker idle or draining at
//! shutdown, the acceptor, the replica sink:
//! `ppoll(2)` on the sockets its owner would touch next, plus a [`Waker`]
//! other threads write to, for at most a timeout kept to the nanosecond.
//! No registration state — a worker owns a handful of connections, and the
//! set is refilled from their current `Conn::interest` before every wait.
//! A thread that takes timed passes asks a [`Tick`] for each timeout, so
//! the passes come one per [`IDLE_PASS`] however long each one took.
//!
//! Public for `tests/idle_wait.rs`, which times the wait itself, and for
//! `gocc-loadgen`'s load driver, whose connections wait here too.

use std::ffi::{c_int, c_short, c_ulong, c_void};
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `struct timespec` as Linux lays it out on 64-bit targets.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Readable (or the peer hung up: the next read says which).
pub const POLLIN: c_short = 0x001;
/// Writable.
pub(crate) const POLLOUT: c_short = 0x004;

/// `prctl(2)` option: the calling thread's timer slack, in nanoseconds.
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// The period of a thread's timed passes — a [`Tick`] makes each wait end
/// this long after the one before it was due — and so what one idle pass
/// is worth in time.
pub const IDLE_PASS: Duration = Duration::from_micros(200);

/// The cadence of one thread's timed passes: the instant its last timed
/// [`wait`] was due. Its only job is to turn "now" into the next wait's
/// timeout, so that a wake-up's lateness and the pass's own work come out
/// of the next wait instead of being added to every period.
#[derive(Default)]
pub struct Tick {
    due: Option<Instant>,
}

impl Tick {
    /// The timeout of a timed wait that starts at `now`, never longer
    /// than [`IDLE_PASS`]. It ends one `IDLE_PASS` after the tick before
    /// it — at that tick itself when the waker cut the last wait short,
    /// so an early wake never lengthens the next wait — or, when that
    /// instant has passed (a pass overran a whole period, or there is no
    /// tick before it), one `IDLE_PASS` from now: a late cadence starts
    /// over, it is not caught up in a burst.
    pub fn timeout(&mut self, now: Instant) -> Duration {
        let due = next_due(self.due, now);
        self.due = Some(due);
        due.saturating_duration_since(now)
    }

    /// Forgets the cadence: the thread blocked, and its next timed wait
    /// is the first of a new one.
    pub fn forget(&mut self) {
        self.due = None;
    }
}

/// When a timed wait that starts at `now` is due, `last` being when the
/// one before it was.
fn next_due(last: Option<Instant>, now: Instant) -> Instant {
    match last {
        Some(last) if now < last => last,
        Some(last) if now < last + IDLE_PASS => last + IDLE_PASS,
        _ => now + IDLE_PASS,
    }
}

/// Makes the calling thread's timed waits end when they are due. A thread
/// starts with 50 µs of timer slack: the kernel may fire its timers that
/// much late to batch wake-ups, and a [`wait`] of [`IDLE_PASS`] lasted a
/// quarter longer than it said. A serving thread calls this once, when it
/// starts, and asks for the minimum, 1 ns. A kernel that refuses leaves
/// the waits late, not wrong, so the result is not looked at.
pub fn exact_timers() {
    let slack_ns: c_ulong = 1;
    // SAFETY: PR_SET_TIMERSLACK takes its one argument by value, touches
    // no memory of this process and changes only the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, slack_ns);
    }
}

/// Ends a [`wait`] from another thread. A non-blocking socket pair: the
/// pending byte is level-triggered, so a wake that lands between the
/// owner's last look at its work and its `poll` is not lost.
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    /// A waker nobody has woken.
    ///
    /// # Errors
    /// Whatever `socketpair(2)` reports: out of descriptors, mostly.
    pub fn new() -> io::Result<Waker> {
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
pub struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// Watches nothing.
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Watches `fd` for `events`. With no events the descriptor is left
    /// out: `poll` reports hang-up and error on every descriptor it is
    /// given, and an owner that will neither read nor write this one
    /// could not clear them — the wait would return at once, forever.
    pub fn push(&mut self, fd: RawFd, events: c_short) {
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
/// reported: the caller looks at all of its work again. A signal ends the
/// wait early, which is safe for the same reason. The timeout is exact to
/// the nanosecond as far as the kernel is asked; how late it fires is the
/// thread's timer slack, see [`exact_timers`].
pub fn wait(waker: &Waker, set: &mut PollSet, timeout: Option<Duration>) {
    let timeout = timeout.map(|t| Timespec {
        tv_sec: i64::try_from(t.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(t.subsec_nanos()),
    });
    set.push(waker.rx.as_raw_fd(), POLLIN);
    // SAFETY: `set.fds` points to `len()` initialised `pollfd` structures
    // and `timeout`, when not null, to a valid `timespec`, all outliving
    // the call; `ppoll` writes only the `revents` fields, and a null
    // signal mask leaves the mask alone. Each descriptor is an open
    // socket: the waker's is owned by `waker`, the rest by the caller's
    // connections or listener, which it keeps borrowed or owned across
    // this call.
    unsafe {
        ppoll(
            set.fds.as_mut_ptr(),
            set.fds.len() as c_ulong,
            timeout
                .as_ref()
                .map_or(std::ptr::null(), std::ptr::from_ref),
            std::ptr::null(),
        );
    }
    if set.fds.pop().is_some_and(|w| w.revents != 0) {
        waker.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: Duration = Duration::from_micros(1);

    #[test]
    fn a_tick_is_due_one_period_after_the_tick_before_it() {
        let last = Instant::now();
        // On time: woken 40 µs late, the pass took 5 more.
        assert_eq!(next_due(Some(last), last + 45 * US), last + IDLE_PASS);
        assert_eq!(next_due(Some(last), last), last + IDLE_PASS);
        // Woken early by the waker: the tick it was owed, not a later one.
        assert_eq!(next_due(Some(last), last - 150 * US), last);
        assert_eq!(next_due(Some(last), last - US), last);
        // Overran by a period or more: from now, no catch-up.
        let late = last + IDLE_PASS;
        assert_eq!(next_due(Some(last), late), late + IDLE_PASS);
        let late = last + 7 * IDLE_PASS + 13 * US;
        assert_eq!(next_due(Some(last), late), late + IDLE_PASS);
        // No tick before it.
        assert_eq!(next_due(None, last), last + IDLE_PASS);
    }

    #[test]
    fn no_timed_wait_is_longer_than_a_period_and_a_block_forgets_the_cadence() {
        let t0 = Instant::now();
        let mut tick = Tick::default();
        assert_eq!(tick.timeout(t0), IDLE_PASS);
        // Whatever "now" is against the tick owed (t0 + 200 µs), in 7 µs
        // steps from 150 µs before it to two periods after it.
        for step in 0..80 {
            let mut t = Tick {
                due: Some(t0 + IDLE_PASS),
            };
            let now = t0 + 50 * US + step * 7 * US;
            let timeout = t.timeout(now);
            assert!(timeout <= IDLE_PASS, "{timeout:?} at step {step}");
            assert!(t.due >= Some(now), "due in the past at step {step}");
        }
        // A run of passes that each take 45 µs: one per period, exactly.
        let mut now = t0;
        for pass in 1..=50 {
            now += tick.timeout(now);
            assert_eq!(now, t0 + pass * IDLE_PASS);
            now += 45 * US;
        }
        // The waker ends a wait 150 µs early; the wait behind that wake is
        // the 150 µs still owed, not a full period on top of them.
        let owed = now - 45 * US + IDLE_PASS;
        assert_eq!(tick.timeout(now), 155 * US);
        assert_eq!(tick.timeout(owed - 150 * US), 150 * US);
        assert_eq!(tick.timeout(owed + 10 * US), 190 * US);
        // After a block the old cadence is gone, however recent.
        tick.forget();
        assert_eq!(tick.timeout(owed + 20 * US), IDLE_PASS);
    }

    #[test]
    fn the_wait_behind_an_early_wake_is_shorter_than_a_period() {
        let waker = Waker::new().expect("socket pair");
        let mut set = PollSet::default();
        // A thread descheduled for a whole period between two lines here
        // restarts the cadence, rightly; such a round is taken again.
        let mut rounds = Vec::new();
        let won = (0..5).any(|_| {
            let mut tick = Tick::default();
            let t0 = Instant::now();
            let first = tick.timeout(t0);
            waker.wake();
            wait(&waker, &mut set, Some(first));
            let woken = Instant::now();
            let second = tick.timeout(woken);
            rounds.push((woken - t0, second));
            assert!(second <= IDLE_PASS, "a wait of {second:?}");
            woken + second == t0 + IDLE_PASS && second < IDLE_PASS
        });
        assert!(won, "(woken after, then waits): {rounds:?}");
    }

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
                let nobody = Waker::new().expect("socket pair");
                wait(
                    &nobody,
                    &mut PollSet::default(),
                    Some(Duration::from_millis(20)),
                );
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
