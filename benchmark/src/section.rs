//! The `section_*` workloads: threads calling the go-cache model straight
//! through the engine, with no wire, server or log in the way.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use gocc_htm::StatsSnapshot;
use gocc_optilock::{GoccRuntime, OptiStatsSnapshot};
use gocc_workloads::gocache::Cache;
use gocc_workloads::{Engine, Mode};

use crate::ops::{self, KeyTable, Mix, Op, Part, Verb, STREAM_LEN};
use crate::procfs;
use crate::spans::{SpanLog, SpanRec};
use crate::window::{self, Mark, Track, Window};

/// How often a section thread times one call (and looks at the clock):
/// every 64th operation, so the timer costs the loop well under 1 %.
const SAMPLE_EVERY: u64 = 64;

/// A preloaded cache, its runtime, and the generated inputs.
pub struct World<'a> {
    rt: Box<PageAligned<GoccRuntime>>,
    cache: Box<PageAligned<Cache>>,
    pub mix: Mix,
    pub keys: KeyTable,
    pub streams: &'a [Vec<Op>],
    /// INCR deltas issued so far per counter key, over every run on this
    /// world: what the counter oracle expects the cache to hold.
    issued: Vec<u64>,
}

/// Pins a value to the start of a page of its own. The runtime and the
/// cache hold the words both threads write on every operation (statistics,
/// the version clock, the lock word); left on the stack, which of those
/// words share a cache line would depend on where address-space
/// randomisation put the stack in this process, and throughput with it —
/// by 15 % from one process to the next on the box this was written on.
#[repr(align(4096))]
struct PageAligned<T>(T);

impl<T> std::ops::Deref for PageAligned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Generates one op stream per thread; done once, outside set-up time.
#[must_use]
pub fn streams(seed: u64, mix: &Mix, threads: usize) -> Vec<Vec<Op>> {
    (0..threads as u64)
        .map(|t| ops::generate(seed, t, mix, Part::WHOLE, STREAM_LEN))
        .collect()
}

impl<'a> World<'a> {
    /// Builds the runtime and the cache and preloads every regular key
    /// through the engine, as a program would.
    #[must_use]
    pub fn new(mix: Mix, streams: &'a [Vec<Op>]) -> World<'a> {
        let rt = Box::new(PageAligned(GoccRuntime::new_default()));
        let keys = KeyTable::new(&mix);
        let cache = Box::new(PageAligned(Cache::with_capacity(mix.table_len() * 4)));
        let engine = Engine::new(&rt, Mode::Gocc);
        for k in 0..mix.keys {
            cache.set(&engine, keys.words[k as usize], ops::preload_word(k), 0);
        }
        World {
            rt,
            cache,
            issued: vec![0; mix.counters as usize],
            mix,
            keys,
            streams,
        }
    }
}

/// What one window over a [`World`] produced.
#[derive(Default)]
pub struct Outcome {
    /// Seconds from the start of the run to the end of warm-up on every
    /// thread (thread start included): the part of a run that is set-up.
    pub warm_s: f64,
    /// The timed part; its CPU is that of the section threads.
    pub window: Window,
    pub attempted: u64,
    pub failed: u64,
    pub htm: StatsSnapshot,
    pub opti: OptiStatsSnapshot,
}

fn delta_htm(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        starts: b.starts - a.starts,
        commits: b.commits - a.commits,
        read_only_commits: b.read_only_commits - a.read_only_commits,
        aborts_explicit: b.aborts_explicit - a.aborts_explicit,
        aborts_retry: b.aborts_retry - a.aborts_retry,
        aborts_conflict: b.aborts_conflict - a.aborts_conflict,
        aborts_capacity: b.aborts_capacity - a.aborts_capacity,
        aborts_debug: b.aborts_debug - a.aborts_debug,
        aborts_nested: b.aborts_nested - a.aborts_nested,
        aborts_unfriendly: b.aborts_unfriendly - a.aborts_unfriendly,
        direct_sections: b.direct_sections - a.direct_sections,
        ctx_fresh: b.ctx_fresh - a.ctx_fresh,
        ctx_reused: b.ctx_reused - a.ctx_reused,
        inline_overflows: b.inline_overflows - a.inline_overflows,
    }
}

fn delta_opti(a: &OptiStatsSnapshot, b: &OptiStatsSnapshot) -> OptiStatsSnapshot {
    OptiStatsSnapshot {
        htm_attempts: b.htm_attempts - a.htm_attempts,
        fast_commits: b.fast_commits - a.fast_commits,
        slow_sections: b.slow_sections - a.slow_sections,
        perceptron_htm: b.perceptron_htm - a.perceptron_htm,
        perceptron_slow: b.perceptron_slow - a.perceptron_slow,
        single_thread_bypass: b.single_thread_bypass - a.single_thread_bypass,
        mismatch_recoveries: b.mismatch_recoveries - a.mismatch_recoveries,
        watchdog_forced: b.watchdog_forced - a.watchdog_forced,
    }
}

/// Per-thread results of one window.
struct ThreadOut {
    track: Track,
    attempted: u64,
    failed: u64,
    tallies: Vec<u64>,
}

/// Applies one operation and checks what can be checked while another
/// thread races: a GET may see any write to its key, but every write to
/// a key stores that key's index in the high half of the value.
#[inline]
fn apply(
    cache: &Cache,
    engine: &Engine<'_>,
    keys: &KeyTable,
    mix: &Mix,
    op: &Op,
    tallies: &mut [u64],
) -> bool {
    let word = keys.words[op.key as usize];
    match op.verb {
        Verb::Get => match cache.get(engine, word) {
            Some(v) => (v >> 32) as u32 == op.key,
            None => true,
        },
        Verb::Set => {
            cache.set(engine, word, ops::set_word(op), 0);
            true
        }
        Verb::Incr => {
            let delta = u64::from(op.value);
            let slot = (op.key - mix.keys) as usize;
            tallies[slot] = tallies[slot].wrapping_add(delta);
            std::hint::black_box(cache.incr(engine, word, delta));
            true
        }
        Verb::Del => {
            std::hint::black_box(cache.delete(engine, word));
            true
        }
    }
}

impl World<'_> {
    /// Runs `warm_ops` untimed operations (split over the threads), then
    /// a timed window of `seconds`, on `threads` threads in `mode`.
    pub fn run(&mut self, mode: Mode, threads: usize, warm_ops: u64, seconds: f64) -> Outcome {
        let barrier = Barrier::new(threads + 1);
        let mut before = (self.rt.htm().stats().snapshot(), self.rt.stats().snapshot());
        let run_start = Instant::now();
        let mut t0 = run_start;
        let this = &*self;
        let outs: Vec<ThreadOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let barrier = &barrier;
                    let stream = &this.streams[t % this.streams.len()];
                    std::thread::Builder::new()
                        .name(format!("bench-sect-{t}"))
                        .spawn_scoped(s, move || {
                            procfs::take_seat(t);
                            this.thread_body(
                                mode,
                                stream,
                                warm_ops / threads as u64,
                                seconds,
                                barrier,
                            )
                        })
                        .expect("spawn a section thread")
                })
                .collect();
            barrier.wait(); // warm-up done on every thread
            before = (this.rt.htm().stats().snapshot(), this.rt.stats().snapshot());
            t0 = Instant::now();
            barrier.wait(); // timed window starts
            handles
                .into_iter()
                .map(|h| h.join().expect("a section thread panicked"))
                .collect()
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let after = (self.rt.htm().stats().snapshot(), self.rt.stats().snapshot());

        let mut out = Outcome {
            htm: delta_htm(&before.0, &after.0),
            opti: delta_opti(&before.1, &after.1),
            warm_s: (t0 - run_start).as_secs_f64(),
            ..Outcome::default()
        };
        let mut tracks = Vec::with_capacity(outs.len());
        for o in outs {
            out.attempted += o.attempted;
            out.failed += o.failed;
            for (sum, t) in self.issued.iter_mut().zip(&o.tallies) {
                *sum = sum.wrapping_add(*t);
            }
            tracks.push(o.track);
        }
        out.window = Window::from_tracks(&tracks, elapsed);
        out
    }

    fn thread_body(
        &self,
        mode: Mode,
        stream: &[Op],
        warm_ops: u64,
        seconds: f64,
        barrier: &Barrier,
    ) -> ThreadOut {
        let engine = Engine::new(&self.rt, mode);
        let slices = window::slices_in(seconds);
        let mut out = ThreadOut {
            track: Track::with_capacity(slices, (seconds * 150_000.0) as usize + 1024),
            attempted: 0,
            failed: 0,
            tallies: vec![0; self.mix.counters as usize],
        };
        let mut pos = 0usize;
        let next = |pos: &mut usize| {
            let op = stream[*pos];
            *pos = (*pos + 1) % stream.len();
            op
        };
        for _ in 0..warm_ops {
            let op = next(&mut pos);
            out.attempted += 1;
            if !apply(
                &self.cache,
                &engine,
                &self.keys,
                &self.mix,
                &op,
                &mut out.tallies,
            ) {
                out.failed += 1;
            }
        }
        barrier.wait();
        barrier.wait();
        let cpu0 = procfs::thread_cpu_ns();
        let t0 = Instant::now();
        let slice = Duration::from_secs_f64(seconds / slices as f64);
        let mut boundary = t0 + slice;
        let mut done = 0u64;
        loop {
            for _ in 1..SAMPLE_EVERY {
                let op = next(&mut pos);
                if !apply(
                    &self.cache,
                    &engine,
                    &self.keys,
                    &self.mix,
                    &op,
                    &mut out.tallies,
                ) {
                    out.failed += 1;
                }
            }
            let op = next(&mut pos);
            let before = Instant::now();
            let ok = apply(
                &self.cache,
                &engine,
                &self.keys,
                &self.mix,
                &op,
                &mut out.tallies,
            );
            let after = Instant::now();
            if !ok {
                out.failed += 1;
            }
            done += SAMPLE_EVERY;
            out.track
                .sample((after - before).as_nanos() as u64, op.verb);
            if after >= boundary {
                out.track.marks.push(Mark {
                    t_s: (after - t0).as_secs_f64(),
                    ops: done,
                    samples: out.track.lat_ns.len(),
                    cpu_ns: procfs::thread_cpu_ns().saturating_sub(cpu0),
                });
                if out.track.marks.len() == slices {
                    break;
                }
                boundary += slice;
            }
        }
        out.attempted += done;
        out
    }

    /// The counter oracle: after every thread has stopped, each reserved
    /// counter key must hold exactly the sum of the deltas issued to it.
    /// Returns the number of counters that do not. `corrupt` adds one to
    /// the first expected value, to prove the check fires.
    #[must_use]
    pub fn check_counters(&self, corrupt: bool) -> u64 {
        let engine = Engine::new(&self.rt, Mode::Gocc);
        let mut wrong = 0;
        for (i, &tally) in self.issued.iter().enumerate() {
            let expected = if corrupt && i == 0 { tally + 1 } else { tally };
            let word = self.keys.words[self.mix.keys as usize + i];
            let got = self.cache.get(&engine, word).unwrap_or(0);
            if got != expected {
                eprintln!("benchmark: counter {i} holds {got}, expected {expected}");
                wrong += 1;
            }
        }
        wrong
    }

    /// The traced pass of a section workload: one thread replays the
    /// stream with a timer around every call into the cache. Returns the
    /// operations per second achieved with the timers in place.
    pub fn replay_timed(&mut self, seconds: f64, log: &mut SpanLog) -> f64 {
        let engine = Engine::new(&self.rt, Mode::Gocc);
        let stream = &self.streams[0];
        let mut tallies = std::mem::take(&mut self.issued);
        let t0 = Instant::now();
        let limit = Duration::from_secs_f64(seconds);
        let mut done = 0u64;
        let mut pos = 0usize;
        loop {
            let op = stream[pos];
            pos = (pos + 1) % stream.len();
            let start = gocc_telemetry::trace::now_ns();
            apply(
                &self.cache,
                &engine,
                &self.keys,
                &self.mix,
                &op,
                &mut tallies,
            );
            let end = gocc_telemetry::trace::now_ns();
            log.push(SpanRec {
                trace_id: done,
                kind: match op.verb {
                    Verb::Get => "cache_get",
                    Verb::Set => "cache_set",
                    Verb::Incr => "cache_incr",
                    Verb::Del => "cache_del",
                },
                start_ns: start,
                dur_ns: end - start,
            });
            done += 1;
            if done.is_multiple_of(256) && t0.elapsed() >= limit {
                break;
            }
        }
        let rate = done as f64 / t0.elapsed().as_secs_f64();
        self.issued = tallies;
        rate
    }

    /// Mean cost of a 32-operation `execute_batch`, per operation.
    pub fn batch_ns_per_op(&self, rounds: usize) -> f64 {
        use gocc_workloads::gocache::BatchOp;
        let engine = Engine::new(&self.rt, Mode::Gocc);
        let stream = &self.streams[0];
        let batches: Vec<Vec<BatchOp>> = stream
            .chunks_exact(32)
            .take(rounds)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|op| {
                        let key = self.keys.words[op.key as usize];
                        match op.verb {
                            Verb::Get => BatchOp::Get { key },
                            Verb::Set => BatchOp::Set {
                                key,
                                value: ops::set_word(op),
                                ttl: 0,
                            },
                            // Batched INCRs would break the counter
                            // oracle's tallies; read the counter instead.
                            Verb::Incr => BatchOp::Get { key },
                            Verb::Del => BatchOp::Del { key },
                        }
                    })
                    .collect()
            })
            .collect();
        let t0 = Instant::now();
        for b in &batches {
            std::hint::black_box(self.cache.execute_batch(&engine, b));
        }
        t0.elapsed().as_nanos() as f64 / (batches.len() * 32) as f64
    }
}
