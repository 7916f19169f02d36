//! What a timed window yields, and the statistics taken over its slices.
//!
//! A window is cut into half-second slices and every reported number is
//! a statistic *over slices*, because the disturbances of a shared
//! sandbox (a stolen CPU, a neighbour's disk burst) last from
//! milliseconds to a few seconds: they spoil some slices, not all.

use crate::ops::Verb;
use crate::stats;

/// Length of one slice of a timed window.
pub const SLICE_S: f64 = 0.5;

/// Slices a window of `seconds` is cut into (at least two).
#[must_use]
pub fn slices_in(seconds: f64) -> usize {
    ((seconds / SLICE_S).round() as usize).max(2)
}

/// One driving thread's cumulative readings at the end of a slice.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mark {
    /// Seconds since the window started.
    pub t_s: f64,
    /// Operations completed so far.
    pub ops: u64,
    /// Latency samples recorded so far.
    pub samples: usize,
    /// CPU nanoseconds the threads under test have used so far.
    pub cpu_ns: u64,
}

/// Everything one driving thread recorded during a window.
#[derive(Clone, Debug, Default)]
pub struct Track {
    pub marks: Vec<Mark>,
    pub lat_ns: Vec<u32>,
    pub lat_verb: Vec<Verb>,
}

impl Track {
    #[must_use]
    pub fn with_capacity(slices: usize, samples: usize) -> Track {
        Track {
            marks: Vec::with_capacity(slices),
            lat_ns: Vec::with_capacity(samples),
            lat_verb: Vec::with_capacity(samples),
        }
    }

    /// Records one latency; anything above 4.29 s reads as 4.29 s.
    #[inline]
    pub fn sample(&mut self, ns: u64, verb: Verb) {
        self.lat_ns.push(ns.min(u64::from(u32::MAX)) as u32);
        self.lat_verb.push(verb);
    }
}

/// One slice of a window, summed over the driving threads.
#[derive(Clone, Debug, Default)]
pub struct Slice {
    pub secs: f64,
    pub ops: u64,
    pub cpu_ns: u64,
    /// The slice's latency samples, ascending.
    pub lat_ns: Vec<u32>,
}

/// A timed window.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub elapsed_s: f64,
    pub completed: u64,
    pub slices: Vec<Slice>,
    /// Every latency sample of the window with its verb, for the
    /// whole-window percentiles the driver reports about itself.
    lat_ns: Vec<u32>,
    lat_verb: Vec<Verb>,
}

impl Window {
    /// Combines the tracks of the threads that drove one window. Slice k
    /// of the window is the sum of every thread's slice k; each thread
    /// marked the boundaries on its own clock reads.
    #[must_use]
    pub fn from_tracks(tracks: &[Track], elapsed_s: f64) -> Window {
        let n = tracks.iter().map(|t| t.marks.len()).min().unwrap_or(0);
        let mut w = Window {
            elapsed_s,
            slices: vec![Slice::default(); n],
            ..Window::default()
        };
        for t in tracks {
            let mut prev = Mark::default();
            for (slice, m) in w.slices.iter_mut().zip(&t.marks) {
                slice.secs += (m.t_s - prev.t_s) / tracks.len() as f64;
                slice.ops += m.ops - prev.ops;
                slice.cpu_ns += m.cpu_ns - prev.cpu_ns;
                slice
                    .lat_ns
                    .extend_from_slice(&t.lat_ns[prev.samples..m.samples]);
                prev = *m;
            }
            w.completed += prev.ops;
            w.lat_ns.extend_from_slice(&t.lat_ns);
            w.lat_verb.extend_from_slice(&t.lat_verb);
        }
        for s in &mut w.slices {
            s.lat_ns.sort_unstable();
        }
        w
    }

    /// Operations per second of each slice.
    #[must_use]
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|s| s.ops as f64 / s.secs.max(1e-9))
            .collect()
    }

    /// Throughput: the median of the slice rates.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        stats::median(&self.slice_rates())
    }

    /// Latency percentile `p` in microseconds: the lower quartile, over
    /// the slices, of the slice's percentile. On a shared sandbox bursts
    /// of interference lasting seconds add latency to the slices they
    /// hit; three quarters of the slices may be hit before this moves. It
    /// is not the minimum, because in the section workloads interference
    /// can also *lower* latency (a descheduled thread leaves the other
    /// uncontended) and an extreme of 32 slices would pick that up.
    /// Whole-window percentiles are reported under `driver.`.
    #[must_use]
    pub fn lat_us(&self, p: f64) -> f64 {
        lower_quartile(
            self.slices
                .iter()
                .filter(|s| !s.lat_ns.is_empty())
                .map(|s| percentile_us(&s.lat_ns, p))
                .collect(),
        )
    }

    /// CPU microseconds of the threads under test per completed
    /// operation: the lower quartile over slices, for the reason latency
    /// is. A neighbour on the host makes every wake-up and system call of
    /// a slice dearer (`serve_paced`: a floor of 36-38 us with bursts to
    /// 50 and more); it does not make them cheaper.
    #[must_use]
    pub fn cpu_us_per_op(&self) -> f64 {
        lower_quartile(
            self.slices
                .iter()
                .filter(|s| s.ops > 0)
                .map(|s| s.cpu_ns as f64 / 1e3 / s.ops as f64)
                .collect(),
        )
    }

    /// Whole-window samples in ascending order, optionally of one verb.
    #[must_use]
    pub fn sorted_samples(&self, only: Option<Verb>) -> Vec<u32> {
        let mut v: Vec<u32> = match only {
            None => self.lat_ns.clone(),
            Some(verb) => self
                .lat_ns
                .iter()
                .zip(&self.lat_verb)
                .filter(|(_, v)| **v == verb)
                .map(|(ns, _)| *ns)
                .collect(),
        };
        v.sort_unstable();
        v
    }
}

/// The lower quartile (nearest rank) of one number per slice.
fn lower_quartile(mut per_slice: Vec<f64>) -> f64 {
    per_slice.sort_by(f64::total_cmp);
    stats::percentile_sorted(&per_slice, 0.25)
}

/// Percentile of an ascending nanosecond list, in microseconds.
#[must_use]
pub fn percentile_us(sorted_ns: &[u32], p: f64) -> f64 {
    stats::percentile_sorted(sorted_ns, p) / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(t_s: f64, ops: u64, samples: usize, cpu_ns: u64) -> Mark {
        Mark {
            t_s,
            ops,
            samples,
            cpu_ns,
        }
    }

    #[test]
    fn slices_sum_over_threads_and_statistics_go_over_slices() {
        // Two threads, three one-second slices. Thread b was stalled for
        // the whole of slice 2; its latencies there are ten times worse.
        let a = Track {
            marks: vec![
                mark(1.0, 100, 2, 1_000),
                mark(2.0, 200, 4, 2_000),
                mark(3.0, 300, 6, 3_000),
            ],
            lat_ns: vec![1_000, 3_000, 1_000, 3_000, 1_000, 3_000],
            lat_verb: vec![Verb::Get; 6],
        };
        let b = Track {
            marks: vec![
                mark(1.0, 100, 1, 1_000),
                mark(2.0, 100, 2, 1_000),
                mark(3.0, 200, 3, 2_000),
            ],
            lat_ns: vec![2_000, 20_000, 2_000],
            lat_verb: vec![Verb::Set; 3],
        };
        let w = Window::from_tracks(&[a, b], 3.0);
        assert_eq!(w.completed, 500);
        assert_eq!(w.slice_rates(), vec![200.0, 100.0, 200.0]);
        assert_eq!(w.ops_per_s(), 200.0);
        // Slice p50s are 2 µs, 3 µs, 2 µs: their lower quartile is 2 µs.
        assert_eq!(w.lat_us(0.5), 2.0);
        // CPU per op: 10, 10 and 10 ns/op.
        assert!((w.cpu_us_per_op() - 0.01).abs() < 1e-12);
        assert_eq!(
            w.sorted_samples(Some(Verb::Set)),
            vec![2_000, 2_000, 20_000]
        );
        assert_eq!(w.sorted_samples(None).len(), 9);
    }

    #[test]
    fn windows_have_at_least_two_slices() {
        assert_eq!(slices_in(0.02), 2);
        assert_eq!(slices_in(1.0), 2);
        assert_eq!(slices_in(10.0), 20);
    }
}
