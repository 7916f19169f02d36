//! The arithmetic behind the reported numbers: percentiles, medians over
//! slices and span self time.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1). Returns
/// 0 for an empty slice.
#[must_use]
pub fn percentile_sorted<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Median of a list (mean of the middle pair for even lengths).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max - min) / median` of a list: how far the slices of one window
/// disagree.
#[must_use]
pub fn spread_frac(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med
}

/// One interval of a request's trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Interval {
    pub kind: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Tie-break for identical intervals: the lower rank encloses.
    pub rank: u8,
}

/// Self time of every interval of one request: its duration minus the
/// part of it that intervals nested directly inside it cover.
///
/// Spans carry no parent pointer, so nesting is recovered from
/// containment: after sorting by start (longer first on ties), an
/// interval's parent is the nearest earlier interval that still encloses
/// it. Siblings that overlap are merged before subtracting.
#[must_use]
pub fn self_times(spans: &[Interval]) -> Vec<(String, u64)> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.start_ns, std::cmp::Reverse(s.dur_ns), s.rank)
    });
    let end = |i: usize| spans[i].start_ns + spans[i].dur_ns;
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        while let Some(&top) = stack.last() {
            if end(i) <= end(top) {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            children[parent].push(i);
        }
        stack.push(i);
    }
    (0..spans.len())
        .map(|i| {
            let mut covered = 0u64;
            let mut cursor = spans[i].start_ns;
            for &c in &children[i] {
                let from = spans[c].start_ns.max(cursor);
                let to = end(c);
                if to > from {
                    covered += to - from;
                    cursor = to;
                }
            }
            (
                spans[i].kind.clone(),
                spans[i].dur_ns.saturating_sub(covered),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_a_hand_made_list() {
        let v: Vec<u32> = (1..=10).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 5.0);
        assert_eq!(percentile_sorted(&v, 0.9), 9.0);
        assert_eq!(percentile_sorted(&v, 0.99), 10.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted::<u32>(&[], 0.5), 0.0);
    }

    #[test]
    fn slice_median_ignores_one_slow_slice() {
        let rates = [1000.0, 1000.0, 500.0, 1000.0, 1000.0];
        assert_eq!(median(&rates), 1000.0);
        assert!((spread_frac(&rates) - 0.5).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn iv(kind: &str, start_ns: u64, dur_ns: u64, rank: u8) -> Interval {
        Interval {
            kind: kind.to_string(),
            start_ns,
            dur_ns,
            rank,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // store_op [100,200) encloses section [110,190), which encloses
        // two attempts [120,140) and [150,180); a response write follows.
        let spans = vec![
            iv("htm_attempt", 150, 30, 3),
            iv("store_op", 100, 100, 1),
            iv("section", 110, 80, 2),
            iv("htm_attempt", 120, 20, 3),
            iv("response_write", 210, 5, 1),
        ];
        let got = self_times(&spans);
        assert_eq!(
            got,
            vec![
                ("htm_attempt".to_string(), 30),
                ("store_op".to_string(), 20),
                ("section".to_string(), 30),
                ("htm_attempt".to_string(), 20),
                ("response_write".to_string(), 5),
            ]
        );
        let total: u64 = got.iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, 105, "self times add up to the covered time");
    }

    #[test]
    fn identical_intervals_nest_by_rank() {
        // The server stamps batch_exec and store_op with one interval.
        let spans = vec![iv("store_op", 10, 50, 1), iv("batch_exec", 10, 50, 0)];
        let got = self_times(&spans);
        assert_eq!(got[0], ("store_op".to_string(), 50));
        assert_eq!(got[1], ("batch_exec".to_string(), 0));
    }
}
