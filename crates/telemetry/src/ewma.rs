//! Exponentially weighted moving averages.
//!
//! The overload layer in `crates/server` drives its brownout state machine
//! from smoothed load signals (queue depth, request latency); smoothing
//! lives here so the controller's inputs use the same primitive everywhere
//! and can be unit-tested without a server. The filter is the textbook
//! `v ← v + α·(x − v)` with first-sample priming (the first observation
//! sets the value outright instead of averaging against a fictional zero).

/// A scalar EWMA filter: `value ← value + alpha * (x - value)`.
#[derive(Clone, Debug)]
pub struct Ewma {
    alpha: f64,
    value: f64,
    primed: bool,
}

impl Ewma {
    /// A filter with smoothing factor `alpha` in `(0, 1]`. Larger alpha
    /// tracks faster; `alpha == 1` is no smoothing at all.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha must be in (0, 1], got {alpha}"
        );
        Ewma {
            alpha,
            value: 0.0,
            primed: false,
        }
    }

    /// Feeds one sample and returns the updated average.
    pub fn observe(&mut self, x: f64) -> f64 {
        if self.primed {
            self.value += self.alpha * (x - self.value);
        } else {
            self.value = x;
            self.primed = true;
        }
        self.value
    }

    /// Feeds `n` zero samples at once (`value ← value · (1 − alpha)ⁿ`)
    /// and returns the updated average.
    pub fn observe_zeros(&mut self, n: u64) -> f64 {
        if n > 0 {
            self.value *= (1.0 - self.alpha).powf(n as f64);
            self.primed = true;
        }
        self.value
    }

    /// The current average (0.0 before any sample).
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Whether at least one sample has been observed.
    #[must_use]
    pub fn primed(&self) -> bool {
        self.primed
    }

    /// Resets to the unprimed state.
    pub fn reset(&mut self) {
        self.value = 0.0;
        self.primed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_primes() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.value(), 0.0);
        assert!(!e.primed());
        assert!((e.observe(100.0) - 100.0).abs() < 1e-12);
        assert!(e.primed());
    }

    #[test]
    fn converges_toward_constant_input() {
        let mut e = Ewma::new(0.25);
        e.observe(0.0);
        for _ in 0..64 {
            e.observe(10.0);
        }
        assert!((e.value() - 10.0).abs() < 1e-6, "value {}", e.value());
    }

    #[test]
    fn decays_when_input_drops() {
        let mut e = Ewma::new(0.5);
        e.observe(1000.0);
        e.observe(0.0);
        assert!((e.value() - 500.0).abs() < 1e-9);
        e.observe(0.0);
        assert!((e.value() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn zeros_at_once_match_zeros_one_by_one() {
        let (mut a, mut b) = (Ewma::new(0.2), Ewma::new(0.2));
        a.observe(1000.0);
        b.observe(1000.0);
        for _ in 0..7 {
            a.observe(0.0);
        }
        assert!((b.observe_zeros(7) - a.value()).abs() < 1e-9);
        assert!((b.observe_zeros(0) - a.value()).abs() < 1e-9);
        // An unprimed filter is primed by them, as by any sample.
        let mut c = Ewma::new(0.2);
        c.observe_zeros(3);
        assert!((c.observe(10.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_one_is_passthrough() {
        let mut e = Ewma::new(1.0);
        for x in [3.0, -7.5, 42.0] {
            assert!((e.observe(x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn reset_unprimes() {
        let mut e = Ewma::new(0.3);
        e.observe(9.0);
        e.reset();
        assert!(!e.primed());
        assert!((e.observe(2.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_rejected() {
        let _ = Ewma::new(0.0);
    }
}
