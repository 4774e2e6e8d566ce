//! Small statistics helpers.
//!
//! The tuner, the memory ledger and the experiment harness all need the
//! same handful of summaries: running mean/variance (Welford), min/max,
//! and the coefficient of variation the paper uses to talk about
//! "memory consumption and variance among processes".

/// Online mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long streams; O(1) memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; 0.0 for an empty accumulator.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance; 0.0 with fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (stddev/mean); 0.0 when the mean is 0.
    #[must_use]
    pub fn cv(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.stddev() / self.mean.abs()
        }
    }

    /// Smallest observation; +inf when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; -inf when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n;
        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
        assert!((w.cv() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.mean(), a.variance());
        a.merge(&Welford::new());
        assert_eq!((a.mean(), a.variance()), before);
        let mut e = Welford::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
    }

    #[test]
    fn cv_of_constant_stream_is_zero() {
        let mut w = Welford::new();
        for _ in 0..10 {
            w.push(3.0);
        }
        assert_eq!(w.cv(), 0.0);
    }
}
