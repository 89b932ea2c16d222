//! Welford running mean / variance / extrema.

use serde::{Deserialize, Serialize};

/// Streaming mean, variance (Welford's algorithm), min and max.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// An empty accumulator.
    pub fn new() -> Self {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples seen.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 if empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 if fewer than 2 samples.
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Minimum sample; `None` if empty.
    #[inline]
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum sample; `None` if empty.
    #[inline]
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel reduction), using
    /// Chan et al.'s pairwise update.
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroish() {
        let r = Running::new();
        assert_eq!(r.count(), 0);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.variance(), 0.0);
        assert!(r.min().is_none());
        assert!(r.max().is_none());
    }

    #[test]
    fn matches_closed_form() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.push(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.variance() - 4.0).abs() < 1e-12);
        assert_eq!(r.min(), Some(2.0));
        assert_eq!(r.max(), Some(9.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut seq = Running::new();
        for &x in &xs {
            seq.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-10);
        assert!((a.variance() - seq.variance()).abs() < 1e-10);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = Running::new();
        a.push(1.0);
        let empty = Running::new();
        let mut b = a.clone();
        b.merge(&empty);
        assert_eq!(b.count(), 1);
        let mut c = Running::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 1.0);
    }
}
