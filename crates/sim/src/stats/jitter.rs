//! Delay-jitter tracking.
//!
//! The paper (§5.2) measures jitter as "the variation in the delay
//! experienced by two adjacent [application data units] belonging to the
//! same connection": for consecutive delivered units with delays `d_i`,
//! jitter samples are `|d_i - d_{i-1}|`.
//!
//! Samples feed both a [`Running`] accumulator (exact mean/min/max) and a
//! [`LogHistogram`] (rounded to the nearest integer unit), so reports can
//! quote jitter percentiles instead of re-deriving buckets ad hoc.

use super::{LogHistogram, Running};
use serde::{Deserialize, Serialize};

/// Tracks inter-unit delay jitter for one connection.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JitterTracker {
    last_delay: Option<f64>,
    jitter: Running,
    hist: LogHistogram,
}

impl JitterTracker {
    /// A fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the end-to-end delay of the next unit in sequence; after the
    /// first unit, every call contributes one jitter sample.
    pub fn record_delay(&mut self, delay: f64) {
        if let Some(prev) = self.last_delay {
            let sample = (delay - prev).abs();
            self.jitter.push(sample);
            self.hist.record(sample.round() as u64);
        }
        self.last_delay = Some(delay);
    }

    /// Forget everything recorded, in place: the tracker ends up as
    /// [`JitterTracker::new`] builds it, keeping its histogram storage.
    pub fn reset(&mut self) {
        self.last_delay = None;
        self.jitter = Running::default();
        self.hist.reset();
    }

    /// Jitter statistics accumulated so far.
    pub fn stats(&self) -> &Running {
        &self.jitter
    }

    /// Histogram of jitter samples, rounded to the nearest integer unit.
    pub fn histogram(&self) -> &LogHistogram {
        &self.hist
    }

    /// Approximate jitter quantile `q` (integer units); `None` before the
    /// second delivered unit.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.hist.quantile(q)
    }

    /// Number of jitter samples (units delivered minus one, per connection).
    pub fn samples(&self) -> u64 {
        self.jitter.count()
    }

    /// Merge another tracker's accumulated samples (their `last_delay`
    /// chains stay independent — use only for cross-connection aggregation).
    pub fn merge_stats(&mut self, other: &JitterTracker) {
        self.jitter.merge(&other.jitter);
        self.hist.merge(&other.hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_unit_produces_no_sample() {
        let mut j = JitterTracker::new();
        j.record_delay(100.0);
        assert_eq!(j.samples(), 0);
        assert!(j.quantile(0.99).is_none());
    }

    #[test]
    fn absolute_differences() {
        let mut j = JitterTracker::new();
        for d in [100.0, 150.0, 120.0, 120.0] {
            j.record_delay(d);
        }
        // samples: 50, 30, 0
        assert_eq!(j.samples(), 3);
        assert!((j.stats().mean() - 80.0 / 3.0).abs() < 1e-12);
        assert_eq!(j.stats().max(), Some(50.0));
        assert_eq!(j.stats().min(), Some(0.0));
        assert_eq!(j.histogram().count(), 3);
        assert_eq!(j.histogram().max(), 50);
    }

    #[test]
    fn constant_delay_zero_jitter() {
        let mut j = JitterTracker::new();
        for _ in 0..10 {
            j.record_delay(42.0);
        }
        assert_eq!(j.stats().mean(), 0.0);
        assert_eq!(j.stats().max(), Some(0.0));
        assert_eq!(j.quantile(1.0), Some(0));
    }

    #[test]
    fn merge_aggregates_connections() {
        let mut a = JitterTracker::new();
        a.record_delay(0.0);
        a.record_delay(10.0); // sample 10
        let mut b = JitterTracker::new();
        b.record_delay(5.0);
        b.record_delay(25.0); // sample 20
        a.merge_stats(&b);
        assert_eq!(a.samples(), 2);
        assert_eq!(a.stats().mean(), 15.0);
        assert_eq!(a.histogram().count(), 2);
        assert_eq!(a.histogram().max(), 20);
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let mut j = JitterTracker::new();
        let mut d = 0.0;
        for i in 0..1000 {
            d += if i % 10 == 0 { 100.0 } else { 1.0 };
            j.record_delay(d);
        }
        // 10% of the samples are 100, the rest 1.
        assert_eq!(j.quantile(0.5), Some(1));
        let p99 = j.quantile(0.99).unwrap();
        assert!((90..=112).contains(&p99), "p99={p99}");
    }
}
