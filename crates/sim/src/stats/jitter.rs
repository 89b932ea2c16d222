//! Delay-jitter tracking.
//!
//! The paper (§5.2) measures jitter as "the variation in the delay
//! experienced by two adjacent [application data units] belonging to the
//! same connection": for consecutive delivered units with delays `d_i`,
//! jitter samples are `|d_i - d_{i-1}|`.
//!
//! Samples feed a [`Running`] accumulator (exact mean/min/max) and are
//! returned to the caller, which keeps one histogram for all connections
//! when it wants percentiles: the paper reports jitter only in aggregate.

use super::Running;
use serde::{Deserialize, Serialize};

/// Tracks inter-unit delay jitter for one connection.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JitterTracker {
    last_delay: Option<f64>,
    jitter: Running,
}

impl JitterTracker {
    /// A fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the end-to-end delay of the next unit in sequence; after the
    /// first unit, every call yields one jitter sample, returned.
    pub fn record_delay(&mut self, delay: f64) -> Option<f64> {
        let sample = self.last_delay.map(|prev| (delay - prev).abs());
        if let Some(sample) = sample {
            self.jitter.push(sample);
        }
        self.last_delay = Some(delay);
        sample
    }

    /// Jitter statistics accumulated so far.
    pub fn stats(&self) -> &Running {
        &self.jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::LogHistogram;

    #[test]
    fn first_unit_produces_no_sample() {
        let mut j = JitterTracker::new();
        assert_eq!(j.record_delay(100.0), None);
        assert_eq!(j.stats().count(), 0);
        assert_eq!(j.stats().max(), None);
    }

    #[test]
    fn absolute_differences() {
        let mut j = JitterTracker::new();
        let samples: Vec<_> = [100.0, 150.0, 120.0, 120.0]
            .map(|d| j.record_delay(d))
            .into();
        assert_eq!(samples, [None, Some(50.0), Some(30.0), Some(0.0)]);
        assert_eq!(j.stats().count(), 3);
        assert!((j.stats().mean() - 80.0 / 3.0).abs() < 1e-12);
        assert_eq!(j.stats().max(), Some(50.0));
        assert_eq!(j.stats().min(), Some(0.0));
    }

    #[test]
    fn constant_delay_zero_jitter() {
        let mut j = JitterTracker::new();
        for _ in 0..10 {
            j.record_delay(42.0);
        }
        assert_eq!(j.stats().mean(), 0.0);
        assert_eq!(j.stats().max(), Some(0.0));
    }

    #[test]
    fn merge_aggregates_connections() {
        let mut a = JitterTracker::new();
        a.record_delay(0.0);
        a.record_delay(10.0); // sample 10
        let mut b = JitterTracker::new();
        b.record_delay(5.0);
        b.record_delay(25.0); // sample 20
        let mut all = a.stats().clone();
        all.merge(b.stats());
        assert_eq!(all.count(), 2);
        assert_eq!(all.mean(), 15.0);
        assert_eq!(all.max(), Some(20.0));
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        // The caller's histogram, fed the returned samples rounded to
        // whole units, as the metrics collector keeps it.
        let mut j = JitterTracker::new();
        let mut hist = LogHistogram::default();
        let mut d = 0.0;
        for i in 0..1000 {
            d += if i % 10 == 0 { 100.0 } else { 1.0 };
            if let Some(sample) = j.record_delay(d) {
                hist.record(sample.round() as u64);
            }
        }
        // 10% of the samples are 100, the rest 1.
        assert_eq!(hist.count(), j.stats().count());
        assert_eq!(hist.quantile(0.5), Some(1));
        let p99 = hist.quantile(0.99).unwrap();
        assert!((90..=112).contains(&p99), "p99={p99}");
    }
}
