//! Logarithmically-bucketed histogram for latency distributions.
//!
//! Delay distributions in a saturating router span six orders of magnitude
//! (sub-microsecond through seconds), so fixed-width buckets are useless.
//! `LogHistogram` uses base-2 sub-bucketed buckets (the HdrHistogram idea,
//! reimplemented minimally) giving a bounded relative error per bucket.
//!
//! The storage is fixed-capacity (`64 << SUB_BITS` slots, 4 KiB),
//! sized once at construction: [`LogHistogram::record`] never allocates,
//! so histograms can live on the simulator's hot path.  Quantile queries
//! come in two flavours — [`LogHistogram::quantile`] returns a bucket
//! midpoint, [`LogHistogram::quantile_bounds`] returns the exact bucket
//! interval the true order statistic provably lies in.  Serialization is
//! sparse (only populated buckets), so an armed observatory's report
//! stays proportional to the distribution's support, not its range.
//! [`LogHistogramBank`] holds a family of same-shaped histograms in one
//! block.

use serde::{Deserialize, Error, Serialize, Value};

/// Histogram over `u64` values with geometric bucket widths.
///
/// Values are bucketed by (exponent, sub-bucket): `2^SUB_BITS` = 8
/// linear sub-buckets per power of two, giving a worst-case relative
/// error of 12.5 %.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

/// One populated histogram bucket: `count` values fell in `lo..=hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bucket {
    /// Dense bucket index.
    pub index: usize,
    /// Smallest value the bucket covers (inclusive).
    pub lo: u64,
    /// Largest value the bucket covers (inclusive).
    pub hi: u64,
    /// Recorded values in the bucket.
    pub count: u64,
}

impl LogHistogram {
    #[inline]
    fn bucket_of(&self, v: u64) -> usize {
        bucket_of(v)
    }

    /// Inclusive value range `[lo, hi]` covered by bucket `idx`.
    pub fn bucket_bounds(&self, idx: usize) -> (u64, u64) {
        let sub = SUB_BITS;
        if idx < (1 << sub) {
            return (idx as u64, idx as u64);
        }
        let block = (idx >> sub) as u32; // = exp - sub + 1
        let sub_idx = (idx & ((1 << sub) - 1)) as u64;
        let exp = block + sub - 1;
        let lo = (1u64 << exp) + (sub_idx << (exp - sub));
        let width = 1u64 << (exp - sub);
        (lo, lo + (width - 1))
    }

    /// Representative (midpoint) value of a bucket.
    fn bucket_mid(&self, idx: usize) -> u64 {
        let (lo, hi) = self.bucket_bounds(idx);
        lo + (hi - lo) / 2
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of `v` in O(1).
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = self.bucket_of(v);
        self.counts[b] += n;
        self.total += n;
        self.sum += v as u128 * n as u128;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded values.
    #[inline]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean of recorded values (sums are kept exactly).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q` in `[0, 1]`; `None` if empty.  The top
    /// quantile is exact (the recorded maximum).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        if target >= self.total {
            return Some(self.max);
        }
        self.quantile_bucket(q)
            .map(|idx| self.bucket_mid(idx).min(self.max))
    }

    /// Exact bounds on quantile `q`: the true order statistic lies in
    /// `lo..=hi` (the covering bucket's range, clamped to the recorded
    /// maximum).  `None` if empty.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        self.quantile_bucket(q).map(|idx| {
            let (lo, hi) = self.bucket_bounds(idx);
            (lo.min(self.max), hi.min(self.max))
        })
    }

    /// Dense index of the bucket containing quantile `q`.
    fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        if target >= self.total {
            return Some(self.bucket_of(self.max));
        }
        let mut acc = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(idx);
            }
        }
        Some(self.bucket_of(self.max))
    }

    /// Iterate the populated buckets in increasing value order.  Does not
    /// allocate — usable from the Prometheus exposition hot path.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = Bucket> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(index, &count)| {
                let (lo, hi) = self.bucket_bounds(index);
                Bucket {
                    index,
                    lo,
                    hi,
                    count,
                }
            })
    }

    /// Merge another histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Forget everything recorded; capacity is retained.  An empty
    /// histogram is left untouched (no bucket can be non-zero while
    /// `count()` is 0), so resetting many mostly-idle histograms costs a
    /// compare each, not a sweep of their storage.
    pub fn reset(&mut self) {
        if self.total == 0 {
            return;
        }
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
        self.max = 0;
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; SLOTS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Sub-bucket bits of every histogram: 8 sub-buckets per power of two.
const SUB_BITS: u32 = 3;

/// Slots per histogram: 64 exponents × 2^[`SUB_BITS`] sub-buckets, an
/// overestimate (small exponents alias) of 4 KiB.
const SLOTS: usize = 64 << SUB_BITS;

/// Dense bucket index of `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    let sub = SUB_BITS;
    if v < (1 << sub) {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= sub
    let sub_idx = (v >> (exp - sub)) - (1 << sub); // top sub bits after the leading 1
    (((exp - sub + 1) as usize) << sub) + sub_idx as usize
}

/// `n` histograms, one per row, in
/// one counts block plus one block of per-row totals, sums and maxima.
///
/// A family of histograms that grows with the connection count lives
/// here rather than in a `Vec<LogHistogram>`: it is allocated and freed
/// as one block, where hundreds of separately freed 4 KiB blocks
/// coalesce at the heap top and glibc trims them, so the next build
/// page-faults them back.  [`LogHistogramBank::record`] never allocates;
/// a row is read back as a [`LogHistogram`], at report time, so bucket
/// and quantile arithmetic exist once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogramBank {
    counts: Vec<u64>,
    rows: Vec<RowTotals>,
}

/// One bank row's count, exact sum and maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RowTotals {
    total: u64,
    sum: u128,
    max: u64,
}

impl LogHistogramBank {
    /// A bank of `rows` empty histograms.
    pub fn new(rows: usize) -> Self {
        LogHistogramBank {
            counts: vec![0; rows * SLOTS],
            rows: vec![RowTotals::default(); rows],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Record one value in row `row`.
    #[inline]
    pub fn record(&mut self, row: usize, v: u64) {
        self.counts[row * SLOTS + bucket_of(v)] += 1;
        let r = &mut self.rows[row];
        r.total += 1;
        r.sum += v as u128;
        r.max = r.max.max(v);
    }

    /// Values recorded in row `row`.
    pub fn count(&self, row: usize) -> u64 {
        self.rows[row].total
    }

    /// Row `row` as a histogram.  Allocates — report-time only.
    pub fn row(&self, row: usize) -> LogHistogram {
        let RowTotals { total, sum, max } = self.rows[row];
        let start = row * SLOTS;
        LogHistogram {
            counts: self.counts[start..start + SLOTS].to_vec(),
            total,
            sum,
            max,
        }
    }
}

// Sparse JSON encoding: only populated buckets are written, as
// `[index, count]` pairs.  A 512-slot histogram with ten occupied buckets
// serializes to ten pairs, not 512 zeros.  The shape's `sub_bits` is
// written too, and decoding refuses any other shape.
impl Serialize for LogHistogram {
    fn to_value(&self) -> Value {
        let counts: Vec<Value> = self
            .nonzero_buckets()
            .map(|b| Value::Array(vec![Value::U64(b.index as u64), Value::U64(b.count)]))
            .collect();
        Value::Object(vec![
            ("sub_bits".to_string(), Value::U64(SUB_BITS as u64)),
            ("counts".to_string(), Value::Array(counts)),
            ("total".to_string(), Value::U64(self.total)),
            ("sum".to_string(), self.sum.to_value()),
            ("max".to_string(), Value::U64(self.max)),
        ])
    }
}

impl Deserialize for LogHistogram {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let sub_bits = u32::from_maybe(v.get("sub_bits"), "sub_bits")?;
        if sub_bits != SUB_BITS {
            return Err(Error::new(format!(
                "sub_bits {sub_bits}: histograms have {SUB_BITS} sub-bucket bits"
            )));
        }
        let mut h = LogHistogram::default();
        let pairs = match v.get("counts") {
            Some(Value::Array(xs)) => xs,
            other => return Err(Error::new(format!("counts: expected array, got {other:?}"))),
        };
        let mut recorded = 0u64;
        for pair in pairs {
            let (idx, count) = match pair {
                Value::Array(kv) if kv.len() == 2 => (
                    usize::from_maybe(kv.first(), "bucket index")?,
                    u64::from_maybe(kv.get(1), "bucket count")?,
                ),
                other => {
                    return Err(Error::new(format!(
                        "counts entry: expected [index, count], got {other:?}"
                    )))
                }
            };
            if idx >= h.counts.len() {
                return Err(Error::new(format!("bucket index {idx} out of range")));
            }
            h.counts[idx] += count;
            recorded += count;
        }
        h.total = u64::from_maybe(v.get("total"), "total")?;
        h.sum = u128::from_maybe(v.get("sum"), "sum")?;
        h.max = u64::from_maybe(v.get("max"), "max")?;
        if recorded != h.total {
            return Err(Error::new(format!(
                "bucket counts sum to {recorded} but total says {}",
                h.total
            )));
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::default();
        for v in 0..8 {
            h.record(v);
        }
        for v in 0..8u64 {
            assert_eq!(h.bucket_mid(h.bucket_of(v)), v);
        }
    }

    #[test]
    fn bucket_relative_error_bounded() {
        let h = LogHistogram::default();
        for v in [10u64, 100, 1_000, 65_535, 1 << 30, (1 << 40) + 12345] {
            let mid = h.bucket_mid(h.bucket_of(v));
            let rel = (mid as f64 - v as f64).abs() / v as f64;
            assert!(rel <= 0.125 + 1e-9, "v={v} mid={mid} rel={rel}");
        }
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        let h = LogHistogram::default();
        for v in [0u64, 1, 7, 8, 9, 255, 256, 1 << 20, u64::MAX] {
            let (lo, hi) = h.bucket_bounds(h.bucket_of(v));
            assert!(lo <= v && v <= hi, "v={v} not in [{lo}, {hi}]");
        }
        // Adjacent buckets tile the value line without gaps or overlap.
        let mut prev_hi = None;
        for idx in 0..h.counts.len() {
            let (lo, hi) = h.bucket_bounds(idx);
            if let Some(p) = prev_hi {
                if lo > 0 {
                    assert_eq!(lo, p + 1, "gap before bucket {idx}");
                }
            }
            if hi == u64::MAX {
                break;
            }
            prev_hi = Some(hi);
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LogHistogram::default();
        for v in [5u64, 10, 15, 1000] {
            h.record(v);
        }
        assert_eq!(h.mean(), 257.5);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn quantiles_are_ordered_and_close() {
        let mut h = LogHistogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        let p100 = h.quantile(1.0).unwrap();
        assert!(p50 <= p99 && p99 <= p100);
        assert!((p50 as f64 - 5000.0).abs() / 5000.0 < 0.13, "p50={p50}");
        assert!((p99 as f64 - 9900.0).abs() / 9900.0 < 0.13, "p99={p99}");
        assert_eq!(p100, 10_000);
    }

    #[test]
    fn quantile_bounds_bracket_the_true_order_statistic() {
        let mut h = LogHistogram::default();
        let mut values: Vec<u64> = (0..500u64).map(|i| i * i + 3).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            let (lo, hi) = h.quantile_bounds(q).unwrap();
            assert!(
                lo <= truth && truth <= hi,
                "q={q} truth={truth} not in [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        for _ in 0..7 {
            a.record(123);
        }
        b.record_n(123, 7);
        b.record_n(99, 0); // no-op
        assert_eq!(a, b);
    }

    #[test]
    fn empty_quantile_none() {
        let h = LogHistogram::default();
        assert!(h.quantile(0.5).is_none());
        assert!(h.quantile_bounds(0.5).is_none());
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1000);
        assert_eq!(a.mean(), 505.0);
    }

    #[test]
    fn nonzero_buckets_cover_every_record() {
        let mut h = LogHistogram::default();
        for v in [3u64, 3, 700, 70_000] {
            h.record(v);
        }
        let buckets: Vec<Bucket> = h.nonzero_buckets().collect();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), h.count());
        assert!(buckets.windows(2).all(|w| w[0].hi < w[1].lo));
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut h = LogHistogram::default();
        for v in [0u64, 1, 9, 1_000, 123_456_789, u64::MAX] {
            h.record(v);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: LogHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
        // The encoding is sparse: six records, six pairs.
        assert!(
            json.matches('[').count() <= 8,
            "encoding must be sparse: {json}"
        );
    }

    #[test]
    fn corrupt_json_is_rejected() {
        for sub_bits in [0, 2, 4, 15] {
            let json =
                format!(r#"{{"sub_bits":{sub_bits},"counts":[[5,1]],"total":1,"sum":5,"max":5}}"#);
            let err = serde_json::from_str::<LogHistogram>(&json).expect_err("another shape");
            assert!(err.to_string().contains("sub-bucket bits"), "{err}");
        }
        let json = r#"{"sub_bits":3,"counts":[[9999,1]],"total":1,"sum":5,"max":5}"#;
        assert!(serde_json::from_str::<LogHistogram>(json).is_err());
        let json = r#"{"sub_bits":3,"counts":[[5,2]],"total":1,"sum":5,"max":5}"#;
        assert!(
            serde_json::from_str::<LogHistogram>(json).is_err(),
            "total inconsistent with bucket counts must be rejected"
        );
    }

    #[test]
    fn reset_clears_but_keeps_capacity() {
        let mut h = LogHistogram::default();
        h.record(42);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }
}
