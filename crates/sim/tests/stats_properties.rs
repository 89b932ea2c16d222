//! Property-based tests for the statistics substrate.

use mmr_sim::rng::SimRng;
use mmr_sim::stats::{LogHistogram, LogHistogramBank, Running};
use proptest::prelude::*;

proptest! {
    #[test]
    fn running_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        prop_assert!((r.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((r.variance() - var).abs() <= 1e-4 * (1.0 + var.abs()));
        prop_assert_eq!(r.count(), xs.len() as u64);
        prop_assert_eq!(r.min().unwrap(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(r.max().unwrap(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn running_merge_any_split(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..100),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
        let mut whole = Running::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-6 * (1.0 + whole.variance()));
    }

    #[test]
    fn histogram_mean_exact_and_quantiles_monotone(
        xs in proptest::collection::vec(0u64..1_000_000_000, 1..300),
    ) {
        let mut h = LogHistogram::new(3);
        for &x in &xs {
            h.record(x);
        }
        let exact_mean = xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64;
        prop_assert!((h.mean() - exact_mean).abs() < 1e-6 * (1.0 + exact_mean));
        prop_assert_eq!(h.max(), *xs.iter().max().unwrap());
        let mut last = 0u64;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= last, "quantile({q}) = {v} < previous {last}");
            last = v;
        }
        prop_assert_eq!(h.quantile(1.0).unwrap(), h.max());
    }

    #[test]
    fn histogram_quantile_relative_error_bounded(
        xs in proptest::collection::vec(1u64..1_000_000_000, 50..300),
        q in 0.05f64..0.95,
    ) {
        let mut h = LogHistogram::new(3);
        for &x in &xs {
            h.record(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        let exact = sorted[idx] as f64;
        let approx = h.quantile(q).unwrap() as f64;
        // Bucket relative error is <= 12.5%; allow an extra bucket of slack
        // for ties at the boundary.
        prop_assert!(
            (approx - exact).abs() <= 0.27 * exact + 2.0,
            "q={q}: approx {approx} exact {exact}"
        );
    }

    #[test]
    fn histogram_merge_equals_single_pass(
        xs in proptest::collection::vec(0u64..1_000_000_000, 1..200),
        ys in proptest::collection::vec(0u64..1_000_000_000, 1..200),
    ) {
        let mut whole = LogHistogram::new(3);
        let mut a = LogHistogram::new(3);
        let mut b = LogHistogram::new(3);
        for &x in &xs {
            whole.record(x);
            a.record(x);
        }
        for &y in &ys {
            whole.record(y);
            b.record(y);
        }
        a.merge(&b);
        prop_assert_eq!(&a, &whole, "merge must equal single-pass recording");
    }

    #[test]
    fn histogram_quantile_bounds_bracket_the_order_statistic(
        xs in proptest::collection::vec(0u64..1_000_000_000, 1..300),
        q in 0.0f64..1.0,
    ) {
        let mut h = LogHistogram::new(3);
        for &x in &xs {
            h.record(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        let exact = sorted[idx];
        let (lo, hi) = h.quantile_bounds(q).unwrap();
        prop_assert!(
            lo <= exact && exact <= hi,
            "q={q}: order statistic {exact} outside bucket [{lo}, {hi}]"
        );
        let approx = h.quantile(q).unwrap();
        prop_assert!(lo <= approx && approx <= hi, "point estimate outside its own bounds");
    }

    #[test]
    fn histogram_record_n_equals_repeats(
        pairs in proptest::collection::vec((0u64..1_000_000, 0u64..50), 1..50),
    ) {
        let mut bulk = LogHistogram::new(3);
        let mut single = LogHistogram::new(3);
        for &(v, n) in &pairs {
            bulk.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
        }
        prop_assert_eq!(&bulk, &single);
    }

    #[test]
    fn histogram_json_round_trip(
        xs in proptest::collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let mut h = LogHistogram::new(3);
        for &x in &xs {
            h.record(x);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: LogHistogram = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &h, "sparse JSON round-trip must be lossless");
    }

    #[test]
    fn histogram_nonzero_buckets_account_everything(
        xs in proptest::collection::vec(0u64..u64::MAX, 1..300),
    ) {
        let mut h = LogHistogram::new(3);
        for &x in &xs {
            h.record(x);
        }
        let mut total = 0u64;
        for b in h.nonzero_buckets() {
            prop_assert!(b.count > 0);
            prop_assert!(b.lo <= b.hi);
            let (lo, hi) = h.bucket_bounds(b.index);
            prop_assert_eq!((b.lo, b.hi), (lo, hi));
            total += b.count;
        }
        prop_assert_eq!(total, xs.len() as u64, "bucket counts must conserve mass");
        for &x in &xs {
            prop_assert!(
                h.nonzero_buckets().any(|b| b.lo <= x && x <= b.hi),
                "recorded value {x} falls in no non-empty bucket"
            );
        }
    }

    #[test]
    fn bank_rows_equal_histograms_fed_the_same_values(
        xs in proptest::collection::vec((0usize..5, 0u64..u64::MAX), 0..300),
    ) {
        // Values land in five rows, interleaved; each row must read back
        // as the default histogram fed that row's values, down to its JSON.
        let mut bank = LogHistogramBank::new(5);
        let mut hists = vec![LogHistogram::default(); 5];
        for &(row, x) in &xs {
            bank.record(row, x);
            hists[row].record(x);
        }
        prop_assert_eq!(bank.rows(), 5);
        for (row, h) in hists.iter().enumerate() {
            prop_assert_eq!(bank.count(row), h.count());
            prop_assert_eq!(&bank.row(row), h);
            prop_assert_eq!(
                serde_json::to_string(&bank.row(row)).unwrap(),
                serde_json::to_string(h).unwrap()
            );
        }
    }

    #[test]
    fn rng_below_uniformity(n in 1u64..100, seed in 0u64..1000) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn rng_split_streams_disagree(seed in 0u64..10_000, a in 0u64..64, b in 0u64..64) {
        prop_assume!(a != b);
        let root = SimRng::seed_from_u64(seed);
        let mut sa = root.split(a);
        let mut sb = root.split(b);
        let same = (0..32).filter(|_| sa.next_u64_raw() == sb.next_u64_raw()).count();
        prop_assert!(same <= 1, "streams {a} and {b} collided {same}/32 outputs");
    }
}
