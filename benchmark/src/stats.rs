//! Estimators for round samples taken on a noisy shared host.
//!
//! Every round of a workload does byte-identical simulated work, so the
//! spread between rounds is host noise, and contention only ever slows a
//! sample down.  A unit is an ensemble of members of tens of milliseconds
//! each; the reported time is the sum over members of each member's *fast
//! quartile* across rounds.  Taking the quartile per member rather than
//! per round means a contention burst of a few hundred milliseconds spoils
//! some samples of some members, not a whole round.  Median, inter-quartile
//! range and sample count of the per-round totals are kept beside the
//! reported value so the noise is visible in every result file.

/// Quartiles of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) so that this
/// file and the driver agree on what a quartile is.  One sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The fast quartile of a duration: the first quartile, but never below
/// the fastest sample (the exclusive method extrapolates on few samples).
pub fn fast_time(values: &[f64]) -> f64 {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    quartiles(values)[0].max(min)
}

/// Fast time of a whole unit from `rounds[round][member]` durations: each
/// member's fast quartile across rounds, summed over members.
pub fn ensemble_fast_time(rounds: &[Vec<f64>]) -> f64 {
    (0..rounds[0].len())
        .map(|k| fast_time(&rounds.iter().map(|r| r[k]).collect::<Vec<_>>()))
        .sum()
}

/// A reported value with the spread of the per-round values it came from.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// The reported value.
    pub fast: f64,
    /// Median of the per-round values.
    pub median: f64,
    /// Distance between the first and third quartile of the per-round
    /// values.
    pub iqr: f64,
    /// Rounds.
    pub n: usize,
}

/// Summarize `rounds[round][member]` durations.  `value` maps a unit time
/// to the metric (identity for seconds, `cycles / t` for a rate).
pub fn summarize(rounds: &[Vec<f64>], value: impl Fn(f64) -> f64) -> Summary {
    let per_round: Vec<f64> = rounds.iter().map(|r| value(r.iter().sum())).collect();
    let [q1, q2, q3] = quartiles(&per_round);
    Summary {
        fast: value(ensemble_fast_time(rounds)),
        median: q2,
        iqr: q3 - q1,
        n: rounds.len(),
    }
}

/// A/A self-check: the value computed from the odd rounds against that
/// from the even rounds, as a share of the latter.  Both halves measured
/// the same binary on the same inputs, so anything but zero is noise.
pub fn aa_delta(rounds: &[Vec<f64>], value: impl Fn(f64) -> f64) -> f64 {
    let half = |parity: usize| -> Vec<Vec<f64>> {
        rounds
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, r)| r.clone())
            .collect()
    };
    let (even, odd) = (half(0), half(1));
    if odd.is_empty() {
        return 0.0;
    }
    let e = value(ensemble_fast_time(&even));
    (value(ensemble_fast_time(&odd)) - e) / e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn fast_time_is_the_clamped_first_quartile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(fast_time(&v), 2.75);
        // Two samples extrapolate to 0.75; the clamp keeps the minimum.
        assert_eq!(fast_time(&[1.0, 2.0]), 1.0);
    }

    #[test]
    fn a_burst_that_spoils_whole_rounds_does_not_move_the_fast_time() {
        // 12 rounds x 3 members; rounds 3..6 ran under contention.
        let mut rounds = vec![vec![1.0, 2.0, 3.0]; 12];
        for r in &mut rounds[3..6] {
            for t in r.iter_mut() {
                *t *= 1.6;
            }
        }
        assert_eq!(ensemble_fast_time(&rounds), 6.0);
        let s = summarize(&rounds, |t| 60.0 / t);
        assert_eq!((s.fast, s.median, s.n), (10.0, 10.0, 12));
    }

    #[test]
    fn per_member_quartiles_survive_noise_that_touches_every_round() {
        // Each round has one slow member, a different one each time: every
        // round total is inflated, yet every member has clean samples.
        let rounds: Vec<Vec<f64>> = (0..12)
            .map(|r| (0..4).map(|k| if k == r % 4 { 2.0 } else { 1.0 }).collect())
            .collect();
        assert_eq!(ensemble_fast_time(&rounds), 4.0);
        assert_eq!(summarize(&rounds, |t| t).median, 5.0);
    }

    #[test]
    fn aa_delta_is_zero_on_identical_halves_and_signed_otherwise() {
        let same = vec![vec![5.0, 1.0]; 6];
        assert_eq!(aa_delta(&same, |t| t), 0.0);
        // even rounds take 10, odd rounds 11 -> +10 %
        let rounds: Vec<Vec<f64>> = (0..6).map(|r| vec![10.0 + (r % 2) as f64]).collect();
        assert!((aa_delta(&rounds, |t| t) - 0.1).abs() < 1e-12);
        assert_eq!(aa_delta(&[vec![1.0]], |t| t), 0.0);
    }
}
