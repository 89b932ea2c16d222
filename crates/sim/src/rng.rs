//! Deterministic random number generation.
//!
//! Experiments must be reproducible from a single seed across platforms and
//! library versions, so the simulator carries its own `xoshiro256**`
//! implementation (public domain algorithm by Blackman & Vigna) instead of
//! relying on external RNG crates.

/// A `xoshiro256**` generator.
///
/// Fast, 256-bit state, passes BigCrush; more than adequate for driving
/// traffic models and arbitration tie-breaks.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.  The state is expanded with
    /// SplitMix64 as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent stream for a subcomponent.
    ///
    /// Mixing the stream id through SplitMix64 before reseeding gives
    /// decorrelated streams for, e.g., each traffic source, so adding a
    /// source never perturbs the randomness seen by the others.
    pub fn split(&self, stream: u64) -> SimRng {
        let mut sm = self.s[0] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let mixed = splitmix64(&mut sm) ^ self.s[3].rotate_left(17);
        SimRng::seed_from_u64(mixed)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64_raw(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.  Uses Lemire's unbiased multiply-shift
    /// rejection method.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut x = self.next_u64_raw();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64_raw();
                m = (x as u128).wrapping_mul(n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Standard normal deviate (Marsaglia polar method).
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Log-normal deviate with the given mean and standard deviation of the
    /// *underlying normal*.
    #[inline]
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Exponential deviate with the given mean.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64)
            .filter(|_| a.next_u64_raw() == b.next_u64_raw())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_decorrelated() {
        let root = SimRng::seed_from_u64(7);
        let mut s1 = root.split(0);
        let mut s2 = root.split(1);
        let same = (0..256)
            .filter(|_| s1.next_u64_raw() == s2.next_u64_raw())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SimRng::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 50_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.standard_normal();
            s += x;
            s2 += x * x;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::seed_from_u64(13);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed_from_u64(17);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            xs, sorted,
            "shuffle left the slice sorted (astronomically unlikely)"
        );
    }
}
