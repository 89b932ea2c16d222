//! Bandwidth and data-size value types.
//!
//! Thin newtypes that keep Mbps/Kbps conversions out of the modelling code
//! and make connection descriptors self-documenting.

use serde::{Deserialize, Serialize};

/// A bandwidth, stored in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    /// From bits per second.
    #[inline]
    pub const fn bps(v: f64) -> Self {
        Bandwidth(v)
    }
    /// From kilobits per second (10^3).
    #[inline]
    pub const fn kbps(v: f64) -> Self {
        Bandwidth(v * 1e3)
    }
    /// From megabits per second (10^6).
    #[inline]
    pub const fn mbps(v: f64) -> Self {
        Bandwidth(v * 1e6)
    }
    /// Value in bits per second.
    #[inline]
    pub const fn as_bps(self) -> f64 {
        self.0
    }
    /// Value in megabits per second.
    #[inline]
    pub fn as_mbps(self) -> f64 {
        self.0 / 1e6
    }
    /// Fraction of `link` this bandwidth represents.
    #[inline]
    pub fn fraction_of(self, link: Bandwidth) -> f64 {
        self.0 / link.0
    }
}

impl core::ops::Add for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for Bandwidth {
    #[inline]
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl core::iter::Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        Bandwidth(iter.map(|b| b.0).sum())
    }
}

/// A data size, stored in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct DataSize(pub u64);

impl DataSize {
    /// From bits.
    #[inline]
    pub const fn bits(v: u64) -> Self {
        DataSize(v)
    }
    /// Number of flits of `flit_bits` needed to carry this payload
    /// (rounded up, at least 1 for non-empty payloads).
    #[inline]
    pub fn flits(self, flit_bits: u32) -> u64 {
        if self.0 == 0 {
            0
        } else {
            self.0.div_ceil(flit_bits as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversions() {
        assert_eq!(Bandwidth::kbps(64.0).as_bps(), 64_000.0);
        assert_eq!(Bandwidth::mbps(1.54).as_bps(), 1.54e6);
        assert_eq!(Bandwidth::mbps(1240.0).as_mbps(), 1240.0);
        let frac = Bandwidth::mbps(55.0).fraction_of(Bandwidth::mbps(1240.0));
        assert!((frac - 0.044355).abs() < 1e-6);
    }

    #[test]
    fn bandwidth_sums() {
        let total: Bandwidth = [
            Bandwidth::mbps(1.0),
            Bandwidth::mbps(2.0),
            Bandwidth::mbps(3.0),
        ]
        .into_iter()
        .sum();
        assert!((total.as_mbps() - 6.0).abs() < 1e-12);
        let mut b = Bandwidth::mbps(1.0);
        b += Bandwidth::mbps(0.5);
        assert!((b.as_mbps() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn datasize_flits_rounds_up() {
        assert_eq!(DataSize::bits(0).flits(1024), 0);
        assert_eq!(DataSize::bits(1).flits(1024), 1);
        assert_eq!(DataSize::bits(1024).flits(1024), 1);
        assert_eq!(DataSize::bits(1025).flits(1024), 2);
        assert_eq!(DataSize::bits(100_000).flits(1024), 98); // 100_000 / 1024 = 97.66
    }
}
