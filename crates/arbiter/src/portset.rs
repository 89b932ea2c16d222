//! Multi-word port sets: the bit-parallel representation behind every
//! scheduling kernel.
//!
//! The kernels track "which ports are free / requesting / granted" as
//! bitsets with one bit per port.  A single `u64` covers the paper's 4×4
//! MMR with room to spare, but the Tiny Tera line of work makes 128- and
//! 256-port configurations the interesting scale, so the sets are generic
//! over a word count `W`: [`PortSet<W>`] is `[u64; W]` with branch-free
//! set algebra.  `W` is a const generic, so for the common one-word case
//! every operation compiles to exactly the single-`u64` instructions the
//! kernels used before — the width dispatch happens once per
//! `schedule_into` call, never per bit.
//!
//! Three widths are instantiated ([`PortSet64`], [`PortSet128`],
//! [`PortSet256`]); [`words_for_ports`] picks the narrowest one that
//! covers a port count.

/// Number of `u64` words in the widest supported port set.
pub const MAX_WORDS: usize = 4;

/// The narrowest supported word count covering `ports` ports: 1, 2 or 4.
///
/// Only power-of-two widths are instantiated so the per-call width
/// dispatch in the kernels stays a three-way match.
#[inline]
pub const fn words_for_ports(ports: usize) -> usize {
    if ports <= 64 {
        1
    } else if ports <= 128 {
        2
    } else {
        4
    }
}

/// A set of ports as `W` 64-bit words, least-significant word first.
///
/// Port `p` lives at bit `p % 64` of word `p / 64`.  All operations are
/// loops over `W` that the compiler fully unrolls (`W` is a const), so a
/// `PortSet<1>` costs the same as a bare `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSet<const W: usize> {
    words: [u64; W],
}

/// One-word set: up to 64 ports.
pub type PortSet64 = PortSet<1>;
/// Two-word set: up to 128 ports.
pub type PortSet128 = PortSet<2>;
/// Four-word set: up to 256 ports.
pub type PortSet256 = PortSet<4>;

impl<const W: usize> PortSet<W> {
    /// The set `{0, 1, .., ports-1}`.
    #[inline]
    pub fn full(ports: usize) -> Self {
        debug_assert!(ports <= W * 64);
        let mut words = [0u64; W];
        let mut i = 0;
        while i < W {
            let low = i * 64;
            words[i] = if ports >= low + 64 {
                u64::MAX
            } else if ports > low {
                (1u64 << (ports - low)) - 1
            } else {
                0
            };
            i += 1;
        }
        PortSet { words }
    }

    /// Build from a word slice of length `W` (e.g. a [`CandidateSet`]
    /// requester row).
    ///
    /// [`CandidateSet`]: crate::candidate::CandidateSet
    #[inline]
    pub fn from_words(src: &[u64]) -> Self {
        debug_assert_eq!(src.len(), W);
        let mut words = [0u64; W];
        words.copy_from_slice(src);
        PortSet { words }
    }

    /// Word `i` of the set.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// Add `port` to the set.
    #[inline]
    pub fn insert(&mut self, port: usize) {
        self.words[port >> 6] |= 1u64 << (port & 63);
    }

    /// Remove `port` from the set.
    #[inline]
    pub fn remove(&mut self, port: usize) {
        self.words[port >> 6] &= !(1u64 << (port & 63));
    }

    /// True if `port` is in the set.
    #[inline]
    pub fn contains(&self, port: usize) -> bool {
        self.words[port >> 6] & (1u64 << (port & 63)) != 0
    }

    /// True if no port is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        let mut any = 0u64;
        let mut i = 0;
        while i < W {
            any |= self.words[i];
            i += 1;
        }
        any == 0
    }

    /// Number of ports in the set.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        let mut n = 0u32;
        let mut i = 0;
        while i < W {
            n += self.words[i].count_ones();
            i += 1;
        }
        n
    }

    /// Intersection.
    #[inline]
    pub fn and(mut self, other: &Self) -> Self {
        let mut i = 0;
        while i < W {
            self.words[i] &= other.words[i];
            i += 1;
        }
        self
    }

    /// The lowest port in the set, or `None` if empty.
    #[inline]
    pub fn lowest(&self) -> Option<usize> {
        let mut i = 0;
        while i < W {
            if self.words[i] != 0 {
                return Some(i * 64 + self.words[i].trailing_zeros() as usize);
            }
            i += 1;
        }
        None
    }

    /// Remove and return the lowest port — the multi-word generalization
    /// of the `mask &= mask - 1` bit walk every kernel iterates with.
    #[inline]
    pub fn take_lowest(&mut self) -> Option<usize> {
        let mut i = 0;
        while i < W {
            let w = self.words[i];
            if w != 0 {
                self.words[i] = w & (w - 1);
                return Some(i * 64 + w.trailing_zeros() as usize);
            }
            i += 1;
        }
        None
    }

    /// The `k`-th set port (0-based, from the bottom).  `k` must be less
    /// than [`PortSet::count_ones`].
    #[inline]
    pub fn kth_set_bit(&self, k: usize) -> usize {
        debug_assert!((k as u32) < self.count_ones());
        let mut k = k as u32;
        let mut i = 0;
        while i < W {
            let c = self.words[i].count_ones();
            if k < c {
                let mut m = self.words[i];
                let mut j = 0;
                while j < k {
                    m &= m - 1;
                    j += 1;
                }
                return i * 64 + m.trailing_zeros() as usize;
            }
            k -= c;
            i += 1;
        }
        debug_assert!(false, "k out of range");
        0
    }

    /// First set port at-or-after `start`, wrapping around — the
    /// round-robin pointer scan (iSLIP).  The set must be non-empty.
    #[inline]
    pub fn first_at_or_after(&self, start: usize) -> usize {
        debug_assert!(!self.is_empty() && start < W * 64);
        let sw = start >> 6;
        let masked = self.words[sw] & (u64::MAX << (start & 63));
        if masked != 0 {
            return sw * 64 + masked.trailing_zeros() as usize;
        }
        let mut i = sw + 1;
        while i < W {
            if self.words[i] != 0 {
                return i * 64 + self.words[i].trailing_zeros() as usize;
            }
            i += 1;
        }
        // Wrap: bits at-or-after `start` are known clear, so scanning the
        // pointer's word in full is safe.
        let mut i = 0;
        loop {
            if self.words[i] != 0 {
                return i * 64 + self.words[i].trailing_zeros() as usize;
            }
            i += 1;
        }
    }

    /// Iterate set ports in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let mut s = *self;
        core::iter::from_fn(move || s.take_lowest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_ports_picks_narrowest_power_of_two() {
        assert_eq!(words_for_ports(1), 1);
        assert_eq!(words_for_ports(64), 1);
        assert_eq!(words_for_ports(65), 2);
        assert_eq!(words_for_ports(128), 2);
        assert_eq!(words_for_ports(129), 4);
        assert_eq!(words_for_ports(256), 4);
    }

    #[test]
    fn full_sets_exactly_the_port_count() {
        assert_eq!(PortSet64::full(4).count_ones(), 4);
        assert_eq!(PortSet64::full(64).word(0), u64::MAX);
        let s = PortSet128::full(65);
        assert_eq!(s.word(0), u64::MAX);
        assert_eq!(s.word(1), 1);
        let s = PortSet256::full(200);
        assert_eq!(s.count_ones(), 200);
        assert!(s.contains(199));
        assert!(!s.contains(200));
    }

    #[test]
    fn insert_remove_contains_across_words() {
        let mut s = PortSet256::full(0);
        for p in [0, 63, 64, 127, 128, 255] {
            assert!(!s.contains(p));
            s.insert(p);
            assert!(s.contains(p));
        }
        assert_eq!(s.count_ones(), 6);
        s.remove(127);
        assert!(!s.contains(127));
        assert_eq!(s.count_ones(), 5);
    }

    #[test]
    fn take_lowest_walks_ascending() {
        let mut s = PortSet128::full(0);
        for p in [100, 3, 64, 65, 0] {
            s.insert(p);
        }
        let mut got = Vec::new();
        while let Some(p) = s.take_lowest() {
            got.push(p);
        }
        assert_eq!(got, vec![0, 3, 64, 65, 100]);
        assert!(s.is_empty());
    }

    #[test]
    fn kth_set_bit_selects_across_words() {
        let mut s = PortSet128::full(0);
        for p in [1, 3, 64, 130 - 64] {
            s.insert(p);
        }
        assert_eq!(s.kth_set_bit(0), 1);
        assert_eq!(s.kth_set_bit(1), 3);
        assert_eq!(s.kth_set_bit(2), 64);
        assert_eq!(s.kth_set_bit(3), 66);
        let f = PortSet256::full(256);
        assert_eq!(f.kth_set_bit(255), 255);
    }

    #[test]
    fn first_at_or_after_wraps_like_rr_first() {
        // One-word cases mirror the old iSLIP `rr_first` tests.
        let s = PortSet64::from_words(&[0b0101]);
        assert_eq!(s.first_at_or_after(0), 0);
        assert_eq!(s.first_at_or_after(1), 2);
        assert_eq!(s.first_at_or_after(3), 0, "wraps past the top bit");
        assert_eq!(
            PortSet64::from_words(&[1u64 << 63]).first_at_or_after(63),
            63
        );
        assert_eq!(PortSet64::from_words(&[1]).first_at_or_after(63), 0);
        // Multi-word: search crosses a word boundary, then wraps fully.
        let mut s = PortSet256::full(0);
        s.insert(5);
        s.insert(200);
        assert_eq!(s.first_at_or_after(6), 200);
        assert_eq!(s.first_at_or_after(201), 5);
        assert_eq!(s.first_at_or_after(200), 200);
    }

    #[test]
    fn and_intersects() {
        let a = PortSet128::full(100);
        let mut b = PortSet128::full(0);
        b.insert(99);
        b.insert(100);
        let c = a.and(&b);
        assert!(c.contains(99));
        assert!(!c.contains(100));
        assert_eq!(c.count_ones(), 1);
    }

    #[test]
    fn iter_yields_ascending() {
        let mut s = PortSet256::full(0);
        for p in [255, 0, 128] {
            s.insert(p);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 128, 255]);
    }
}
