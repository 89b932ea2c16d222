//! The MMR time model.
//!
//! The MMR splits time hierarchically (paper §2 "Switch Organization"):
//!
//! * a **router cycle** (also *phit cycle*) is the time to move one phit —
//!   the physical transfer unit — across a link;
//! * a **flit cycle** is the time to move one flit (the flow-control unit)
//!   through the router and across the link.  One flit is many phits, so a
//!   flit cycle is an integer number of router cycles;
//! * flit cycles are grouped into **rounds** (frames) for bandwidth
//!   reservation; a connection reserves an integer number of flit-cycle
//!   *slots* per round.
//!
//! All simulation state is kept in integer router cycles; wall-clock
//! conversions go through a [`TimeBase`].

use crate::check::ConfigError;
use crate::ensure;
use serde::{Deserialize, Serialize};

/// A point in time or a duration, measured in router (phit) cycles.
///
/// This is the finest-grained clock in the simulator; queuing-delay counters
/// used by the SIABP priority function tick in router cycles.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct RouterCycle(pub u64);

/// A point in time or a duration, measured in flit cycles.
///
/// The router pipeline (link scheduling, switch scheduling, crossbar
/// traversal) advances once per flit cycle.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct FlitCycle(pub u64);

impl RouterCycle {
    /// Zero cycles.
    pub const ZERO: RouterCycle = RouterCycle(0);

    /// Saturating subtraction, useful for delays where clock skew could
    /// otherwise underflow.
    #[inline]
    pub fn saturating_sub(self, rhs: RouterCycle) -> RouterCycle {
        RouterCycle(self.0.saturating_sub(rhs.0))
    }
}

impl FlitCycle {
    /// Zero cycles.
    pub const ZERO: FlitCycle = FlitCycle(0);
}

impl core::ops::Add for RouterCycle {
    type Output = RouterCycle;
    #[inline]
    fn add(self, rhs: RouterCycle) -> RouterCycle {
        RouterCycle(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for RouterCycle {
    #[inline]
    fn add_assign(&mut self, rhs: RouterCycle) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub for RouterCycle {
    type Output = RouterCycle;
    #[inline]
    fn sub(self, rhs: RouterCycle) -> RouterCycle {
        RouterCycle(self.0 - rhs.0)
    }
}

impl core::ops::Add for FlitCycle {
    type Output = FlitCycle;
    #[inline]
    fn add(self, rhs: FlitCycle) -> FlitCycle {
        FlitCycle(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for FlitCycle {
    #[inline]
    fn add_assign(&mut self, rhs: FlitCycle) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub for FlitCycle {
    type Output = FlitCycle;
    #[inline]
    fn sub(self, rhs: FlitCycle) -> FlitCycle {
        FlitCycle(self.0 - rhs.0)
    }
}

/// Most phits (router cycles) a flit may span.
pub const MAX_PHITS_PER_FLIT: u32 = 1 << 16;

/// Fastest link, 1 Tbit/s (~800x the paper's): slow enough that a
/// 64 kbit/s class sends within [`crate::check::MAX_SPAN`] flit cycles.
pub const MAX_LINK_BPS: f64 = 1e12;

/// Physical time base: link rate, phit and flit widths, and the derived
/// cycle durations.
///
/// Defaults follow the paper (§2, §5 and the companion MMR papers): a
/// 1.24 Gbps, 16-bit-wide link with 1024-bit flits, giving a ~12.9 ns router
/// cycle and a ~826 ns flit cycle (64 router cycles).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeBase {
    /// Link rate in bits per second.
    pub link_bits_per_sec: f64,
    /// Phit (physical transfer unit) width in bits; one phit moves per
    /// router cycle.
    pub phit_bits: u32,
    /// Flit (flow control unit) width in bits; must be a multiple of
    /// `phit_bits`.
    pub flit_bits: u32,
}

impl Default for TimeBase {
    fn default() -> Self {
        TimeBase {
            link_bits_per_sec: 1.24e9,
            phit_bits: 16,
            flit_bits: 1024,
        }
    }
}

impl TimeBase {
    /// Check a flit is a whole, bounded number of positive-width phits
    /// and the link rate is positive and bounded.
    pub fn check(&self) -> Result<(), ConfigError> {
        let (phit, flit, rate) = (self.phit_bits, self.flit_bits, self.link_bits_per_sec);
        ensure!(phit > 0; "phit_bits", "phits must be at least one bit");
        ensure!(flit > 0; "flit_bits", "flits must be at least one bit");
        ensure!(flit.is_multiple_of(phit); "flit_bits",
            "flit width ({flit}) must be a multiple of phit width ({phit})");
        ensure!(flit / phit <= MAX_PHITS_PER_FLIT; "flit_bits",
            "a flit of {} phits exceeds {MAX_PHITS_PER_FLIT}", flit / phit);
        ensure!(rate > 0.0 && rate <= MAX_LINK_BPS; "link_bits_per_sec",
            "link rate {rate} must be positive and at most {MAX_LINK_BPS} bps");
        Ok(())
    }

    /// Number of router (phit) cycles in one flit cycle.
    #[inline]
    pub fn router_cycles_per_flit(&self) -> u64 {
        (self.flit_bits / self.phit_bits) as u64
    }

    /// Duration of one router cycle in seconds.
    #[inline]
    pub fn router_cycle_secs(&self) -> f64 {
        self.phit_bits as f64 / self.link_bits_per_sec
    }

    /// Duration of one flit cycle in seconds.
    #[inline]
    pub fn flit_cycle_secs(&self) -> f64 {
        self.flit_bits as f64 / self.link_bits_per_sec
    }

    /// Inter-arrival time, in router cycles, of flits of a connection with
    /// the given average bandwidth.
    ///
    /// A connection with bandwidth `b` injects one `flit_bits` flit every
    /// `flit_bits / b` seconds.
    #[inline]
    pub fn flit_iat_router_cycles(&self, bits_per_sec: f64) -> f64 {
        assert!(bits_per_sec > 0.0);
        (self.flit_bits as f64 / bits_per_sec) / self.router_cycle_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_geometry() {
        let tb = TimeBase::default();
        assert_eq!(tb.router_cycles_per_flit(), 64);
        // ~826 ns flit cycle on a 1.24 Gbps link
        let flit_ns = tb.flit_cycle_secs() * 1e9;
        assert!((flit_ns - 825.8).abs() < 1.0, "flit cycle {flit_ns} ns");
        // a phit takes "a few nanoseconds"
        let phit_ns = tb.router_cycle_secs() * 1e9;
        assert!(phit_ns > 5.0 && phit_ns < 20.0, "phit cycle {phit_ns} ns");
    }

    #[test]
    fn iat_for_cbr_classes() {
        let tb = TimeBase::default();
        // 55 Mbps: one 1024-bit flit every ~18.6 us -> ~1443 router cycles
        let iat = tb.flit_iat_router_cycles(55e6);
        assert!((iat - 1443.0).abs() < 5.0, "iat = {iat}");
        // low-bandwidth class is very sparse
        assert!(tb.flit_iat_router_cycles(64e3) > 1e6);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_fractional_phits() {
        let tb = TimeBase {
            link_bits_per_sec: 1e9,
            phit_bits: 10,
            flit_bits: 1024,
        };
        tb.check().unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn arithmetic_ops() {
        assert_eq!(RouterCycle(5) + RouterCycle(3), RouterCycle(8));
        assert_eq!(RouterCycle(5) - RouterCycle(3), RouterCycle(2));
        assert_eq!(
            RouterCycle(3).saturating_sub(RouterCycle(5)),
            RouterCycle(0)
        );
        let mut t = FlitCycle(1);
        t += FlitCycle(2);
        assert_eq!(t, FlitCycle(3));
        assert_eq!(FlitCycle(7) - FlitCycle(2), FlitCycle(5));
    }
}
