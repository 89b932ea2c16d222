//! Constant-bit-rate sources.
//!
//! A CBR connection of bandwidth `b` emits one flit every
//! `flit_bits / b` seconds.  The emission clock is kept in `f64` router
//! cycles so non-integer inter-arrival times (e.g. the 1.54 Mbps class)
//! accumulate without drift, then rounded per emission.

use crate::connection::ConnectionId;
use crate::flit::Flit;
use crate::source::{round_rc, TrafficSource};
use mmr_sim::time::{RouterCycle, TimeBase};
use mmr_sim::units::Bandwidth;

/// An infinite CBR flit source.
#[derive(Debug, Clone)]
pub struct CbrSource {
    connection: ConnectionId,
    iat_rc: f64,
    next_time: f64,
    /// `next_time` rounded to its router cycle, refreshed once per
    /// `emit`: `peek_next` is called several times per emitted flit.
    next_rc: u64,
    seq: u64,
}

impl CbrSource {
    /// Create a source for `connection` at `bandwidth`, with the first flit
    /// at `phase` router cycles (connections are randomly phase-aligned so
    /// they do not emit in lock-step).
    pub fn new(
        connection: ConnectionId,
        bandwidth: Bandwidth,
        phase: RouterCycle,
        tb: &TimeBase,
    ) -> Self {
        let iat_rc = tb.flit_iat_router_cycles(bandwidth.as_bps());
        CbrSource {
            connection,
            iat_rc,
            next_time: phase.0 as f64,
            next_rc: round_rc(phase.0 as f64),
            seq: 0,
        }
    }

    /// The source's inter-arrival time in router cycles.
    pub fn iat_router_cycles(&self) -> f64 {
        self.iat_rc
    }
}

impl TrafficSource for CbrSource {
    fn connection(&self) -> ConnectionId {
        self.connection
    }

    fn peek_next(&self) -> Option<RouterCycle> {
        Some(RouterCycle(self.next_rc))
    }

    fn emit(&mut self) -> Flit {
        let flit = Flit::cbr(self.connection, self.seq, RouterCycle(self.next_rc));
        self.seq += 1;
        self.next_time += self.iat_rc;
        self.next_rc = round_rc(self.next_time);
        flit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_rate_matches_bandwidth() {
        let tb = TimeBase::default();
        let mut s = CbrSource::new(ConnectionId(0), Bandwidth::mbps(55.0), RouterCycle(0), &tb);
        // Drain one simulated second and count flits: expect b / flit_bits.
        let one_sec = RouterCycle((1.0 / tb.router_cycle_secs()).round() as u64);
        let mut out = Vec::new();
        s.drain_until(one_sec, &mut out);
        let expected = 55e6 / 1024.0;
        let got = out.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.001,
            "expected ~{expected} flits, got {got}"
        );
    }

    #[test]
    fn no_drift_with_fractional_iat() {
        let tb = TimeBase::default();
        // 1.54 Mbps has a non-integer IAT in router cycles.
        let mut s = CbrSource::new(ConnectionId(1), Bandwidth::mbps(1.54), RouterCycle(0), &tb);
        let mut last = 0u64;
        for i in 1..=10_000 {
            let f = s.emit();
            assert!(f.generated_at.0 >= last);
            last = f.generated_at.0;
            assert_eq!(f.seq, (i - 1) as u64);
        }
        // After n emissions the clock should sit at n * iat (no drift).
        let expected = 10_000.0 * s.iat_router_cycles();
        assert!((last as f64 - (expected - s.iat_router_cycles())).abs() < 1.0);
    }

    #[test]
    fn phase_offsets_first_emission() {
        let tb = TimeBase::default();
        let s = CbrSource::new(
            ConnectionId(2),
            Bandwidth::kbps(64.0),
            RouterCycle(12345),
            &tb,
        );
        assert_eq!(s.peek_next(), Some(RouterCycle(12345)));
    }

    #[test]
    fn flits_tagged_with_connection() {
        let tb = TimeBase::default();
        let mut s = CbrSource::new(ConnectionId(9), Bandwidth::mbps(10.0), RouterCycle(0), &tb);
        assert_eq!(s.emit().connection, ConnectionId(9));
        assert_eq!(s.connection(), ConnectionId(9));
    }
}
