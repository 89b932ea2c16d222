//! Best-effort traffic.
//!
//! The MMR's stated goal (§1) is to "satisfy the QoS requirements of a
//! large number of multimedia connections *while allocating the remaining
//! bandwidth to best-effort traffic*": best-effort messages use Virtual
//! Cut-Through switching, make no reservation, and must scavenge whatever
//! the reserved classes leave over without disturbing them.
//!
//! This source models best-effort load as a Poisson stream of multi-flit
//! messages: message inter-arrival times are exponential (mean set by the
//! target load), message lengths are geometric-ish around a configurable
//! mean, and all flits of a message are injected back-to-back at message
//! arrival (the VCT abstraction — the message is cut through as one
//! unit).

use crate::connection::ConnectionId;
use crate::flit::Flit;
use crate::source::{round_rc, TrafficSource};
use mmr_sim::rng::SimRng;
use mmr_sim::time::{RouterCycle, TimeBase};
use mmr_sim::units::Bandwidth;

/// A Poisson best-effort message source.
#[derive(Debug, Clone)]
pub struct BestEffortSource {
    connection: ConnectionId,
    /// Mean router cycles between message arrivals.
    mean_gap_rc: f64,
    /// Mean message length in flits (≥ 1).
    mean_flits: f64,
    rng: SimRng,
    /// Next message arrival time.
    next_msg_rc: f64,
    /// `next_msg_rc` rounded to its router cycle, refreshed whenever the
    /// arrival time moves.
    next_rc: u64,
    /// Flits left in the message currently being injected.
    in_flight: u64,
    seq: u64,
}

impl BestEffortSource {
    /// A source offering `bandwidth` on average, as messages of
    /// `mean_flits` flits, starting around `phase`.
    pub fn new(
        connection: ConnectionId,
        bandwidth: Bandwidth,
        mean_flits: f64,
        phase: RouterCycle,
        tb: &TimeBase,
        rng: SimRng,
    ) -> Self {
        assert!(mean_flits >= 1.0);
        assert!(bandwidth.as_bps() > 0.0);
        // bandwidth = mean_flits x flit_bits / mean_gap_secs
        let mean_gap_secs = mean_flits * tb.flit_bits as f64 / bandwidth.as_bps();
        let mean_gap_rc = mean_gap_secs / tb.router_cycle_secs();
        let mut s = BestEffortSource {
            connection,
            mean_gap_rc,
            mean_flits,
            rng,
            next_msg_rc: phase.0 as f64,
            next_rc: 0,
            in_flight: 0,
            seq: 0,
        };
        // First arrival after a random exponential delay from the phase.
        s.schedule_next_message();
        s
    }

    /// Move the arrival clock one exponential gap on.
    fn schedule_next_message(&mut self) {
        self.next_msg_rc += self.rng.exponential(self.mean_gap_rc);
        self.next_rc = round_rc(self.next_msg_rc);
    }

    /// Draw a message length: geometric with the configured mean.
    fn draw_length(&mut self) -> u64 {
        if self.mean_flits <= 1.0 {
            return 1;
        }
        // Geometric on {1, 2, …} with mean m: success prob 1/m.
        let p = 1.0 / self.mean_flits;
        let u = self.rng.uniform();
        (1.0 + (1.0 - u).ln() / (1.0 - p).ln()).floor().max(1.0) as u64
    }
}

impl TrafficSource for BestEffortSource {
    fn connection(&self) -> ConnectionId {
        self.connection
    }

    fn peek_next(&self) -> Option<RouterCycle> {
        Some(RouterCycle(self.next_rc))
    }

    fn emit(&mut self) -> Flit {
        if self.in_flight == 0 {
            self.in_flight = self.draw_length();
        }
        let flit = Flit::cbr(self.connection, self.seq, RouterCycle(self.next_rc));
        self.seq += 1;
        self.in_flight -= 1;
        if self.in_flight == 0 {
            // Next message after an exponential gap from *this* message's
            // start (arrival process is Poisson on message starts).
            self.schedule_next_message();
        }
        // Flits of one message share the arrival timestamp: VCT injects
        // the whole message as a unit.
        flit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(bw_mbps: f64, mean_flits: f64, seed: u64) -> BestEffortSource {
        let tb = TimeBase::default();
        BestEffortSource::new(
            ConnectionId(0),
            Bandwidth::mbps(bw_mbps),
            mean_flits,
            RouterCycle(0),
            &tb,
            SimRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn long_run_rate_matches_bandwidth() {
        let tb = TimeBase::default();
        let mut s = source(50.0, 8.0, 1);
        let mut out = Vec::new();
        let one_sec = RouterCycle((1.0 / tb.router_cycle_secs()).round() as u64);
        s.drain_until(one_sec, &mut out);
        let expected = 50e6 / 1024.0; // flits per second
        let got = out.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.1,
            "expected ~{expected} flits, got {got}"
        );
    }

    #[test]
    fn messages_are_bursts_with_shared_timestamp() {
        let mut s = source(10.0, 16.0, 2);
        let mut lengths = Vec::new();
        let mut current = 1u64;
        let mut last_t = s.peek_next().unwrap();
        s.emit();
        for _ in 0..5_000 {
            let t = s.peek_next().unwrap();
            s.emit();
            if t == last_t {
                current += 1;
            } else {
                assert!(t > last_t, "message starts move forward");
                lengths.push(current);
                current = 1;
                last_t = t;
            }
        }
        let mean = lengths.iter().sum::<u64>() as f64 / lengths.len() as f64;
        assert!((mean - 16.0).abs() < 2.5, "mean message length {mean}");
        assert!(lengths.contains(&1), "geometric has short messages");
        assert!(
            lengths.iter().any(|&l| l > 24),
            "geometric has long messages"
        );
    }

    #[test]
    fn gaps_are_exponential_ish() {
        let mut s = source(10.0, 4.0, 3);
        let mut starts = Vec::new();
        let mut last = None;
        for _ in 0..20_000 {
            let t = s.peek_next().unwrap().0;
            s.emit();
            if last != Some(t) {
                starts.push(t as f64);
                last = Some(t);
            }
        }
        let gaps: Vec<f64> = starts.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        // Exponential: std ≈ mean (coefficient of variation ≈ 1).
        let cv = var.sqrt() / mean;
        assert!((0.8..1.2).contains(&cv), "cv {cv}");
    }

    #[test]
    fn sequence_numbers_dense() {
        let mut s = source(5.0, 2.0, 4);
        for i in 0..100 {
            assert_eq!(s.emit().seq, i);
        }
    }
}
