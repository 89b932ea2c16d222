//! Output links and delivery sinks.
//!
//! In the single-router configuration, flits leaving the crossbar traverse
//! the output link (one flit per flit cycle, guaranteed by the matching's
//! one-grant-per-output invariant) and are consumed by the destination
//! host.  This module accounts per-port delivery and hands flits to the
//! metrics collector.

use mmr_sim::time::RouterCycle;
use mmr_traffic::flit::Flit;

/// A delivered flit with its delivery timestamp.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// The flit.
    pub flit: Flit,
    /// Output port it left on.
    pub output: usize,
    /// Delivery time (router cycles): crossbar grant + crossing latency.
    pub delivered_at: RouterCycle,
}

impl Delivery {
    /// End-to-end delay since generation, in router cycles.
    pub fn delay(&self) -> RouterCycle {
        self.delivered_at.saturating_sub(self.flit.generated_at)
    }
}

/// Per-output-port delivery counters.
#[derive(Debug, Clone)]
pub struct OutputPorts {
    delivered: Vec<u64>,
}

impl OutputPorts {
    /// Counters for `ports` output links.
    pub fn new(ports: usize) -> Self {
        OutputPorts {
            delivered: vec![0; ports],
        }
    }

    /// Record one delivery.
    pub fn record(&mut self, output: usize) {
        self.delivered[output] += 1;
    }

    /// Flits delivered per port.
    pub fn per_port(&self) -> &[u64] {
        &self.delivered
    }

    /// Reset counters.
    pub fn reset(&mut self) {
        self.delivered.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_traffic::connection::ConnectionId;

    #[test]
    fn delay_is_delivery_minus_generation() {
        let d = Delivery {
            flit: Flit::cbr(ConnectionId(0), 0, RouterCycle(100)),
            output: 1,
            delivered_at: RouterCycle(164),
        };
        assert_eq!(d.delay(), RouterCycle(64));
    }

    #[test]
    fn counters_accumulate_per_port() {
        let mut out = OutputPorts::new(3);
        out.record(0);
        out.record(2);
        out.record(2);
        assert_eq!(out.per_port(), &[1, 0, 2]);
        assert_eq!(out.per_port().iter().sum::<u64>(), 3);
        out.reset();
        assert_eq!(out.per_port().iter().sum::<u64>(), 0);
    }
}
