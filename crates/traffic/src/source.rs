//! The traffic-source abstraction.
//!
//! A source is a pull-based generator: it exposes the timestamp of its next
//! flit, and the NIC drains every flit whose generation time has passed at
//! the end of each flit cycle.  Keeping sources pull-based lets the router
//! loop stay allocation-free and lets tests drive sources directly.

use crate::connection::ConnectionId;
use crate::flit::Flit;
use mmr_sim::time::RouterCycle;

/// Round an emission clock (`f64` router cycles) to its router cycle:
/// `x.round() as u64` for `0 <= x < 2^53`, computed without the libm
/// `round` call baseline x86-64 makes (no SSE4.1 `roundsd`).  `x as u64`
/// truncates, the fraction `x - trunc(x)` is exact in that range, and
/// `f64::round` rounds halves away from zero — up, for `x >= 0`.
///
/// Out of line on purpose: it stands where a call into libm stood, and
/// inlined into the sources' `drain_until` loops it moved code around
/// enough to slow the benchmark's replay of the router step by 4 % (its
/// router twin unmoved) — which `replay.step_ratio` reads as the router
/// leaving the replay behind (DESIGN.md §18).
#[inline(never)]
pub fn round_rc(x: f64) -> u64 {
    let t = x as u64;
    let rc = t + u64::from(x - t as f64 >= 0.5);
    debug_assert_eq!(rc, x.round() as u64, "round_rc({x}) left its exact range");
    rc
}

/// A generator of timestamped flits for one connection.
pub trait TrafficSource {
    /// Connection this source feeds.
    fn connection(&self) -> ConnectionId;

    /// Generation time of the next flit, or `None` if the source is
    /// exhausted (finite traces).  Must be non-decreasing across calls.
    fn peek_next(&self) -> Option<RouterCycle>;

    /// Produce the next flit and advance.  Panics if exhausted.
    fn emit(&mut self) -> Flit;

    /// Total flits this source will ever produce, if finite.
    fn total_flits(&self) -> Option<u64> {
        None
    }

    /// Drain every flit generated at or before `now` into `out`; returns
    /// the number drained.  Provided for the NIC fill loop.
    fn drain_until(&mut self, now: RouterCycle, out: &mut Vec<Flit>) -> usize {
        let mut n = 0;
        while let Some(t) = self.peek_next() {
            if t > now {
                break;
            }
            out.push(self.emit());
            n += 1;
        }
        n
    }
}

/// A wrapper that retires its inner source at a departure cycle: flits
/// whose generation time falls at or after `end` are never emitted, so
/// the source reads as exhausted from that point on (churn departures).
///
/// `peek_next` stays monotone because the inner source's times are
/// non-decreasing: once a peek crosses the cutoff every later peek does
/// too, and the wrapper reports `None` forever after.
pub struct ExpiringSource {
    inner: Box<dyn TrafficSource + Send>,
    end: RouterCycle,
}

impl ExpiringSource {
    /// Wrap `inner`, suppressing every flit generated at or after `end`.
    pub fn new(inner: Box<dyn TrafficSource + Send>, end: RouterCycle) -> Self {
        ExpiringSource { inner, end }
    }
}

impl TrafficSource for ExpiringSource {
    fn connection(&self) -> ConnectionId {
        self.inner.connection()
    }

    fn peek_next(&self) -> Option<RouterCycle> {
        self.inner.peek_next().filter(|&t| t < self.end)
    }

    fn emit(&mut self) -> Flit {
        debug_assert!(self.peek_next().is_some(), "emit past departure");
        self.inner.emit()
    }

    fn total_flits(&self) -> Option<u64> {
        // The exact truncated count is unknown without draining the inner
        // source; report "unbounded" and let the departure show up
        // through `peek_next` exhaustion instead.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted source for testing the default `drain_until`.
    struct Scripted {
        times: Vec<u64>,
        pos: usize,
    }

    impl TrafficSource for Scripted {
        fn connection(&self) -> ConnectionId {
            ConnectionId(0)
        }
        fn peek_next(&self) -> Option<RouterCycle> {
            self.times.get(self.pos).map(|&t| RouterCycle(t))
        }
        fn emit(&mut self) -> Flit {
            let t = self.times[self.pos];
            self.pos += 1;
            Flit::cbr(ConnectionId(0), (self.pos - 1) as u64, RouterCycle(t))
        }
        fn total_flits(&self) -> Option<u64> {
            Some(self.times.len() as u64)
        }
    }

    #[test]
    fn drain_until_respects_timestamps() {
        let mut s = Scripted {
            times: vec![0, 10, 20, 30],
            pos: 0,
        };
        let mut out = Vec::new();
        assert_eq!(s.drain_until(RouterCycle(15), &mut out), 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].generated_at, RouterCycle(10));
        assert_eq!(s.drain_until(RouterCycle(15), &mut out), 0);
        assert_eq!(s.drain_until(RouterCycle(100), &mut out), 2);
        assert_eq!(s.peek_next(), None);
    }

    #[test]
    fn expiring_source_retires_at_departure() {
        let s = Scripted {
            times: vec![0, 10, 20, 30],
            pos: 0,
        };
        let mut e = ExpiringSource::new(Box::new(s), RouterCycle(20));
        let mut out = Vec::new();
        // Only the flits strictly before the departure cycle emerge.
        assert_eq!(e.drain_until(RouterCycle(100), &mut out), 2);
        assert_eq!(out.last().unwrap().generated_at, RouterCycle(10));
        // From the cutoff on, the source reads as exhausted — forever.
        assert_eq!(e.peek_next(), None);
        assert_eq!(e.drain_until(RouterCycle(1_000), &mut out), 0);
        assert_eq!(e.total_flits(), None);
        assert_eq!(e.end, RouterCycle(20));
    }
}
