//! The arbitration flight recorder.
//!
//! A [`FlightRecorder`] keeps the last `capacity` [`TraceEvent`]s in a
//! pre-allocated ring: recording is a bounds-checked store plus two index
//! updates, with **zero steady-state allocation** — the ring is sized once
//! at construction.  Events are compact `Copy` records (a kind tag plus
//! three kind-specific `u32` payload fields), cheap enough to emit from
//! the router's hot path every cycle.
//!
//! Dumping renders the retained window as JSONL — one serde-serialized
//! event per line ([`to_jsonl`]).

use serde::{Deserialize, Serialize};

/// What happened (the tag of a [`TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// The switch scheduler granted `a` = input, `b` = output, `c` = VC.
    GrantIssued,
    /// Input `a`'s best candidate (VC `c`, wanting output `b`) received
    /// no grant this cycle.
    VcStalled,
    /// Connection `a` spent a credit forwarding a flit onto its link.
    CreditConsumed,
    /// A fault was detected; `a` encodes the detector (0 = ingress
    /// checksum, 1 = phantom-credit guard, 2 = credit watchdog resync).
    FaultDetected,
    /// Connection `a` was quarantined for violating its traffic contract.
    ConnectionQuarantined,
}

/// One fixed-size binary trace record.
///
/// The payload fields `a`/`b`/`c` are interpreted per [`TraceKind`]; the
/// named constructors document the packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Flit cycle the event occurred in.
    pub cycle: u64,
    /// Event tag.
    pub kind: TraceKind,
    /// First payload field (see [`TraceKind`]).
    pub a: u32,
    /// Second payload field.
    pub b: u32,
    /// Third payload field.
    pub c: u32,
}

impl TraceEvent {
    /// A grant: `input` → `output` on virtual channel `vc`.
    pub fn grant(cycle: u64, input: usize, output: usize, vc: usize) -> Self {
        TraceEvent {
            cycle,
            kind: TraceKind::GrantIssued,
            a: input as u32,
            b: output as u32,
            c: vc as u32,
        }
    }

    /// A stalled candidate: `input`'s head VC `vc` wanted `output` but
    /// got no grant.
    pub fn vc_stalled(cycle: u64, input: usize, output: usize, vc: usize) -> Self {
        TraceEvent {
            cycle,
            kind: TraceKind::VcStalled,
            a: input as u32,
            b: output as u32,
            c: vc as u32,
        }
    }

    /// Connection `conn` consumed a credit.
    pub fn credit_consumed(cycle: u64, conn: usize) -> Self {
        TraceEvent {
            cycle,
            kind: TraceKind::CreditConsumed,
            a: conn as u32,
            b: 0,
            c: 0,
        }
    }

    /// A detected fault; `detector` encodes which defense caught it.
    pub fn fault_detected(cycle: u64, detector: u32) -> Self {
        TraceEvent {
            cycle,
            kind: TraceKind::FaultDetected,
            a: detector,
            b: 0,
            c: 0,
        }
    }

    /// Connection `conn` quarantined.
    pub fn quarantined(cycle: u64, conn: usize) -> Self {
        TraceEvent {
            cycle,
            kind: TraceKind::ConnectionQuarantined,
            a: conn as u32,
            b: 0,
            c: 0,
        }
    }
}

/// Fixed-capacity ring of [`TraceEvent`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Vec<TraceEvent>,
    capacity: usize,
    /// Next slot to overwrite once the ring is full.
    next: usize,
    /// Total events ever recorded (including overwritten ones).
    recorded: u64,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` events (at least
    /// one).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            recorded: 0,
        }
    }

    /// Record an event.  O(1); never allocates (the ring was sized at
    /// construction).
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.next] = ev;
            self.next = (self.next + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    /// Events retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let (wrapped, head) = self.ring.split_at(self.next.min(self.ring.len()));
        head.iter().chain(wrapped.iter()).copied()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded, including those overwritten.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Parse a JSONL dump back into events (the inverse of
    /// [`to_jsonl`]).
    pub fn parse_jsonl(dump: &str) -> Result<Vec<TraceEvent>, serde::Error> {
        dump.lines()
            .filter(|l| !l.trim().is_empty())
            .map(serde_json::from_str)
            .collect()
    }
}

/// Render `events` as JSONL, one event per line, oldest first — the
/// format [`FlightRecorder::parse_jsonl`] reads.  Allocates — dump-time
/// only.
pub fn to_jsonl(events: impl IntoIterator<Item = TraceEvent>) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&serde_json::to_string(&ev).expect("trace events serialize"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FlightRecorder {
        /// Events lost to overwriting.
        fn dropped(&self) -> u64 {
            self.recorded - self.ring.len() as u64
        }

        /// Forget all retained events (the ring stays allocated).
        fn clear(&mut self) {
            self.ring.clear();
            self.next = 0;
            self.recorded = 0;
        }
    }

    #[test]
    fn retains_in_order_under_capacity() {
        let mut r = FlightRecorder::new(8);
        for c in 0..5u64 {
            r.record(TraceEvent::grant(c, 1, 2, 0));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        let cycles: Vec<u64> = r.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wraps_at_capacity_keeping_newest() {
        let mut r = FlightRecorder::new(4);
        for c in 0..10u64 {
            r.record(TraceEvent::credit_consumed(c, 3));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 6);
        let cycles: Vec<u64> = r.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9], "oldest-first after wrap");
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut r = FlightRecorder::new(8);
        r.record(TraceEvent::grant(5, 1, 3, 2));
        r.record(TraceEvent::vc_stalled(6, 0, 3, 1));
        r.record(TraceEvent::fault_detected(7, 1));
        r.record(TraceEvent::quarantined(8, 12));
        let dump = to_jsonl(r.events());
        assert_eq!(dump.lines().count(), 4);
        let back = FlightRecorder::parse_jsonl(&dump).unwrap();
        let orig: Vec<TraceEvent> = r.events().collect();
        assert_eq!(back, orig, "JSONL must round-trip bit-exactly");
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut r = FlightRecorder::new(2);
        r.record(TraceEvent::grant(0, 0, 0, 0));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 2);
        r.record(TraceEvent::grant(1, 0, 0, 0));
        assert_eq!(r.len(), 1);
    }
}
