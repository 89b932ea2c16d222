//! Deterministic fault injection: seeded, cycle-stamped fault schedules.
//!
//! A [`FaultPlan`] is an immutable, sorted list of [`FaultEvent`]s, each
//! naming the flit cycle at which it fires and what breaks.  Plans are
//! either written out explicitly (tests aiming faults at specific
//! connections) or generated from a [`FaultPlanConfig`] and a [`SimRng`]
//! stream, so a chaos run replays bit-for-bit from its seed: same seed,
//! same schedule, same simulation.
//!
//! The plan deliberately knows nothing about the router; targets are
//! plain indices (input port, output port, connection) that the consumer
//! interprets.  Consumption state (the cursor) lives with the consumer,
//! keeping the plan itself serializable and shareable.

use crate::check::ConfigError;
use crate::ensure;
use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// What breaks when a fault event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The next flit forwarded on `input`'s link arrives with flipped
    /// bits; the router-ingress checksum check must catch it.
    CorruptFlit {
        /// Input port whose link corrupts the next flit.
        input: usize,
    },
    /// The next flit forwarded on `input`'s link vanishes entirely —
    /// together with the credit the NIC spent on it.
    DropFlit {
        /// Input port whose link loses the next flit.
        input: usize,
    },
    /// One credit return for `conn` is lost on the return path.
    DropCredit {
        /// Connection whose next credit return is lost.
        conn: usize,
    },
    /// One spurious extra credit return for `conn` appears.
    DuplicateCredit {
        /// Connection that receives a phantom credit.
        conn: usize,
    },
    /// Output port `output` stops accepting flits for `flit_cycles`.
    StallOutput {
        /// Stalled output port.
        output: usize,
        /// Stall duration in flit cycles.
        flit_cycles: u64,
    },
    /// Connection `conn`'s source violates its admitted contract,
    /// injecting `extra_flits_per_cycle` flits beyond its admitted rate
    /// every flit cycle for `flit_cycles`.
    RogueSource {
        /// Misbehaving connection.
        conn: usize,
        /// Duration of the violation in flit cycles.
        flit_cycles: u64,
        /// Extra flits injected per flit cycle.
        extra_flits_per_cycle: u32,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Flit cycle (from run start) at which the fault fires.
    pub at: u64,
    /// What breaks.
    pub kind: FaultKind,
}

/// An immutable, cycle-sorted schedule of faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn empty() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// A plan from explicit events; sorts them by cycle (stable, so
    /// same-cycle events keep their given order).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// The schedule, sorted by firing cycle.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Duration of each output stall, flit cycles.
const STALL_LEN: u64 = 32;

/// Duration of each rogue-source episode, flit cycles.
const ROGUE_LEN: u64 = 1_000;

/// Extra flits a rogue source injects per flit cycle.
const ROGUE_BURST: u32 = 1;

/// One fault kind of a generated plan: its events per 1 000 flit cycles
/// at rate factor 1, whether it targets a port (else a connection), and
/// the event for a drawn target.
type KindRate = (f64, bool, fn(usize) -> FaultKind);

/// The generated kinds in generation order (the order of the RNG draws).
const KIND_RATES: [KindRate; 6] = [
    (2.0, true, |input| FaultKind::CorruptFlit { input }),
    (1.0, true, |input| FaultKind::DropFlit { input }),
    (0.3, true, |output| FaultKind::StallOutput {
        output,
        flit_cycles: STALL_LEN,
    }),
    (1.0, false, |conn| FaultKind::DropCredit { conn }),
    (1.0, false, |conn| FaultKind::DuplicateCredit { conn }),
    (0.1, false, |conn| FaultKind::RogueSource {
        conn,
        flit_cycles: ROGUE_LEN,
        extra_flits_per_cycle: ROGUE_BURST,
    }),
];

/// Generation parameters for a randomized [`FaultPlan`]: a window and a
/// rate factor over the fixed per-kind rates.
///
/// Rates are expected events per 1 000 flit cycles of the window, so
/// scaling the window length scales the event count proportionally.  All
/// randomness comes from the caller's [`SimRng`] stream, so a
/// `(config, seed)` pair always yields the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlanConfig {
    /// First flit cycle of the fault window.
    pub window_start: u64,
    /// Window length in flit cycles (events fire in
    /// `[window_start, window_start + window_len)`).
    pub window_len: u64,
    /// Multiplier over every kind's rate (0 = no faults) — the x-axis of
    /// fault-rate sweeps.
    pub factor: f64,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            window_start: 5_000,
            window_len: 10_000,
            factor: 1.0,
        }
    }
}

impl FaultPlanConfig {
    /// Check the plan generates a bounded schedule: a finite,
    /// non-negative factor, a non-empty window, at most one event per
    /// cycle.
    pub fn check(&self) -> Result<(), ConfigError> {
        let factor = self.factor;
        ensure!(factor.is_finite() && factor >= 0.0; "factor",
            "rate factor {factor} must be finite and non-negative");
        let len = self.window_len;
        ensure!(len > 0; "window_len", "the fault window must be positive");
        ensure!(self.window_start.checked_add(len).is_some(); "window_len",
            "window_start + window_len overflows");
        let events: f64 = KIND_RATES.iter().map(|&(rate, ..)| self.count(rate)).sum();
        ensure!(events <= len as f64; "window_len",
            "{events:.0} expected events in a {len}-cycle window; at most one per cycle");
        Ok(())
    }

    /// Expected events over the window of a kind with rate `per_kcycle`.
    fn count(&self, per_kcycle: f64) -> f64 {
        per_kcycle * self.factor * self.window_len as f64 / 1_000.0
    }

    /// Generate a plan for a router with `ports` ports and `conns`
    /// connections.  Every random draw comes from `rng`, so the plan is a
    /// pure function of `(self, ports, conns, rng state)`.
    pub fn generate(&self, ports: usize, conns: usize, rng: &mut SimRng) -> FaultPlan {
        if self.window_len == 0 {
            return FaultPlan::empty();
        }
        let mut events = Vec::new();
        for (rate, on_port, kind) in KIND_RATES {
            let targets = if on_port { ports } else { conns };
            if targets == 0 {
                continue;
            }
            for _ in 0..self.count(rate).round() as usize {
                let at = self.window_start + rng.below(self.window_len);
                events.push(FaultEvent {
                    at,
                    kind: kind(rng.index(targets)),
                });
            }
        }
        FaultPlan::from_events(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_has_no_events() {
        let p = FaultPlan::empty();
        assert!(p.is_empty());
    }

    #[test]
    fn from_events_sorts_by_cycle() {
        let p = FaultPlan::from_events(vec![
            FaultEvent {
                at: 30,
                kind: FaultKind::DropCredit { conn: 1 },
            },
            FaultEvent {
                at: 10,
                kind: FaultKind::CorruptFlit { input: 0 },
            },
            FaultEvent {
                at: 20,
                kind: FaultKind::DuplicateCredit { conn: 2 },
            },
        ]);
        let cycles: Vec<u64> = p.events().iter().map(|e| e.at).collect();
        assert_eq!(cycles, vec![10, 20, 30]);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FaultPlanConfig::default();
        let a = cfg.generate(4, 40, &mut SimRng::seed_from_u64(7));
        let b = cfg.generate(4, 40, &mut SimRng::seed_from_u64(7));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = cfg.generate(4, 40, &mut SimRng::seed_from_u64(8));
        assert_ne!(a, c, "distinct seeds must give distinct plans");
    }

    #[test]
    fn events_land_inside_the_window() {
        let cfg = FaultPlanConfig {
            window_start: 1_000,
            window_len: 500,
            ..Default::default()
        };
        let p = cfg.generate(8, 16, &mut SimRng::seed_from_u64(3));
        for e in p.events() {
            assert!(
                (1_000..1_500).contains(&e.at),
                "event at {} out of window",
                e.at
            );
        }
    }

    #[test]
    fn scaling_rates_scales_event_count() {
        let at = |factor| FaultPlanConfig {
            factor,
            ..Default::default()
        };
        let base = at(1.0).generate(4, 40, &mut SimRng::seed_from_u64(1));
        let double = at(2.0).generate(4, 40, &mut SimRng::seed_from_u64(1));
        assert_eq!(double.len(), base.len() * 2);
        let zero = at(0.0).generate(4, 40, &mut SimRng::seed_from_u64(1));
        assert!(zero.is_empty());
    }

    #[test]
    fn zero_window_or_targets_is_safe() {
        let cfg = FaultPlanConfig {
            window_len: 0,
            ..Default::default()
        };
        assert!(cfg.generate(4, 4, &mut SimRng::seed_from_u64(0)).is_empty());
        let cfg = FaultPlanConfig::default();
        let p = cfg.generate(0, 0, &mut SimRng::seed_from_u64(0));
        assert!(p.is_empty());
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let cfg = FaultPlanConfig::default();
        let p = cfg.generate(4, 12, &mut SimRng::seed_from_u64(11));
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
