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

use crate::check::{within_span, ConfigError};
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

/// Most extra flits a rogue source may inject per flit cycle (its link
/// carries one), which keeps an episode's backlog bounded.
pub const MAX_ROGUE_BURST: u32 = 64;

/// Generation parameters for a randomized [`FaultPlan`].
///
/// Rates are expressed as expected events per 1 000 flit cycles of the
/// fault window, so scaling the window length scales the event count
/// proportionally.  All randomness comes from the caller's [`SimRng`]
/// stream, so a `(config, seed)` pair always yields the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlanConfig {
    /// First flit cycle of the fault window.
    pub window_start: u64,
    /// Window length in flit cycles (events fire in
    /// `[window_start, window_start + window_len)`).
    pub window_len: u64,
    /// Flit corruptions per 1 000 cycles.
    pub corrupt_per_kcycle: f64,
    /// Flit drops per 1 000 cycles.
    pub drop_per_kcycle: f64,
    /// Credit losses per 1 000 cycles.
    pub credit_loss_per_kcycle: f64,
    /// Credit duplications per 1 000 cycles.
    pub credit_dup_per_kcycle: f64,
    /// Output stalls per 1 000 cycles.
    pub stall_per_kcycle: f64,
    /// Duration of each output stall, flit cycles.
    pub stall_len: u64,
    /// Rogue-source episodes per 1 000 cycles.
    pub rogue_per_kcycle: f64,
    /// Duration of each rogue episode, flit cycles.
    pub rogue_len: u64,
    /// Extra flits a rogue source injects per flit cycle.
    pub rogue_burst: u32,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            window_start: 5_000,
            window_len: 10_000,
            corrupt_per_kcycle: 2.0,
            drop_per_kcycle: 1.0,
            credit_loss_per_kcycle: 1.0,
            credit_dup_per_kcycle: 1.0,
            stall_per_kcycle: 0.3,
            stall_len: 32,
            rogue_per_kcycle: 0.1,
            rogue_len: 1_000,
            rogue_burst: 1,
        }
    }
}

impl FaultPlanConfig {
    /// A copy with every event rate multiplied by `factor` (durations and
    /// the window are unchanged) — the x-axis of fault-rate sweeps.
    pub fn scaled(&self, factor: f64) -> Self {
        FaultPlanConfig {
            corrupt_per_kcycle: self.corrupt_per_kcycle * factor,
            drop_per_kcycle: self.drop_per_kcycle * factor,
            credit_loss_per_kcycle: self.credit_loss_per_kcycle * factor,
            credit_dup_per_kcycle: self.credit_dup_per_kcycle * factor,
            stall_per_kcycle: self.stall_per_kcycle * factor,
            rogue_per_kcycle: self.rogue_per_kcycle * factor,
            ..*self
        }
    }

    /// Check the plan generates a bounded schedule: non-negative rates,
    /// bounded episodes, a non-empty window, at most one event per cycle.
    pub fn check(&self) -> Result<(), ConfigError> {
        for (rate, field) in [
            (self.corrupt_per_kcycle, "corrupt_per_kcycle"),
            (self.drop_per_kcycle, "drop_per_kcycle"),
            (self.credit_loss_per_kcycle, "credit_loss_per_kcycle"),
            (self.credit_dup_per_kcycle, "credit_dup_per_kcycle"),
            (self.stall_per_kcycle, "stall_per_kcycle"),
            (self.rogue_per_kcycle, "rogue_per_kcycle"),
        ] {
            ensure!(rate.is_finite() && rate >= 0.0; field,
                "rate {rate} must be finite and non-negative");
        }
        within_span(self.stall_len, "stall_len")?;
        within_span(self.rogue_len, "rogue_len")?;
        ensure!(self.rogue_burst <= MAX_ROGUE_BURST; "rogue_burst",
            "at most {MAX_ROGUE_BURST} extra flits per cycle");
        let len = self.window_len;
        ensure!(len > 0; "window_len", "the fault window must be positive");
        ensure!(self.window_start.checked_add(len).is_some(); "window_len",
            "window_start + window_len overflows");
        let events = self.expected_events();
        ensure!(events <= len as f64; "window_len",
            "{events:.0} expected events in a {len}-cycle window; at most one per cycle");
        Ok(())
    }

    /// Expected event count over the window, every kind together.
    pub fn expected_events(&self) -> f64 {
        let per_kcycle = self.corrupt_per_kcycle
            + self.drop_per_kcycle
            + self.credit_loss_per_kcycle
            + self.credit_dup_per_kcycle
            + self.stall_per_kcycle
            + self.rogue_per_kcycle;
        per_kcycle * self.window_len as f64 / 1_000.0
    }

    /// Expected event count for one rate over the window.
    fn count(&self, per_kcycle: f64) -> usize {
        (per_kcycle * self.window_len as f64 / 1_000.0).round() as usize
    }

    /// Generate a plan for a router with `ports` ports and `conns`
    /// connections.  Every random draw comes from `rng`, so the plan is a
    /// pure function of `(self, ports, conns, rng state)`.
    pub fn generate(&self, ports: usize, conns: usize, rng: &mut SimRng) -> FaultPlan {
        let mut events = Vec::new();
        if self.window_len == 0 {
            return FaultPlan::empty();
        }
        let at = |rng: &mut SimRng| self.window_start + rng.below(self.window_len);
        if ports > 0 {
            for _ in 0..self.count(self.corrupt_per_kcycle) {
                let cycle = at(rng);
                let input = rng.index(ports);
                events.push(FaultEvent {
                    at: cycle,
                    kind: FaultKind::CorruptFlit { input },
                });
            }
            for _ in 0..self.count(self.drop_per_kcycle) {
                let cycle = at(rng);
                let input = rng.index(ports);
                events.push(FaultEvent {
                    at: cycle,
                    kind: FaultKind::DropFlit { input },
                });
            }
            for _ in 0..self.count(self.stall_per_kcycle) {
                let cycle = at(rng);
                let output = rng.index(ports);
                events.push(FaultEvent {
                    at: cycle,
                    kind: FaultKind::StallOutput {
                        output,
                        flit_cycles: self.stall_len,
                    },
                });
            }
        }
        if conns > 0 {
            for _ in 0..self.count(self.credit_loss_per_kcycle) {
                let cycle = at(rng);
                let conn = rng.index(conns);
                events.push(FaultEvent {
                    at: cycle,
                    kind: FaultKind::DropCredit { conn },
                });
            }
            for _ in 0..self.count(self.credit_dup_per_kcycle) {
                let cycle = at(rng);
                let conn = rng.index(conns);
                events.push(FaultEvent {
                    at: cycle,
                    kind: FaultKind::DuplicateCredit { conn },
                });
            }
            for _ in 0..self.count(self.rogue_per_kcycle) {
                let cycle = at(rng);
                let conn = rng.index(conns);
                events.push(FaultEvent {
                    at: cycle,
                    kind: FaultKind::RogueSource {
                        conn,
                        flit_cycles: self.rogue_len,
                        extra_flits_per_cycle: self.rogue_burst,
                    },
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
        let cfg = FaultPlanConfig::default();
        let base = cfg.generate(4, 40, &mut SimRng::seed_from_u64(1));
        let double = cfg
            .scaled(2.0)
            .generate(4, 40, &mut SimRng::seed_from_u64(1));
        assert_eq!(double.len(), base.len() * 2);
        let zero = cfg
            .scaled(0.0)
            .generate(4, 40, &mut SimRng::seed_from_u64(1));
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
