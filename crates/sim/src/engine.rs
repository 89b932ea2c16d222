//! Cycle-driven simulation engine.
//!
//! The MMR pipeline advances in lock-step once per flit cycle, so a simple
//! step loop is the right engine shape (no event queue needed).  The engine
//! adds the two pieces every experiment needs: warm-up (statistics are
//! discarded until the system reaches steady state) and stop conditions.

use crate::time::FlitCycle;

/// A model that can be stepped one flit cycle at a time.
pub trait CycleModel {
    /// Advance the model by one flit cycle.  `now` is the cycle being
    /// executed (starting at 0) and `measuring` is false during warm-up —
    /// models should skip statistics updates while it is false.
    fn step(&mut self, now: FlitCycle, measuring: bool);

    /// Called once when measurement starts (end of warm-up), letting the
    /// model reset any counters that accumulated during warm-up.
    fn on_measurement_start(&mut self, _now: FlitCycle) {}

    /// Optional early-exit hook checked after each step; return true when
    /// the model has delivered everything it wants to measure.
    fn is_done(&self, _now: FlitCycle) -> bool {
        false
    }
}

/// When to stop a run (in addition to the model's own `is_done`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// Stop after exactly this many flit cycles.
    Cycles(u64),
    /// Run until the model reports done, but never past this bound.
    ModelDoneOrCycles(u64),
}

/// Outcome of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Number of flit cycles the model was stepped through.
    pub executed: u64,
    /// Cycles that counted toward measurement (post-warm-up).
    pub measured: u64,
    /// Always zero: every cycle is stepped.  Kept only because
    /// `benchmark/src/sut.rs` reads it; it goes when the benchmark stops
    /// naming the engine (ROADMAP item 1).
    pub skipped: u64,
    /// True if the run ended because the model reported done (as opposed
    /// to exhausting the cycle budget).
    pub model_finished: bool,
}

/// Drives a [`CycleModel`] with warm-up handling.
#[derive(Debug, Clone)]
pub struct Runner {
    warmup: u64,
    stop: StopCondition,
}

impl Runner {
    /// A runner with `warmup` warm-up flit cycles and the given stop
    /// condition.
    pub fn new(warmup: u64, stop: StopCondition) -> Self {
        Runner { warmup, stop }
    }

    /// Run the model to completion.
    pub fn run<M: CycleModel>(&self, model: &mut M) -> RunOutcome {
        let bound = match self.stop {
            StopCondition::Cycles(n) | StopCondition::ModelDoneOrCycles(n) => n,
        };
        let check_done = matches!(self.stop, StopCondition::ModelDoneOrCycles(_));
        let mut measured = 0;
        let mut executed = 0;
        let mut model_finished = false;
        for t in 0..bound {
            let now = FlitCycle(t);
            let measuring = t >= self.warmup;
            if t == self.warmup {
                model.on_measurement_start(now);
            }
            model.step(now, measuring);
            executed += 1;
            if measuring {
                measured += 1;
            }
            if check_done && model.is_done(now) {
                model_finished = true;
                break;
            }
        }
        RunOutcome {
            executed,
            measured,
            skipped: 0,
            model_finished,
        }
    }

    /// [`Runner::run`] under its old name.  Kept only because
    /// `benchmark/src/sut.rs` calls it; it goes when the benchmark stops
    /// naming the engine (ROADMAP item 1).
    pub fn run_horizon<M: CycleModel>(&self, model: &mut M) -> RunOutcome {
        self.run(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        steps: u64,
        measured_steps: u64,
        reset_at: Option<u64>,
        done_after: Option<u64>,
    }

    impl CycleModel for Counter {
        fn step(&mut self, _now: FlitCycle, measuring: bool) {
            self.steps += 1;
            if measuring {
                self.measured_steps += 1;
            }
        }
        fn on_measurement_start(&mut self, now: FlitCycle) {
            self.reset_at = Some(now.0);
        }
        fn is_done(&self, now: FlitCycle) -> bool {
            self.done_after.is_some_and(|d| now.0 >= d)
        }
    }

    fn counter(done_after: Option<u64>) -> Counter {
        Counter {
            steps: 0,
            measured_steps: 0,
            reset_at: None,
            done_after,
        }
    }

    #[test]
    fn fixed_cycles_run_exactly() {
        let mut m = counter(None);
        let out = Runner::new(10, StopCondition::Cycles(100)).run(&mut m);
        assert_eq!(out.executed, 100);
        assert_eq!(out.measured, 90);
        assert_eq!(m.steps, 100);
        assert_eq!(m.measured_steps, 90);
        assert_eq!(m.reset_at, Some(10));
        assert!(!out.model_finished);
    }

    #[test]
    fn model_done_stops_early() {
        let mut m = counter(Some(42));
        let out = Runner::new(0, StopCondition::ModelDoneOrCycles(1000)).run(&mut m);
        assert_eq!(out.executed, 43); // cycles 0..=42
        assert!(out.model_finished);
    }

    #[test]
    fn model_done_bounded_by_budget() {
        let mut m = counter(Some(10_000));
        let out = Runner::new(0, StopCondition::ModelDoneOrCycles(50)).run(&mut m);
        assert_eq!(out.executed, 50);
        assert!(!out.model_finished);
    }

    #[test]
    fn warmup_longer_than_run_measures_nothing() {
        let mut m = counter(None);
        let out = Runner::new(1000, StopCondition::Cycles(10)).run(&mut m);
        assert_eq!(out.measured, 0);
        assert_eq!(m.reset_at, None);
    }

    #[test]
    fn horizon_with_default_hooks_equals_naive() {
        // The `run_horizon` shim is the one loop: same outcome and model
        // state, early exit included, nothing skipped.
        for done in [None, Some(42), Some(10_000)] {
            let mut a = counter(done);
            let mut b = counter(done);
            let runner = Runner::new(5, StopCondition::ModelDoneOrCycles(1000));
            let naive = runner.run(&mut a);
            let horizon = runner.run_horizon(&mut b);
            assert_eq!(naive, horizon);
            assert_eq!(horizon.skipped, 0);
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.measured_steps, b.measured_steps);
        }
    }
}
