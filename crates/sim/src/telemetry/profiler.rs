//! Per-stage cycle profiler.
//!
//! A [`StageProfiler`] owns a fixed set of named pipeline stages
//! registered at construction time.  Each cycle the model brackets every
//! stage with [`StageProfiler::begin`] / [`StageProfiler::end`],
//! accumulating three things per stage:
//!
//! * **calls** — how many times the stage ran;
//! * **work** — a caller-supplied logical work count (candidates
//!   examined, flits moved, credits returned …), meaningful regardless of
//!   the clock;
//! * **wall_ns** — wall time, measured through the injected [`Clock`];
//!   with the default [`NullClock`] this stays zero and the report is
//!   bit-deterministic.
//!
//! All storage is pre-sized; the begin/end path performs no allocation.

use super::Clock;
use serde::{Deserialize, Serialize};

/// Handle to a registered stage (a dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageId(u32);

impl StageId {
    /// The dense index of this stage.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Accumulated figures for one stage, as reported.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSample {
    /// Stage name as registered.
    pub name: String,
    /// Times the stage executed.
    pub calls: u64,
    /// Logical work units accumulated across calls.
    pub work: u64,
    /// Wall nanoseconds accumulated across calls (zero under
    /// [`super::NullClock`]).
    pub wall_ns: u64,
}

/// Per-stage profiler with an injected clock.
pub struct StageProfiler {
    clock: Box<dyn Clock>,
    names: Vec<&'static str>,
    calls: Vec<u64>,
    work: Vec<u64>,
    wall_ns: Vec<u64>,
}

impl std::fmt::Debug for StageProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageProfiler")
            .field("names", &self.names)
            .finish()
    }
}

impl StageProfiler {
    /// A profiler measuring time through `clock`.
    pub fn new(clock: Box<dyn Clock>) -> Self {
        StageProfiler {
            clock,
            names: Vec::new(),
            calls: Vec::new(),
            work: Vec::new(),
            wall_ns: Vec::new(),
        }
    }

    /// Register a stage.  Allocates — construction time only.
    pub fn stage(&mut self, name: &'static str) -> StageId {
        if let Some(i) = self.names.iter().position(|&n| n == name) {
            return StageId(i as u32);
        }
        self.names.push(name);
        self.calls.push(0);
        self.work.push(0);
        self.wall_ns.push(0);
        StageId((self.names.len() - 1) as u32)
    }

    /// Timestamp marking the start of a stage (zero under a
    /// [`super::NullClock`]).  Pass the value to [`end`].
    ///
    /// [`end`]: StageProfiler::end
    #[inline]
    pub fn begin(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Close a stage opened at `started_ns`, crediting `work` logical
    /// units to it.
    #[inline]
    pub fn end(&mut self, stage: StageId, started_ns: u64, work: u64) {
        let i = stage.0 as usize;
        self.calls[i] += 1;
        self.work[i] += work;
        self.wall_ns[i] += self.clock.now_ns().saturating_sub(started_ns);
    }

    /// Accumulated figures for one stage.
    pub fn calls(&self, stage: StageId) -> u64 {
        self.calls[stage.0 as usize]
    }

    /// Accumulated logical work for one stage.
    pub fn work(&self, stage: StageId) -> u64 {
        self.work[stage.0 as usize]
    }

    /// Accumulated wall nanoseconds for one stage.
    pub fn wall_ns(&self, stage: StageId) -> u64 {
        self.wall_ns[stage.0 as usize]
    }

    /// Zero every stage's figures.
    pub fn reset(&mut self) {
        self.calls.fill(0);
        self.work.fill(0);
        self.wall_ns.fill(0);
    }

    /// Iterate `(name, calls, work, wall_ns)` tuples in registration
    /// order without allocating — the exposition writer's path.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64, u64, u64)> + Clone + '_ {
        (0..self.names.len())
            .map(move |i| (self.names[i], self.calls[i], self.work[i], self.wall_ns[i]))
    }

    /// Snapshot every stage as owned, serializable samples in
    /// registration order.  Allocates — report-time only.
    pub fn samples(&self) -> Vec<StageSample> {
        let mut out = Vec::new();
        self.write_into(&mut out);
        out
    }

    /// Refill `out` with the current samples, reusing its capacity.
    pub fn write_into(&self, out: &mut Vec<StageSample>) {
        out.clear();
        out.extend(self.iter().map(|(name, calls, work, wall_ns)| StageSample {
            name: name.to_string(),
            calls,
            work,
            wall_ns,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::super::{MonotonicClock, NullClock};
    use super::*;

    #[test]
    fn records_calls_and_work() {
        let mut p = StageProfiler::new(Box::new(NullClock));
        let a = p.stage("arbitration");
        let b = p.stage("crossbar");
        for _ in 0..3 {
            let t = p.begin();
            p.end(a, t, 4);
        }
        let t = p.begin();
        p.end(b, t, 1);
        assert_eq!(p.calls(a), 3);
        assert_eq!(p.work(a), 12);
        assert_eq!(p.calls(b), 1);
        // NullClock: wall time is deterministic zero.
        assert_eq!(p.wall_ns(a), 0);
        let s = p.samples();
        assert_eq!(s[0].name, "arbitration");
        assert_eq!(s[0].work, 12);
    }

    #[test]
    fn monotonic_clock_accumulates_time() {
        let mut p = StageProfiler::new(Box::new(MonotonicClock::new()));
        let a = p.stage("spin");
        let t = p.begin();
        // A small spin so elapsed time is measurable at ns resolution.
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        p.end(a, t, 1);
        assert!(p.wall_ns(a) > 0, "monotonic clock must measure the spin");
    }

    #[test]
    fn stage_registration_interns() {
        let mut p = StageProfiler::new(Box::new(NullClock));
        let a = p.stage("s");
        let b = p.stage("s");
        assert_eq!(a, b);
    }

    #[test]
    fn reset_zeroes() {
        let mut p = StageProfiler::new(Box::new(NullClock));
        let a = p.stage("s");
        let t = p.begin();
        p.end(a, t, 5);
        p.reset();
        assert_eq!(p.calls(a), 0);
        assert_eq!(p.work(a), 0);
    }
}
