//! Zero-overhead telemetry substrate: counters, stage profiling, flight
//! recording, windowed snapshots.
//!
//! Observability in a cycle-accurate simulator has two hard constraints:
//!
//! 1. **Absent when off.**  The hot path (`FabricNode::step_cycle` over
//!    the `SwitchCore` stages, and the arbitration kernels) is pinned
//!    allocation-free and benchmarked per cycle.  None of these pieces
//!    has an "off" mode: a router that is not armed holds none of them,
//!    and each hook costs it one test of an empty `Option`.
//! 2. **Deterministic when on.**  Experiments replay bit-for-bit from a
//!    seed; telemetry must never perturb the RNG streams, and its own
//!    reports must be reproducible unless the user explicitly opts into
//!    wall-clock timing.
//!
//! The pieces here meet both:
//!
//! * [`Registry`] — interned static counter names mapped to dense `u64`
//!   slots.  [`Registry::add`] is a single add, no branch.
//! * [`Clock`] — wall-time injection.  Simulation code never calls
//!   `Instant::now` directly; it asks the injected clock, which is the
//!   no-op [`NullClock`] by default so reports stay deterministic.
//!   [`MonotonicClock`] opts into real timing.
//! * [`profiler::StageProfiler`] — per-pipeline-stage call/work/wall-time
//!   accounting built on [`Clock`].
//! * [`recorder::FlightRecorder`] — a fixed-capacity ring of binary
//!   [`recorder::TraceEvent`] records with zero steady-state allocation,
//!   dumpable as JSONL.
//! * [`snapshot::SnapshotRing`] — a pre-allocated buffer for periodic
//!   windowed snapshots, counting (never silently dropping) overflow.

pub mod expose;
pub mod profiler;
pub mod recorder;
pub mod snapshot;

use serde::{Deserialize, Serialize};
use std::time::Instant;

pub use expose::{validate_exposition, ExpositionStats};
pub use profiler::{StageId, StageProfiler, StageSample};
pub use recorder::{FlightRecorder, TraceEvent, TraceKind};
pub use snapshot::SnapshotRing;

/// A source of wall-clock timestamps, injected so simulation determinism
/// is untouched: models measure durations through this trait and the
/// default [`NullClock`] returns a constant, keeping every report
/// bit-reproducible.  Swap in [`MonotonicClock`] to see real timings.
pub trait Clock: Send {
    /// Current timestamp in nanoseconds (monotonic; origin arbitrary).
    fn now_ns(&self) -> u64;
}

/// Real monotonic time via [`std::time::Instant`].
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is the moment of construction.
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// The deterministic default clock: every timestamp is zero, so wall-time
/// fields in reports are exactly reproducible across runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullClock;

impl Clock for NullClock {
    fn now_ns(&self) -> u64 {
        0
    }
}

/// Handle to a registered counter slot (a dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// One named counter value in a report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Counter name as registered.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// A registry of named `u64` counters with pre-registered dense slots.
///
/// Names are `&'static str` and interned at registration: registering the
/// same name twice returns the same [`CounterId`].  The increment path is
/// branch-free: [`Registry::add`] compiles to one add.
#[derive(Debug)]
pub struct Registry {
    names: Vec<&'static str>,
    slots: Vec<u64>,
}

impl Registry {
    /// A registry with no counters yet.
    pub fn new() -> Self {
        Registry {
            names: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Register (or look up) the counter named `name` and return its
    /// slot.  Registration allocates; do it at construction time, never
    /// per cycle.
    pub fn register(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.names.iter().position(|&n| n == name) {
            return CounterId(i as u32);
        }
        self.names.push(name);
        self.slots.push(0);
        CounterId((self.names.len() - 1) as u32)
    }

    /// Add `n` to a counter: one add, no branch.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.slots[id.0 as usize] = self.slots[id.0 as usize].wrapping_add(n);
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Overwrite a counter with a gauge reading.
    #[inline]
    pub fn set_gauge(&mut self, id: CounterId, value: u64) {
        self.slots[id.0 as usize] = value;
    }

    /// Current value of a counter.
    pub fn get(&self, id: CounterId) -> u64 {
        self.slots[id.0 as usize]
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no counters are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Zero every counter.
    pub fn reset(&mut self) {
        self.slots.fill(0);
    }

    /// Iterate `(name, value)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.names.iter().copied().zip(self.slots.iter().copied())
    }

    /// Snapshot every counter as an owned, serializable sample list.
    /// Allocates — report-time only.
    pub fn samples(&self) -> Vec<CounterSample> {
        let mut out = Vec::new();
        self.write_into(&mut out);
        out
    }

    /// Refill `out` with the current samples, reusing its capacity.  The
    /// only allocations are `out`'s one-time growth and the name strings;
    /// scrape loops that want zero allocation should use [`Registry::iter`]
    /// with the exposition writers instead.
    pub fn write_into(&self, out: &mut Vec<CounterSample>) {
        out.clear();
        out.extend(self.iter().map(|(name, value)| CounterSample {
            name: name.to_string(),
            value,
        }));
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_interns_names() {
        let mut r = Registry::new();
        let a = r.register("grants");
        let b = r.register("stalls");
        let a2 = r.register("grants");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn add_and_incr_accumulate() {
        let mut r = Registry::new();
        let id = r.register("x");
        r.add(id, 5);
        r.incr(id);
        assert_eq!(r.get(id), 6);
        assert_eq!(r.samples()[0].value, 6);
        r.reset();
        assert_eq!(r.get(id), 0);
    }

    #[test]
    fn gauge_set_overwrites_only_its_slot() {
        let mut r = Registry::new();
        let g = r.register("g");
        let other = r.register("other");
        r.add(other, 5);
        r.set_gauge(g, 42);
        r.set_gauge(g, 7);
        assert_eq!(r.get(g), 7, "a gauge keeps the latest reading");
        assert_eq!(r.get(other), 5);
    }

    #[test]
    fn clocks_behave() {
        let null = NullClock;
        assert_eq!(null.now_ns(), 0);
        assert_eq!(null.now_ns(), 0);
        let mono = MonotonicClock::new();
        let a = mono.now_ns();
        let b = mono.now_ns();
        assert!(b >= a, "monotonic clock must not go backwards");
    }
}
