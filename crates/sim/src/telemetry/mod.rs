//! Telemetry pieces shared across crates: flight recording and
//! Prometheus exposition.
//!
//! Observability in a cycle-accurate simulator has two hard constraints:
//!
//! 1. **Absent when off.**  The hot path (`FabricNode::step_cycle` over
//!    the `SwitchCore` stages, and the arbitration kernels) is pinned
//!    allocation-free and benchmarked per cycle.  Nothing here has an
//!    "off" mode: a router that is not armed holds none of it, and each
//!    hook costs it one test of an empty `Option`.
//! 2. **Deterministic when on.**  Experiments replay bit-for-bit from a
//!    seed; telemetry must never perturb the RNG streams, and its own
//!    reports must be reproducible unless the user explicitly opts into
//!    wall-clock timing.
//!
//! The pieces here meet both:
//!
//! * [`recorder::FlightRecorder`] — a fixed-capacity ring of binary
//!   [`recorder::TraceEvent`] records with zero steady-state allocation,
//!   dumpable as JSONL.
//! * [`expose`] — the Prometheus text writers and their validator.
//!
//! The router's counters, stage figures and snapshot windows are fixed
//! arrays in `mmr_router::telemetry`, their one user.

pub mod expose;
pub mod recorder;

pub use expose::{validate_exposition, ExpositionStats};
pub use recorder::{FlightRecorder, TraceEvent, TraceKind};
