//! # mmr-sim — simulation substrate for the Multimedia Router reproduction
//!
//! This crate provides the foundations every other crate in the workspace
//! builds on:
//!
//! * [`time`] — the MMR's two-level time model (router/phit cycles grouped
//!   into flit cycles) plus conversions to wall-clock units derived from the
//!   link rate.
//! * [`rng`] — a small, fully deterministic `xoshiro256**` generator with
//!   stream splitting, so every experiment is reproducible from a single
//!   seed without depending on platform RNG state.
//! * [`stats`] — streaming statistics (Welford mean/variance, min/max,
//!   log-bucket histograms with percentile queries, inter-sample jitter).
//! * [`engine`] — a tiny cycle-driven engine: a [`engine::CycleModel`] is
//!   stepped one flit cycle at a time with warm-up handling and stop
//!   conditions.
//! * [`telemetry`] — the zero-overhead observability substrate: a masked
//!   counter [`telemetry::Registry`], a [`telemetry::Clock`]-injected
//!   per-stage profiler, the binary [`telemetry::FlightRecorder`], and
//!   pre-allocated snapshot buffers.
//! * [`fault`] — deterministic fault schedules ([`fault::FaultPlan`]):
//!   seeded, cycle-stamped fault events for chaos experiments that replay
//!   bit-for-bit.
//!
//! The simulator is deliberately single-threaded and allocation-light: the
//! experiment layer above it (in `mmr-core`) parallelizes across independent
//! simulation *instances* instead, which keeps each instance deterministic.

#![warn(missing_docs)]

pub mod engine;
pub mod fault;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod units;

pub use engine::{CycleModel, RunOutcome, Runner, StopCondition};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanConfig};
pub use rng::SimRng;
pub use time::{FlitCycle, RouterCycle, TimeBase};
pub use units::{Bandwidth, DataSize};
