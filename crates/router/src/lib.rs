//! # mmr-router — the Multimedia Router model
//!
//! A cycle-accurate model of the single-router configuration the paper
//! evaluates (Fig. 4): traffic sources feed per-connection **NIC** queues
//! (infinite — host memory backs them); a demand-driven round-robin link
//! controller forwards flits over the input link, gated by **credit-based
//! flow control**, into small per-connection **virtual-channel buffers**
//! inside the router; every flit cycle the **link scheduler** offers the
//! k highest-priority head flits per input to the **switch scheduler**,
//! and matched flits cross the multiplexed **crossbar** to their output
//! links synchronously.
//!
//! Module map:
//!
//! * [`config`] — router geometry and timing knobs.
//! * [`vcmem`] — the virtual-channel memory (bounded per-VC FIFOs with an
//!   interleaved-RAM-bank occupancy model, Fig. 2).
//! * [`credit`] — NIC-side credit counters.
//! * [`fault`] — deterministic fault injection (corruption, loss, stalls,
//!   rogue sources) and the matching recovery machinery: ingress
//!   checksums, a credit watchdog, and contract-policing quarantine.
//! * [`nic`] — per-connection infinite queues + demand-driven round-robin
//!   link controller.
//! * [`link_scheduler`] — candidate selection with pluggable priority
//!   biasing (SIABP et al.).
//! * [`crossbar`] — crossbar traversal and utilization accounting.
//! * [`output`] — output-link sinks and per-port delivery counters.
//! * [`metrics`] — per-class flit delay, frame delay/jitter, throughput.
//! * [`telemetry`] — opt-in observability: counters, per-stage cycle
//!   profiling, an arbitration flight recorder, and windowed per-class
//!   snapshots, all absent when disarmed and deterministic when armed.
//! * [`pipeline`] — [`pipeline::SwitchCore`], the one switch pipeline
//!   (sources → NICs → VC memory → link and switch schedulers →
//!   crossbar), a method per stage; both models below are adapters
//!   over it.
//! * [`router`] — [`router::MmrRouter`], the single-router
//!   [`mmr_sim::CycleModel`]: the pipeline plus output sinks, metrics,
//!   faults and telemetry.
//! * [`fabric`] — the sharded multi-router fabric (paper §6 future
//!   work): line/ring/mesh/torus topologies of MMRs with dimension-order
//!   routing, epoch-batched boundary exchange, and deterministic
//!   multi-worker execution; each node is the pipeline plus its links.
//! * `holfifo` — test-only: the rejected single-FIFO-per-input design,
//!   whose tests reproduce Karol et al.'s 58.6 % HOL-blocking limit that
//!   motivates the MMR's per-connection virtual channels.

#![warn(missing_docs)]

pub mod config;
pub mod credit;
pub mod crossbar;
pub mod fabric;
pub mod fault;
mod holfifo;
pub mod link_scheduler;
pub mod metrics;
pub mod nic;
pub mod observatory;
pub mod output;
pub mod pipeline;
pub mod router;
pub mod tdm;
pub mod telemetry;
pub mod vcmem;

pub use config::RouterConfig;
pub use fault::{FaultProfile, FaultReport};
pub use metrics::{ClassStats, MetricsCollector, MetricsReport};
pub use observatory::{Observatory, ObservatoryReport, SloSummary};
pub use router::MmrRouter;
pub use telemetry::{RouterTelemetry, TelemetryConfig, TelemetryReport};
