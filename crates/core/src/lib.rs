//! # mmr-core — the public API of the MMR reproduction
//!
//! This crate ties the substrates together into the experiment layer used
//! by every example, test, and benchmark:
//!
//! * [`config`] — a serializable description of one simulation: router
//!   geometry, workload, switch scheduler, priority function, durations.
//! * [`experiment`] — build-and-run: constructs the workload, instantiates
//!   the router, drives it with warm-up, and returns a
//!   [`experiment::ExperimentResult`].
//! * [`sweep`](mod@sweep) — load sweeps across arbiters and seeds, parallelized
//!   with scoped threads (each point is an independent deterministic simulation).
//! * [`saturation`] — saturation-point detection over sweep results.
//! * [`conformance`] — typed, machine-checkable paper claims evaluated
//!   over multi-seed ensembles (the reproduction's regression gate).
//! * [`workload_lang`] — the workload packs under `workloads/`: the one
//!   way to say what an experiment runs and claims, every paper figure
//!   included.
//! * [`report`] — text tables and CSV rendering of sweep results.
//!
//! ## Quickstart
//!
//! ```
//! use mmr_core::config::{RunLength, SimConfig, WorkloadSpec};
//! use mmr_core::experiment::run_experiment;
//! use mmr_arbiter::scheduler::ArbiterKind;
//!
//! let cfg = SimConfig {
//!     workload: WorkloadSpec::cbr(0.5),
//!     arbiter: ArbiterKind::Coa,
//!     run: RunLength::Cycles(5_000),
//!     warmup_cycles: 500,
//!     ..SimConfig::default()
//! };
//! let result = run_experiment(&cfg);
//! assert!(result.summary.delivered_flits > 0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod conformance;
pub mod experiment;
pub mod report;
pub mod saturation;
pub mod sweep;
pub mod workload_lang;

pub use config::{RunLength, SimConfig, WorkloadSpec};
pub use experiment::{run_experiment, ExperimentResult};
pub use saturation::{detect_saturation, SaturationCriteria};
pub use sweep::{sweep, SweepPoint, SweepSpec};

// Re-export the component crates so downstream users need one dependency.
pub use mmr_arbiter as arbiter;
pub use mmr_router as router;
pub use mmr_sim as sim;
pub use mmr_traffic as traffic;
