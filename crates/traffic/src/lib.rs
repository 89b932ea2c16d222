//! # mmr-traffic — traffic subsystem for the MMR reproduction
//!
//! Implements everything on the *source side* of Fig. 4 of the paper:
//!
//! * [`flit`] / [`connection`] — the flow-control unit and per-connection
//!   descriptors (QoS spec, reserved slots, input/output ports).
//! * [`cbr`] — constant-bit-rate sources for the paper's three CBR classes
//!   (64 Kbps / 1.54 Mbps / 55 Mbps).
//! * [`mpeg`] — the MPEG-2 video model: GOP structure `IBBPBBPBBPBBPBB`,
//!   per-sequence frame-size statistics, and a synthetic trace generator
//!   (the substitution for the paper's unavailable real traces, see
//!   DESIGN.md §3).
//! * [`injection`] — the Back-to-Back and Smooth-Rate injection models of
//!   Fig. 7.
//! * [`vbr`] — VBR sources that replay a trace through an injection model.
//! * [`besteffort`] — unreserved Poisson message traffic scavenging the
//!   residual bandwidth (the hybrid-switching goal of §1–2).
//! * [`path`] — multi-hop connection paths for the fabric extension:
//!   dimension-order mesh/torus routes, ring routes, and the host-link
//!   endpoint mapping (paper §6).
//! * [`admission`] — connection admission control: slot accounting per
//!   round for CBR, average + peak×concurrency-factor tests for VBR (§2
//!   "Connection Set up").
//! * [`calendar`] — per-connection next-injection caches: the one
//!   injection path, one compare on a cycle with nothing due (DESIGN.md
//!   §12).
//! * [`workload`] — builders that assemble admitted connection mixes hitting
//!   a target offered load, as used by every experiment in §5.

#![warn(missing_docs)]

pub mod admission;
pub mod besteffort;
pub mod calendar;
pub mod cbr;
pub mod connection;
pub mod flit;
pub mod injection;
pub mod mpeg;
pub mod path;
pub mod source;
pub mod vbr;
pub mod workload;

pub use admission::{AdmissionControl, AdmissionError, RoundConfig};
pub use besteffort::BestEffortSource;
pub use calendar::InjectionCalendar;
pub use cbr::CbrSource;
pub use connection::{ConnectionId, ConnectionKind, ConnectionSpec, QosSpec, TrafficClass};
pub use flit::{Flit, FrameRef};
pub use injection::InjectionModel;
pub use mpeg::{FrameType, MpegTrace, SequenceParams, GOP_PATTERN};
pub use source::TrafficSource;
pub use vbr::VbrSource;
pub use workload::{CbrMixBuilder, VbrMixBuilder, Workload};
