//! Streaming statistics used by the metrics subsystem.
//!
//! Everything here is O(1) per sample and allocation-free after
//! construction, so it can be updated on every simulated flit without
//! perturbing performance.

mod histogram;
mod jitter;
mod running;

pub use histogram::{Bucket, LogHistogram, LogHistogramBank};
pub use jitter::JitterTracker;
pub use running::Running;
