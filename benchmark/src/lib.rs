//! One benchmark for the MMR simulator; see `README.md` beside `Cargo.toml`.

pub mod host;
pub mod report;
pub mod spans;
pub mod stats;
pub mod sut;
