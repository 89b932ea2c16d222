//! The typed error every configuration check returns, naming the field
//! by its path: each enclosing check prefixes its section
//! ([`ConfigError::within`]), so `flit_bits` reads `router.time.flit_bits`.

use std::fmt;

/// Longest span, in flit cycles, a config may name: a run, a latency, a
/// window, a round, a source's spacing.  2^32 flit cycles are about an
/// hour of simulated time on the paper's link, and with at most 2^16
/// router cycles per flit every cycle stamp and sum stays in a `u64`.
pub const MAX_SPAN: u64 = 1 << 32;

/// A configuration value the simulator cannot run, naming its field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Dotted path of the offending field, e.g. `router.time.flit_bits`
    /// or `workload.groups[0].rate_bps`.
    pub field: String,
    /// Why the value cannot run.
    pub reason: String,
}

impl ConfigError {
    /// An error on `field`.
    pub fn new(field: impl Into<String>, reason: impl Into<String>) -> Self {
        ConfigError {
            field: field.into(),
            reason: reason.into(),
        }
    }

    /// The same error seen from the enclosing `section`.
    pub fn within(self, section: &str) -> Self {
        ConfigError {
            field: format!("{section}.{}", self.field),
            ..self
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// `ensure!(ok; field, reason...)`: return `Err(ConfigError)` naming
/// `field`, with the formatted reason, unless `ok`.
#[macro_export]
macro_rules! ensure {
    ($ok:expr; $field:expr, $($reason:tt)+) => {
        let ok: bool = $ok;
        if !ok {
            return Err($crate::check::ConfigError::new($field, format!($($reason)+)));
        }
    };
}

/// `Err` naming `field` unless `cycles` is at most [`MAX_SPAN`].
pub fn within_span(cycles: u64, field: &str) -> Result<(), ConfigError> {
    ensure!(cycles <= MAX_SPAN; field, "{cycles} cycles exceed the longest span, {MAX_SPAN}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_prefixes_the_section() {
        let e = ConfigError::new("flit_bits", "must be positive")
            .within("time")
            .within("router");
        assert_eq!(e.field, "router.time.flit_bits");
        assert_eq!(e.to_string(), "router.time.flit_bits: must be positive");
    }
}
