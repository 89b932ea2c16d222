//! Router configuration.

use mmr_sim::check::{within_span, ConfigError};
use mmr_sim::ensure;
use mmr_sim::time::TimeBase;
use mmr_traffic::admission::RoundConfig;
use serde::{Deserialize, Serialize};

/// How each input link selects its candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkPolicy {
    /// Dynamic biased-priority selection (the MMR's design, §3.1).
    Priority,
    /// Static TDM slot table derived from the reservations (§2's round
    /// structure made literal); see [`crate::tdm`].
    SlotTable {
        /// Re-offer idle and unreserved slots to backlogged VCs.
        backfill: bool,
        /// Table entries representing one round.
        table_len: usize,
    },
}

/// Most candidate levels a router may offer per input: the candidate
/// set holds `ports x levels` slots, and the paper uses four.
pub const MAX_CANDIDATE_LEVELS: usize = 64;

/// Most flits a VC buffer may hold: every VC's buffer is allocated whole
/// up front, and its credit counter is a `u32`.  The paper's buffers
/// hold "a few flits".
pub const MAX_VC_BUFFER_FLITS: usize = 4_096;

/// Most entries a slot table may hold: each input keeps its own copy.
pub const MAX_SLOT_TABLE_LEN: usize = 1 << 16;

/// Geometry and timing of one MMR.
///
/// Defaults reproduce the paper's evaluation setup: a 4×4 router with
/// four candidate levels, a few flits of buffering per virtual channel,
/// 1.24 Gbps 16-bit links and 1024-bit flits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Physical input/output ports.
    pub ports: usize,
    /// Candidate levels k offered per input to the switch scheduler.
    pub candidate_levels: usize,
    /// Per-virtual-channel buffer capacity, in flits ("a few flits").
    pub vc_buffer_flits: usize,
    /// Link/flit timing.
    pub time: TimeBase,
    /// Bandwidth-round configuration (slot accounting).
    pub round: RoundConfig,
    /// Flit cycles a flit spends crossing the router + output link after
    /// being granted (phit-pipelined, so throughput is unaffected).
    pub crossing_latency_flits: u64,
    /// Number of interleaved RAM banks forming each VC memory (Fig. 2).
    pub vc_ram_banks: usize,
    /// Link-scheduling policy.
    pub link_policy: LinkPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            ports: 4,
            candidate_levels: 4,
            vc_buffer_flits: 4,
            time: TimeBase::default(),
            round: RoundConfig::default(),
            crossing_latency_flits: 1,
            vc_ram_banks: 4,
            link_policy: LinkPolicy::Priority,
        }
    }
}

impl RouterConfig {
    /// Check internal consistency, naming the first nonsense field
    /// (the time base through [`TimeBase::check`]).
    pub fn check(&self) -> Result<(), ConfigError> {
        let max_ports = mmr_arbiter::candidate::MAX_PORTS;
        let (ports, levels, depth) = (self.ports, self.candidate_levels, self.vc_buffer_flits);
        let concurrency = self.round.concurrency_factor;
        ensure!(ports > 0; "ports", "router needs at least one port");
        ensure!(ports <= max_ports; "ports",
            "router has {ports} ports but the scheduling kernels support at most {max_ports} (four 64-bit port-set words)");
        ensure!(levels > 0; "candidate_levels", "need at least one candidate level");
        ensure!(levels <= MAX_CANDIDATE_LEVELS; "candidate_levels",
            "{levels} candidate levels exceed the supported {MAX_CANDIDATE_LEVELS}");
        ensure!(depth > 0; "vc_buffer_flits", "VC buffers need capacity for one flit");
        ensure!(depth <= MAX_VC_BUFFER_FLITS; "vc_buffer_flits",
            "{depth} VC buffer flits exceed the supported {MAX_VC_BUFFER_FLITS}");
        ensure!(self.vc_ram_banks > 0; "vc_ram_banks", "VC memory needs at least one bank");
        ensure!(self.round.cycles_per_round > 0; "round.cycles_per_round",
            "round must contain slots");
        within_span(self.round.cycles_per_round, "round.cycles_per_round")?;
        within_span(self.crossing_latency_flits, "crossing_latency_flits")?;
        ensure!(concurrency.is_finite() && concurrency >= 1.0; "round.concurrency_factor",
            "concurrency factor {concurrency} must be finite and at least 1.0");
        if let LinkPolicy::SlotTable { table_len, .. } = self.link_policy {
            ensure!((1..=MAX_SLOT_TABLE_LEN).contains(&table_len); "link_policy.table_len",
                "slot table needs 1 to {MAX_SLOT_TABLE_LEN} entries, not {table_len}");
        }
        self.time.check().map_err(|e| e.within("time"))
    }

    /// Router cycles per flit cycle, from the time base.
    pub fn router_cycles_per_flit(&self) -> u64 {
        self.time.router_cycles_per_flit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = RouterConfig::default();
        c.check().unwrap();
        assert_eq!(c.ports, 4);
        assert_eq!(c.candidate_levels, 4);
        assert_eq!(c.vc_buffer_flits, 4);
        assert_eq!(c.router_cycles_per_flit(), 64);
    }

    #[test]
    #[should_panic(expected = "candidate level")]
    fn zero_levels_rejected() {
        RouterConfig {
            candidate_levels: 0,
            ..Default::default()
        }
        .check()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        RouterConfig {
            ports: 0,
            ..Default::default()
        }
        .check()
        .unwrap();
    }

    #[test]
    fn wide_port_counts_accepted_up_to_the_kernel_limit() {
        for ports in [64, 65, 128, 256] {
            RouterConfig {
                ports,
                ..Default::default()
            }
            .check()
            .unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at most 256")]
    fn oversized_router_rejected() {
        RouterConfig {
            ports: 257,
            ..Default::default()
        }
        .check()
        .unwrap();
    }

    #[test]
    fn check_names_each_bad_field_without_panicking() {
        let round = |concurrency_factor| RoundConfig {
            concurrency_factor,
            ..Default::default()
        };
        let d = RouterConfig::default();
        for (cfg, expected) in [
            (
                RouterConfig {
                    vc_buffer_flits: 0,
                    ..d
                },
                "one flit",
            ),
            (
                RouterConfig {
                    round: round(0.5),
                    ..d
                },
                "at least 1.0",
            ),
            (
                RouterConfig {
                    round: round(f64::NAN),
                    ..d
                },
                "finite",
            ),
            (
                RouterConfig {
                    link_policy: LinkPolicy::SlotTable {
                        backfill: false,
                        table_len: 0,
                    },
                    ..d
                },
                "slot table",
            ),
            (
                RouterConfig {
                    candidate_levels: MAX_CANDIDATE_LEVELS + 1,
                    ..d
                },
                "candidate levels exceed",
            ),
            (
                RouterConfig {
                    vc_buffer_flits: u32::MAX as usize + 1,
                    ..d
                },
                "flits exceed",
            ),
        ] {
            let msg = cfg.check().expect_err(expected).to_string();
            assert!(msg.contains(expected), "{msg}");
        }
        assert_eq!(d.check(), Ok(()));
        let widest = RouterConfig {
            candidate_levels: MAX_CANDIDATE_LEVELS,
            vc_buffer_flits: MAX_VC_BUFFER_FLITS,
            ..d
        };
        assert_eq!(widest.check(), Ok(()), "the bounds themselves are valid");
    }
}
