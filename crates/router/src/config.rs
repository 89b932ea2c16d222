//! Router configuration.

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
    /// Check internal consistency, naming the first nonsense field.
    pub fn check(&self) -> Result<(), String> {
        let max_ports = mmr_arbiter::candidate::MAX_PORTS;
        let concurrency = self.round.concurrency_factor;
        if self.ports == 0 {
            return Err("router needs at least one port".into());
        }
        if self.ports > max_ports {
            return Err(format!(
                "router has {} ports but the scheduling kernels support at most \
                 {max_ports} (four 64-bit port-set words)",
                self.ports
            ));
        }
        if self.candidate_levels == 0 {
            return Err("need at least one candidate level".into());
        }
        if self.vc_buffer_flits == 0 {
            return Err("VC buffers need capacity for one flit".into());
        }
        if self.vc_ram_banks == 0 {
            return Err("VC memory needs at least one bank".into());
        }
        if self.round.cycles_per_round == 0 {
            return Err("round must contain slots".into());
        }
        if !(concurrency.is_finite() && concurrency >= 1.0) {
            return Err(format!(
                "concurrency factor {concurrency} must be finite and at least 1.0"
            ));
        }
        if let LinkPolicy::SlotTable { table_len: 0, .. } = self.link_policy {
            return Err("slot table needs entries".into());
        }
        Ok(())
    }

    /// [`Self::check`], panicking with its message on nonsense
    /// configurations.
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
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
        c.validate();
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
        .validate();
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        RouterConfig {
            ports: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn wide_port_counts_accepted_up_to_the_kernel_limit() {
        for ports in [64, 65, 128, 256] {
            RouterConfig {
                ports,
                ..Default::default()
            }
            .validate();
        }
    }

    #[test]
    #[should_panic(expected = "at most 256")]
    fn oversized_router_rejected() {
        RouterConfig {
            ports: 257,
            ..Default::default()
        }
        .validate();
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
        ] {
            let msg = cfg.check().expect_err(expected);
            assert!(msg.contains(expected), "{msg}");
        }
        assert_eq!(d.check(), Ok(()));
    }
}
