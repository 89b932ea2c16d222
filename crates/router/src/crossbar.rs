//! The multiplexed crossbar.
//!
//! The MMR uses a crossbar with as many ports as physical channels; all
//! flits granted by the switch scheduler are forwarded synchronously in
//! one flit cycle, with arbitration overlapped with the previous
//! transmission (paper §2).  This model applies a [`Matching`] to the VC
//! memory and accounts utilization.

use crate::vcmem::{BufferedFlit, VcMemory};
use mmr_arbiter::matching::Matching;

/// A flit in flight to an output port.
#[derive(Debug, Clone, Copy)]
pub struct CrossedFlit {
    /// The buffered flit (with its router-entry time).
    pub buffered: BufferedFlit,
    /// Output port it was switched to.
    pub output: usize,
    /// VC (global connection index) it came from.
    pub vc: usize,
    /// Input port it came from.
    pub input: usize,
}

/// Crossbar model with utilization accounting.
///
/// Statistics are pure integers (grants / port-cycles); the ratios are
/// formed only when read, so they are exact however long the run.
#[derive(Debug)]
pub struct Crossbar {
    ports: usize,
    grants_total: u64,
    cycles: u64,
    /// Count of cycles in which the crossbar moved at least one flit.
    busy_cycles: u64,
    /// Number of input ports whose selected VC changed since the previous
    /// cycle — each change requires reconfiguration/arbitration (§2).
    reconfigurations: u64,
    last_vc_per_input: Vec<Option<usize>>,
}

impl Crossbar {
    /// Crossbar for `ports` ports.
    pub fn new(ports: usize) -> Self {
        Crossbar {
            ports,
            grants_total: 0,
            cycles: 0,
            busy_cycles: 0,
            reconfigurations: 0,
            last_vc_per_input: vec![None; ports],
        }
    }

    /// Apply a matching: pop each granted VC's head flit and return the
    /// crossed flits.  `measuring` gates statistics.
    pub fn transfer(
        &mut self,
        matching: &Matching,
        mem: &mut VcMemory,
        measuring: bool,
        out: &mut Vec<CrossedFlit>,
    ) {
        out.clear();
        for grant in matching.grants() {
            let buffered = mem
                .pop(grant.vc)
                .expect("scheduler granted an empty VC — candidates out of sync");
            out.push(CrossedFlit {
                buffered,
                output: grant.output,
                vc: grant.vc,
                input: grant.input,
            });
            if self.last_vc_per_input[grant.input] != Some(grant.vc) {
                self.reconfigurations += 1;
                self.last_vc_per_input[grant.input] = Some(grant.vc);
            }
        }
        if measuring {
            self.cycles += 1;
            self.grants_total += matching.size() as u64;
            if matching.size() > 0 {
                self.busy_cycles += 1;
            }
        }
    }

    /// Mean utilization (granted ports / total ports) over measured cycles.
    pub fn mean_utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.grants_total as f64 / (self.ports as f64 * self.cycles as f64)
        }
    }

    /// Total grants during measurement.
    pub fn grants(&self) -> u64 {
        self.grants_total
    }

    /// Measured cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Fraction of measured cycles with at least one transfer.
    pub fn busy_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.cycles as f64
        }
    }

    /// Input-side VC switches observed (arbitration/reconfiguration
    /// events).
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Reset statistics (start of measurement).
    pub fn reset_stats(&mut self) {
        self.grants_total = 0;
        self.cycles = 0;
        self.busy_cycles = 0;
        self.reconfigurations = 0;
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_arbiter::matching::Grant;
    use mmr_sim::time::RouterCycle;
    use mmr_traffic::connection::ConnectionId;
    use mmr_traffic::flit::Flit;

    fn mem_with(vcs: usize) -> VcMemory {
        let mut m = VcMemory::new(vcs, 4, 2);
        for vc in 0..vcs {
            m.push(
                vc,
                Flit::cbr(ConnectionId(vc as u32), 0, RouterCycle(0)),
                RouterCycle(5),
            );
        }
        m
    }

    #[test]
    fn transfer_pops_granted_heads() {
        let mut xbar = Crossbar::new(4);
        let mut mem = mem_with(4);
        let mut m = Matching::new(4);
        m.add(Grant {
            input: 0,
            output: 2,
            vc: 0,
            level: 0,
        });
        m.add(Grant {
            input: 1,
            output: 3,
            vc: 1,
            level: 0,
        });
        let mut out = Vec::new();
        xbar.transfer(&m, &mut mem, true, &mut out);
        assert_eq!(out.len(), 2);
        assert!(mem.is_empty(0));
        assert!(mem.is_empty(1));
        assert_eq!(mem.len(2), 1, "ungranted VC untouched");
        assert_eq!(out[0].output, 2);
        assert_eq!(out[0].buffered.entered_at, RouterCycle(5));
    }

    #[test]
    fn utilization_accounted_only_when_measuring() {
        let mut xbar = Crossbar::new(4);
        let mut mem = mem_with(4);
        let mut m = Matching::new(4);
        m.add(Grant {
            input: 0,
            output: 0,
            vc: 0,
            level: 0,
        });
        let mut out = Vec::new();
        xbar.transfer(&m, &mut mem, false, &mut out);
        assert_eq!(xbar.cycles(), 0);
        assert_eq!(xbar.grants(), 0);
        let mut m2 = Matching::new(4);
        m2.add(Grant {
            input: 1,
            output: 1,
            vc: 1,
            level: 0,
        });
        xbar.transfer(&m2, &mut mem, true, &mut out);
        assert_eq!(xbar.cycles(), 1);
        assert_eq!(xbar.grants(), 1);
        assert_eq!(xbar.mean_utilization(), 0.25);
        assert_eq!(xbar.busy_fraction(), 1.0);
    }

    #[test]
    fn reconfigurations_count_vc_switches() {
        let mut xbar = Crossbar::new(2);
        let mut mem = VcMemory::new(2, 4, 1);
        for _ in 0..3 {
            mem.push(
                0,
                Flit::cbr(ConnectionId(0), 0, RouterCycle(0)),
                RouterCycle(0),
            );
        }
        mem.push(
            1,
            Flit::cbr(ConnectionId(1), 0, RouterCycle(0)),
            RouterCycle(0),
        );
        let mut out = Vec::new();
        let grant_vc = |vc: usize| {
            let mut m = Matching::new(2);
            m.add(Grant {
                input: 0,
                output: 0,
                vc,
                level: 0,
            });
            m
        };
        xbar.transfer(&grant_vc(0), &mut mem, true, &mut out); // first: reconfig
        xbar.transfer(&grant_vc(0), &mut mem, true, &mut out); // same vc: none
        xbar.transfer(&grant_vc(1), &mut mem, true, &mut out); // switch: reconfig
        assert_eq!(xbar.reconfigurations(), 2);
    }

    #[test]
    #[should_panic(expected = "empty VC")]
    fn granting_empty_vc_is_a_bug() {
        let mut xbar = Crossbar::new(2);
        let mut mem = VcMemory::new(2, 4, 1);
        let mut m = Matching::new(2);
        m.add(Grant {
            input: 0,
            output: 0,
            vc: 0,
            level: 0,
        });
        let mut out = Vec::new();
        xbar.transfer(&m, &mut mem, true, &mut out);
    }

    #[test]
    fn reset_clears_stats() {
        let mut xbar = Crossbar::new(2);
        let mut mem = mem_with(2);
        let mut m = Matching::new(2);
        m.add(Grant {
            input: 0,
            output: 0,
            vc: 0,
            level: 0,
        });
        let mut out = Vec::new();
        xbar.transfer(&m, &mut mem, true, &mut out);
        xbar.reset_stats();
        assert_eq!(xbar.cycles(), 0);
        assert_eq!(xbar.mean_utilization(), 0.0);
    }
}
