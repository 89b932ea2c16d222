//! Frame-based fair switch scheduling (NoC fairness literature).
//!
//! The NoC fair-packet-scheduling line of work divides time into fixed
//! **frames** and gives every flow a grant quota per frame, so a heavy
//! flow cannot monopolize an output while lighter flows hold unused
//! quota.  Mapped onto the MMR's crossbar arbitration, the flow unit is
//! the **crosspoint** `(input, output)`:
//!
//! * Every crosspoint may consume up to `quota = max(1, frame / ports)`
//!   grants per frame.
//! * Each cycle, every free output considers its requesters; while *any*
//!   requester still holds quota, over-quota requesters are ineligible.
//!   If every requester has spent its quota the full set competes again —
//!   the scheduler stays work-conserving.
//! * Among the eligible pool the highest-priority best-level candidate
//!   wins; equal priorities are broken uniformly at random with the same
//!   reservoir idiom COA uses, so the RNG-draw sequence is deterministic
//!   and mirrored exactly by [`crate::reference::ReferenceFrameFair`].
//!
//! The frame clock counts *arbitration* cycles: the router only invokes
//! the scheduler on non-empty candidate sets, so idle cycles do not age
//! the frame (its results are pinned by `tests/determinism.rs`).

use crate::candidate::{Candidate, CandidateSet, MAX_PORTS};
use crate::matching::{Grant, Matching};
use crate::portset::{words_for_ports, PortSet};
use crate::scheduler::{KernelProbe, KernelStats, SwitchScheduler};
use mmr_sim::rng::SimRng;

/// Default frame length (arbitration cycles) used by
/// [`crate::scheduler::ArbiterKind::all`].
pub const DEFAULT_FRAME: u32 = 64;

/// Frame-based fair arbiter with per-crosspoint grant quotas.
#[derive(Debug, Clone)]
pub struct FrameFairArbiter {
    ports: usize,
    words: usize,
    frame: u32,
    quota: u32,
    cycle_in_frame: u32,
    /// Grants consumed this frame, per crosspoint
    /// `input * ports + output`.
    used: Vec<u32>,
    probe: KernelProbe,
}

impl FrameFairArbiter {
    /// Frame-fair arbiter for `ports` ports and a `frame`-cycle frame.
    pub fn new(ports: usize, frame: u32) -> Self {
        assert!(
            ports > 0 && ports <= MAX_PORTS,
            "ports must be in 1..={MAX_PORTS}"
        );
        assert!(frame > 0, "frame length must be positive");
        FrameFairArbiter {
            ports,
            words: words_for_ports(ports),
            frame,
            quota: (frame / ports as u32).max(1),
            cycle_in_frame: 0,
            used: vec![0; ports * ports],
            probe: KernelProbe::default(),
        }
    }

    /// The per-crosspoint grant quota for one frame.
    pub fn quota(&self) -> u32 {
        self.quota
    }

    fn run<const W: usize>(&mut self, cs: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        let n = self.ports;
        out.clear();
        let mut free_in = PortSet::<W>::full(n);
        let mut examined = 0u64;
        for output in 0..n {
            let requesters = PortSet::<W>::from_words(cs.requesters(output)).and(&free_in);
            if requesters.is_empty() {
                continue;
            }
            // Pass 1 (no RNG): does any requester still hold quota?
            let mut any_eligible = false;
            let mut m = requesters;
            while let Some(input) = m.take_lowest() {
                any_eligible |= self.used[input * n + output] < self.quota;
            }
            // Pass 2: highest-priority candidate in the eligible pool
            // (everyone, when all quotas are spent).  Reservoir ties.
            let mut best: Option<(usize, usize, Candidate)> = None;
            let mut best_key = 0u64;
            let mut ties = 0u64;
            let mut m = requesters;
            while let Some(input) = m.take_lowest() {
                if any_eligible && self.used[input * n + output] >= self.quota {
                    continue;
                }
                examined += 1;
                let (level, c) = cs
                    .best_level_for(input, output)
                    .expect("requester has a candidate");
                let key = c.priority.sort_key();
                if best.is_none() || key > best_key {
                    best = Some((input, level, c));
                    best_key = key;
                    ties = 1;
                } else if key == best_key {
                    ties += 1;
                    if rng.below(ties) == 0 {
                        best = Some((input, level, c));
                    }
                }
            }
            let (input, level, c) = best.expect("eligible pool is non-empty");
            out.add(Grant {
                input,
                output,
                vc: c.vc,
                level,
            });
            free_in.remove(input);
            self.used[input * n + output] += 1;
        }
        // Advance the frame clock once per arbitration cycle.
        self.cycle_in_frame += 1;
        if self.cycle_in_frame == self.frame {
            self.cycle_in_frame = 0;
            self.used.fill(0);
        }
        self.probe.iterations(1);
        self.probe.examined(examined);
        self.probe.matched(out.size() as u64);
        debug_assert!(out.is_consistent_with(cs));
    }
}

impl SwitchScheduler for FrameFairArbiter {
    fn schedule_into(&mut self, cs: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        assert_eq!(cs.ports(), self.ports);
        match self.words {
            1 => self.run::<1>(cs, rng, out),
            2 => self.run::<2>(cs, rng, out),
            _ => self.run::<4>(cs, rng, out),
        }
    }

    fn name(&self) -> &'static str {
        "Frame-fair"
    }

    fn reset(&mut self) {
        self.cycle_in_frame = 0;
        self.used.fill(0);
    }

    fn set_probe_enabled(&mut self, enabled: bool) {
        self.probe.set_enabled(enabled);
    }

    fn kernel_stats(&self) -> KernelStats {
        self.probe.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::Priority;

    fn cand(input: usize, vc: usize, output: usize, p: f64) -> Candidate {
        Candidate {
            input,
            vc,
            output,
            priority: Priority::new(p),
        }
    }

    fn rng() -> SimRng {
        SimRng::seed_from_u64(3)
    }

    #[test]
    fn quota_throttles_a_heavy_crosspoint() {
        // Inputs 0 and 1 both requesting output 0; input 0 always holds
        // the higher priority.  A priority-only arbiter starves input 1
        // forever; frame-fair must hand it one grant per frame (its
        // quota), with the work-conserving fallback giving the surplus
        // back to the heavy crosspoint.
        let ports = 4;
        let frame = 4; // quota = 1 per crosspoint
        let mut arb = FrameFairArbiter::new(ports, frame);
        assert_eq!(arb.quota(), 1);
        let mut cs = CandidateSet::new(ports, 2);
        cs.set_input(0, &[cand(0, 0, 0, 100.0)]);
        cs.set_input(1, &[cand(1, 0, 0, 1.0)]);
        let mut r = rng();
        let mut wins = [0u32; 2];
        for _ in 0..16 {
            let m = arb.schedule(&cs, &mut r);
            assert_eq!(m.size(), 1);
            let g = m.grants().next().unwrap();
            wins[g.input] += 1;
        }
        // 4 frames × (1 quota grant for input 1 + 3 for input 0: its own
        // quota plus the over-quota surplus its priority wins back).
        assert_eq!(wins, [12, 4], "input 1 must get its quota every frame");
    }

    #[test]
    fn work_conserving_when_all_quotas_are_spent() {
        // One crosspoint, quota 1: after the first grant in a frame the
        // crosspoint is over quota, but with no eligible rival it must
        // still be served every cycle.
        let mut arb = FrameFairArbiter::new(4, 4);
        let mut cs = CandidateSet::new(4, 1);
        cs.push(cand(0, 0, 0, 5.0));
        let mut r = rng();
        for cycle in 0..10 {
            let m = arb.schedule(&cs, &mut r);
            assert_eq!(m.size(), 1, "cycle {cycle} must still grant");
        }
    }

    #[test]
    fn permutation_fully_matched_at_multi_word_widths() {
        for ports in [100usize, 256] {
            let mut cs = CandidateSet::new(ports, 1);
            for i in 0..ports {
                cs.push(cand(i, 0, (i + 3) % ports, 1.0));
            }
            let m = FrameFairArbiter::new(ports, DEFAULT_FRAME).schedule(&cs, &mut rng());
            assert_eq!(m.size(), ports, "ports = {ports}");
        }
    }

    #[test]
    fn reset_clears_frame_state() {
        let mut arb = FrameFairArbiter::new(4, 4);
        let mut cs = CandidateSet::new(4, 1);
        cs.push(cand(0, 0, 0, 5.0));
        arb.schedule(&cs, &mut rng());
        assert_ne!(arb.used[0], 0);
        arb.reset();
        assert_eq!(arb.used[0], 0);
        assert_eq!(arb.cycle_in_frame, 0);
    }
}
