//! iSLIP (McKeown) — iterative round-robin matching.
//!
//! One of the related-work schedulers the paper cites (§4, via \[14\]).
//! Each iteration runs three phases over the *unmatched* ports:
//!
//! * **Request** — every unmatched input requests every output it has a
//!   candidate for.
//! * **Grant** — every unmatched output grants the requesting input that
//!   appears next at-or-after its grant pointer.
//! * **Accept** — every input that received grants accepts the output
//!   next at-or-after its accept pointer.
//!
//! Pointers advance one position past the granted/accepted port, and only
//! when the grant was accepted in the *first* iteration — the rule that
//! gives iSLIP its starvation freedom.  Like WFA it is priority-blind.
//!
//! ## Kernel
//!
//! Requesters, free ports and received grants are
//! [`crate::portset::PortSet`] bitmasks; the round-robin scans are
//! first-set-bit searches ([`PortSet::first_at_or_after`]) instead of
//! O(ports) wrap-around loops.  The golden reference
//! ([`crate::reference::ReferenceIslip`]) keeps the linear scans; both are
//! deterministic and produce identical matchings.

use crate::candidate::{CandidateSet, MAX_PORTS};
use crate::matching::{Grant, Matching};
use crate::portset::{words_for_ports, PortSet};
use crate::scheduler::{KernelProbe, KernelStats, SwitchScheduler};
use mmr_sim::rng::SimRng;

/// iSLIP with a configurable iteration count.
#[derive(Debug, Clone)]
pub struct IslipArbiter {
    ports: usize,
    words: usize,
    iterations: usize,
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
    /// Scratch: per input, `words` words of outputs that granted it this
    /// iteration.
    grants_in: Vec<u64>,
    probe: KernelProbe,
}

impl IslipArbiter {
    /// iSLIP for `ports` ports running `iterations` passes per cycle.
    pub fn new(ports: usize, iterations: usize) -> Self {
        assert!(ports > 0 && ports <= MAX_PORTS && iterations > 0);
        let words = words_for_ports(ports);
        IslipArbiter {
            ports,
            words,
            iterations,
            grant_ptr: vec![0; ports],
            accept_ptr: vec![0; ports],
            grants_in: vec![0; ports * words],
            probe: KernelProbe::default(),
        }
    }

    fn run<const W: usize>(&mut self, cs: &CandidateSet, out: &mut Matching) {
        let n = self.ports;
        out.clear();
        let mut free_in = PortSet::<W>::full(n);
        let mut free_out = PortSet::<W>::full(n);
        let mut iters = 0u64;
        let mut examined = 0u64;

        for iter in 0..self.iterations {
            iters += 1;
            // Grant phase: each free output picks one requesting free
            // input by round-robin from its pointer.
            self.grants_in.fill(0);
            let mut of = free_out;
            while let Some(output) = of.take_lowest() {
                let requesters = cs.requesters::<W>(output).and(&free_in);
                examined += u64::from(requesters.count_ones());
                if !requesters.is_empty() {
                    let input = requesters.first_at_or_after(self.grant_ptr[output]);
                    self.grants_in[input * W + (output >> 6)] |= 1u64 << (output & 63);
                }
            }
            // Accept phase: each input with grants accepts one output by
            // round-robin from its pointer.
            let mut any_accept = false;
            let mut inf = free_in;
            while let Some(input) = inf.take_lowest() {
                let granted = PortSet::<W>::from_words(&self.grants_in[input * W..(input + 1) * W]);
                if granted.is_empty() {
                    continue;
                }
                let output = granted.first_at_or_after(self.accept_ptr[input]);
                let (level, c) = cs
                    .best_level_for(input, output)
                    .expect("granted request exists");
                out.add(Grant {
                    input,
                    output,
                    vc: c.vc,
                    level,
                });
                free_in.remove(input);
                free_out.remove(output);
                any_accept = true;
                if iter == 0 {
                    self.grant_ptr[output] = (input + 1) % n;
                    self.accept_ptr[input] = (output + 1) % n;
                }
            }
            if !any_accept {
                break; // converged early
            }
        }
        self.probe.iterations(iters);
        self.probe.examined(examined);
        self.probe.matched(out.size() as u64);
        debug_assert!(out.is_consistent_with(cs));
    }
}

impl SwitchScheduler for IslipArbiter {
    fn schedule_into(&mut self, cs: &CandidateSet, _rng: &mut SimRng, out: &mut Matching) {
        assert_eq!(cs.ports(), self.ports);
        match self.words {
            1 => self.run::<1>(cs, out),
            2 => self.run::<2>(cs, out),
            _ => self.run::<4>(cs, out),
        }
    }

    fn name(&self) -> &'static str {
        "iSLIP"
    }

    fn reset(&mut self) {
        self.grant_ptr.fill(0);
        self.accept_ptr.fill(0);
    }

    fn kernel_stats(&self) -> KernelStats {
        self.probe.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{Candidate, Priority};

    impl IslipArbiter {
        /// Current grant pointers.
        fn grant_pointers(&self) -> &[usize] {
            &self.grant_ptr
        }
    }

    fn cand(input: usize, vc: usize, output: usize) -> Candidate {
        Candidate {
            input,
            vc,
            output,
            priority: Priority::new(1.0),
        }
    }

    fn rng() -> SimRng {
        SimRng::seed_from_u64(0)
    }

    #[test]
    fn permutation_fully_matched() {
        let mut cs = CandidateSet::new(4, 1);
        for i in 0..4 {
            cs.push(cand(i, 0, (i + 3) % 4));
        }
        let m = IslipArbiter::new(4, 1).schedule(&cs, &mut rng());
        assert_eq!(m.size(), 4);
    }

    #[test]
    fn permutation_fully_matched_at_multi_word_widths() {
        for ports in [100usize, 256] {
            let mut cs = CandidateSet::new(ports, 1);
            for i in 0..ports {
                cs.push(cand(i, 0, (i + 3) % ports));
            }
            let m = IslipArbiter::new(ports, 1).schedule(&cs, &mut rng());
            assert_eq!(m.size(), ports, "ports = {ports}");
        }
    }

    #[test]
    fn pointers_rotate_service_under_contention() {
        // Two inputs permanently contending for output 0: iSLIP must
        // alternate service between them (starvation freedom).
        let mut islip = IslipArbiter::new(4, 1);
        let mut cs = CandidateSet::new(4, 1);
        cs.push(cand(0, 0, 0));
        cs.push(cand(1, 0, 0));
        let mut wins = [0u32; 2];
        for _ in 0..10 {
            let m = islip.schedule(&cs, &mut rng());
            assert_eq!(m.size(), 1);
            if m.grant_for(0).is_some() {
                wins[0] += 1;
            } else {
                wins[1] += 1;
            }
        }
        assert_eq!(wins[0], 5);
        assert_eq!(wins[1], 5);
    }

    #[test]
    fn second_iteration_fills_holes() {
        // Inputs 0 and 1 both request outputs {0, 1}.  With all pointers
        // at zero, iteration 1 has both outputs granting input 0, which
        // accepts only output 0 — output 1's grant is wasted.  Iteration 2
        // must add (1 -> 1).
        let mut cs = CandidateSet::new(4, 2);
        cs.set_input(0, &[cand(0, 0, 0), cand(0, 1, 1)]);
        cs.set_input(1, &[cand(1, 0, 0), cand(1, 1, 1)]);
        let one_iter = IslipArbiter::new(4, 1).schedule(&cs, &mut rng()).size();
        let two_iter = IslipArbiter::new(4, 2).schedule(&cs, &mut rng()).size();
        assert_eq!(one_iter, 1);
        assert_eq!(two_iter, 2);
    }

    #[test]
    fn pointer_updates_only_on_first_iteration_accepts() {
        let mut islip = IslipArbiter::new(4, 2);
        let mut cs = CandidateSet::new(4, 2);
        cs.set_input(0, &[cand(0, 0, 0), cand(0, 1, 1)]);
        cs.set_input(1, &[cand(1, 0, 0), cand(1, 1, 1)]);
        islip.schedule(&cs, &mut rng());
        // Output 0 accepted input 0 in iteration 1 -> pointer at 1.
        assert_eq!(islip.grant_pointers()[0], 1);
        // Output 1 matched (input 1) only in iteration 2 -> pointer
        // unchanged.
        assert_eq!(islip.grant_pointers()[1], 0);
    }

    #[test]
    fn reset_clears_pointers() {
        let mut islip = IslipArbiter::new(2, 1);
        let mut cs = CandidateSet::new(2, 1);
        cs.push(cand(0, 0, 0));
        islip.schedule(&cs, &mut rng());
        assert_ne!(islip.grant_pointers()[0], 0);
        islip.reset();
        assert_eq!(islip.grant_pointers(), &[0, 0]);
    }
}
