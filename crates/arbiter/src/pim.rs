//! Parallel Iterative Matching (Anderson et al.) — random iterative
//! matching, cited by the paper (§4, \[1\]) as the scheme WFA beats on
//! hardware cost.
//!
//! Structure mirrors iSLIP, but grant and accept choices are uniformly
//! random instead of round-robin, and no pointer state is kept.
//!
//! ## Kernel
//!
//! Requester and grant sets are [`crate::portset::PortSet`] bitmasks;
//! "pick a uniform random requester" is one RNG draw over the popcount
//! followed by a k-th-set-bit select ([`PortSet::kth_set_bit`]), with no
//! materialized index list.  Bits enumerate in ascending port order — the
//! same order the golden reference ([`crate::reference::ReferencePim`])
//! builds its lists in — so both consume the RNG stream identically and
//! match grant for grant.

use crate::candidate::{CandidateSet, MAX_PORTS};
use crate::matching::{Grant, Matching};
use crate::portset::{words_for_ports, PortSet};
use crate::scheduler::{KernelProbe, KernelStats, SwitchScheduler};
use mmr_sim::rng::SimRng;

/// PIM with a configurable iteration count.
#[derive(Debug, Clone)]
pub struct PimArbiter {
    ports: usize,
    words: usize,
    iterations: usize,
    /// Scratch: per input, `words` words of outputs that granted it this
    /// iteration.
    grants_in: Vec<u64>,
    probe: KernelProbe,
}

impl PimArbiter {
    /// PIM for `ports` ports running `iterations` passes per cycle.
    pub fn new(ports: usize, iterations: usize) -> Self {
        assert!(ports > 0 && ports <= MAX_PORTS && iterations > 0);
        let words = words_for_ports(ports);
        PimArbiter {
            ports,
            words,
            iterations,
            grants_in: vec![0; ports * words],
            probe: KernelProbe::default(),
        }
    }

    fn run<const W: usize>(&mut self, cs: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        let n = self.ports;
        out.clear();
        let mut free_in = PortSet::<W>::full(n);
        let mut free_out = PortSet::<W>::full(n);
        let mut iters = 0u64;
        let mut examined = 0u64;

        for _ in 0..self.iterations {
            iters += 1;
            // Grant: each free output picks a random requesting free input.
            self.grants_in.fill(0);
            let mut of = free_out;
            while let Some(output) = of.take_lowest() {
                let requesters = cs.requesters::<W>(output).and(&free_in);
                let count = requesters.count_ones();
                examined += u64::from(count);
                if count != 0 {
                    let input = requesters.kth_set_bit(rng.index(count as usize));
                    self.grants_in[input * W + (output >> 6)] |= 1u64 << (output & 63);
                }
            }
            // Accept: each input picks a random output among its grants.
            let mut any_accept = false;
            let mut inf = free_in;
            while let Some(input) = inf.take_lowest() {
                let granted = PortSet::<W>::from_words(&self.grants_in[input * W..(input + 1) * W]);
                if granted.is_empty() {
                    continue;
                }
                let output = granted.kth_set_bit(rng.index(granted.count_ones() as usize));
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
            }
            if !any_accept {
                break;
            }
        }
        self.probe.iterations(iters);
        self.probe.examined(examined);
        self.probe.matched(out.size() as u64);
        debug_assert!(out.is_consistent_with(cs));
    }
}

impl SwitchScheduler for PimArbiter {
    fn schedule_into(&mut self, cs: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        assert_eq!(cs.ports(), self.ports);
        match self.words {
            1 => self.run::<1>(cs, rng, out),
            2 => self.run::<2>(cs, rng, out),
            _ => self.run::<4>(cs, rng, out),
        }
    }

    fn name(&self) -> &'static str {
        "Parallel Iterative Matching"
    }

    fn kernel_stats(&self) -> KernelStats {
        self.probe.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{Candidate, Priority};

    fn cand(input: usize, vc: usize, output: usize) -> Candidate {
        Candidate {
            input,
            vc,
            output,
            priority: Priority::new(1.0),
        }
    }

    #[test]
    fn permutation_fully_matched() {
        let mut cs = CandidateSet::new(4, 1);
        for i in 0..4 {
            cs.push(cand(i, 0, (i + 1) % 4));
        }
        let mut rng = SimRng::seed_from_u64(1);
        let m = PimArbiter::new(4, 1).schedule(&cs, &mut rng);
        assert_eq!(m.size(), 4);
    }

    #[test]
    fn permutation_fully_matched_at_multi_word_widths() {
        for ports in [70usize, 192] {
            let mut cs = CandidateSet::new(ports, 1);
            for i in 0..ports {
                cs.push(cand(i, 0, (i + 1) % ports));
            }
            let mut rng = SimRng::seed_from_u64(1);
            let m = PimArbiter::new(ports, 1).schedule(&cs, &mut rng);
            assert_eq!(m.size(), ports, "ports = {ports}");
        }
    }

    #[test]
    fn contention_yields_single_grant() {
        let mut cs = CandidateSet::new(4, 1);
        for i in 0..4 {
            cs.push(cand(i, 0, 2));
        }
        let mut rng = SimRng::seed_from_u64(2);
        let m = PimArbiter::new(4, 3).schedule(&cs, &mut rng);
        assert_eq!(m.size(), 1);
        assert!(m.output_matched(2));
    }

    #[test]
    fn service_is_statistically_fair() {
        // Two inputs fight for one output; over many cycles each should
        // win roughly half the time.
        let mut cs = CandidateSet::new(2, 1);
        cs.push(cand(0, 0, 0));
        cs.push(cand(1, 0, 0));
        let mut pim = PimArbiter::new(2, 1);
        let mut rng = SimRng::seed_from_u64(3);
        let wins0 = (0..2000)
            .filter(|_| pim.schedule(&cs, &mut rng).grant_for(0).is_some())
            .count();
        assert!((800..1200).contains(&wins0), "wins0 = {wins0}");
    }

    #[test]
    fn more_iterations_never_shrink_matching() {
        for seed in 0..20u64 {
            let mut gen = SimRng::seed_from_u64(seed);
            let mut cs = CandidateSet::new(4, 2);
            for input in 0..4 {
                let c1 = cand(input, 0, gen.index(4));
                let mut c2 = cand(input, 1, gen.index(4));
                c2.priority = Priority::new(0.5);
                cs.set_input(input, &[c1, c2]);
            }
            let mut rng_a = SimRng::seed_from_u64(seed + 100);
            let mut rng_b = SimRng::seed_from_u64(seed + 100);
            let one = PimArbiter::new(4, 1).schedule(&cs, &mut rng_a).size();
            let four = PimArbiter::new(4, 4).schedule(&cs, &mut rng_b).size();
            assert!(four >= one, "seed {seed}: {four} < {one}");
        }
    }
}
