//! Random maximal matching — the "no policy at all" floor baseline.
//!
//! Shuffles the distinct (input, output) request pairs and takes them
//! greedily.  The result is a uniformly random maximal matching on the
//! request graph, blind to both priority and conflict structure.
//!
//! The pair list is built by iterating each input's requested-output
//! bitmask (ascending output order, identical to the reference's nested
//! loop); free ports are multi-word [`crate::portset::PortSet`]s and all
//! scratch lives on the struct, so steady-state scheduling allocates
//! nothing.

use crate::candidate::{CandidateSet, MAX_PORTS};
use crate::matching::{Grant, Matching};
use crate::portset::{words_for_ports, PortSet};
use crate::scheduler::{KernelProbe, KernelStats, SwitchScheduler};
use mmr_sim::rng::SimRng;

/// Random maximal matching arbiter.
#[derive(Debug, Clone)]
pub struct RandomArbiter {
    ports: usize,
    words: usize,
    pairs: Vec<(usize, usize)>,
    probe: KernelProbe,
}

impl RandomArbiter {
    /// Random arbiter for `ports` ports.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0 && ports <= MAX_PORTS);
        RandomArbiter {
            ports,
            words: words_for_ports(ports),
            pairs: Vec::new(),
            probe: KernelProbe::default(),
        }
    }

    fn run<const W: usize>(&mut self, cs: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        out.clear();
        self.pairs.clear();
        for input in 0..self.ports {
            let mut outputs = cs.output_mask::<W>(input);
            while let Some(output) = outputs.take_lowest() {
                self.pairs.push((input, output));
            }
        }
        rng.shuffle(&mut self.pairs);
        let mut free_in = PortSet::<W>::full(self.ports);
        let mut free_out = PortSet::<W>::full(self.ports);
        for &(input, output) in &self.pairs {
            if free_in.contains(input) && free_out.contains(output) {
                let (level, c) = cs
                    .best_level_for(input, output)
                    .expect("pair built from candidates");
                out.add(Grant {
                    input,
                    output,
                    vc: c.vc,
                    level,
                });
                free_in.remove(input);
                free_out.remove(output);
            }
        }
        // One shuffled pass over every distinct request pair.
        self.probe.iterations(1);
        self.probe.examined(self.pairs.len() as u64);
        self.probe.matched(out.size() as u64);
        debug_assert!(out.is_consistent_with(cs));
    }
}

impl SwitchScheduler for RandomArbiter {
    fn schedule_into(&mut self, cs: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        assert_eq!(cs.ports(), self.ports);
        match self.words {
            1 => self.run::<1>(cs, rng, out),
            2 => self.run::<2>(cs, rng, out),
            _ => self.run::<4>(cs, rng, out),
        }
    }

    fn name(&self) -> &'static str {
        "Random maximal matching"
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
    fn matching_is_maximal() {
        for seed in 0..30u64 {
            let mut gen = SimRng::seed_from_u64(seed);
            let mut cs = CandidateSet::new(4, 2);
            for input in 0..4 {
                cs.set_input(
                    input,
                    &[cand(input, 0, gen.index(4)), cand(input, 1, gen.index(4))],
                );
            }
            let mut rng = SimRng::seed_from_u64(seed * 31 + 1);
            let m = RandomArbiter::new(4).schedule(&cs, &mut rng);
            for c in cs.iter() {
                assert!(m.input_matched(c.input) || m.output_matched(c.output));
            }
        }
    }

    #[test]
    fn contention_resolved_uniformly() {
        let mut cs = CandidateSet::new(2, 1);
        cs.push(cand(0, 0, 0));
        cs.push(cand(1, 0, 0));
        let mut arb = RandomArbiter::new(2);
        let mut rng = SimRng::seed_from_u64(5);
        let wins0 = (0..2000)
            .filter(|_| arb.schedule(&cs, &mut rng).grant_for(0).is_some())
            .count();
        assert!((800..1200).contains(&wins0), "wins0 = {wins0}");
    }

    #[test]
    fn empty_is_empty() {
        let cs = CandidateSet::new(3, 1);
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(RandomArbiter::new(3).schedule(&cs, &mut rng).size(), 0);
    }
}
