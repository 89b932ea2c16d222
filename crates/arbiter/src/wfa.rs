//! The Wave Front Arbiter (WFA) — the paper's comparison baseline.
//!
//! Tamir & Chi's symmetric crossbar arbiter propagates an arbitration wave
//! diagonally across an N×N array of cells, one per crosspoint.  A cell
//! grants its (input, output) pair iff a request is present and no grant
//! exists earlier in the same row or column.  Cells on one anti-diagonal
//! are independent and evaluate in parallel in hardware.
//!
//! This is the *wrapped* WFA: the starting diagonal rotates every cycle so
//! that no crosspoint is permanently favoured.  Crucially — and this is
//! the paper's point — WFA considers only *where* requests go, never their
//! priority: it maximizes matching size per wave order, blind to QoS.
//!
//! ## Kernel
//!
//! The request matrix is a [`crate::portset::PortSet`]-width row of words
//! per input (one bit per output), filled straight from the candidate
//! set's per-input output masks; the free rows and columns are port sets
//! of the same width.  The wave visits only still-free rows (bit
//! iteration), and each cell test is one AND.  The golden reference
//! ([`crate::reference::ReferenceWfa`]) keeps the dense boolean matrix;
//! both produce identical matchings (the wave order is deterministic).

use crate::candidate::{CandidateSet, MAX_PORTS};
use crate::matching::{Grant, Matching};
use crate::portset::{words_for_ports, PortSet};
use crate::scheduler::{KernelProbe, KernelStats, SwitchScheduler};
use mmr_sim::rng::SimRng;

/// Wrapped Wave Front Arbiter (plus the unwrapped study variant).
#[derive(Debug, Clone)]
pub struct WaveFrontArbiter {
    ports: usize,
    words: usize,
    /// Anti-diagonal that gets top priority this cycle.
    start_diag: usize,
    /// Rotate the priority diagonal every cycle (the wrapped variant).
    wrapped: bool,
    /// Request matrix scratch: per input, `words` words of requested
    /// outputs.
    rows: Vec<u64>,
    probe: KernelProbe,
}

impl WaveFrontArbiter {
    /// The paper's WFA: wrapped, requests from all candidate levels.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0 && ports <= MAX_PORTS);
        let words = words_for_ports(ports);
        WaveFrontArbiter {
            ports,
            words,
            start_diag: 0,
            wrapped: true,
            rows: vec![0; ports * words],
            probe: KernelProbe::default(),
        }
    }

    /// Study variant: the original *unwrapped* arbiter of Tamir & Chi's
    /// first design — the priority diagonal never rotates, so crosspoint
    /// (0,0) is permanently favoured.  Demonstrates why wrapping matters.
    pub fn fixed(ports: usize) -> Self {
        WaveFrontArbiter {
            wrapped: false,
            ..WaveFrontArbiter::new(ports)
        }
    }

    fn run<const W: usize>(&mut self, cs: &CandidateSet, out: &mut Matching) {
        let n = self.ports;
        out.clear();
        // Build the request matrix: input i requests output o if *any* of
        // its candidates targets o (the arbiter is priority-blind).
        for input in 0..n {
            let mask = cs.output_mask::<W>(input);
            for w in 0..W {
                self.rows[input * W + w] = mask.word(w);
            }
        }

        let mut row_free = PortSet::<W>::full(n);
        let mut col_free = PortSet::<W>::full(n);
        let mut cells = 0u64;
        // Sweep the N anti-diagonals starting from the rotating one.  The
        // N cells of an anti-diagonal touch N distinct rows and columns,
        // so their grants never conflict with each other — snapshotting
        // the free-row mask per diagonal is safe.
        for d in 0..n {
            let diag = (self.start_diag + d) % n;
            let mut rf = row_free;
            cells += u64::from(rf.count_ones());
            while let Some(input) = rf.take_lowest() {
                let output = (diag + n - input) % n;
                let cell = self.rows[input * W + (output >> 6)]
                    & col_free.word(output >> 6)
                    & (1u64 << (output & 63));
                if cell != 0 {
                    let (level, c) = cs
                        .best_level_for(input, output)
                        .expect("request matrix was built from candidates");
                    out.add(Grant {
                        input,
                        output,
                        vc: c.vc,
                        level,
                    });
                    row_free.remove(input);
                    col_free.remove(output);
                }
            }
        }
        if self.wrapped {
            self.start_diag = (self.start_diag + 1) % n;
        }
        self.probe.iterations(n as u64);
        self.probe.examined(cells);
        self.probe.matched(out.size() as u64);
        debug_assert!(out.is_consistent_with(cs));
    }
}

impl SwitchScheduler for WaveFrontArbiter {
    fn schedule_into(&mut self, cs: &CandidateSet, _rng: &mut SimRng, out: &mut Matching) {
        assert_eq!(cs.ports(), self.ports);
        match self.words {
            1 => self.run::<1>(cs, out),
            2 => self.run::<2>(cs, out),
            _ => self.run::<4>(cs, out),
        }
    }

    fn name(&self) -> &'static str {
        if self.wrapped {
            "Wave Front Arbiter"
        } else {
            "Wave Front Arbiter (fixed diagonal)"
        }
    }

    fn reset(&mut self) {
        self.start_diag = 0;
    }

    fn kernel_stats(&self) -> KernelStats {
        self.probe.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{Candidate, Priority};

    impl WaveFrontArbiter {
        /// The diagonal that will be served first on the next call.
        fn current_diagonal(&self) -> usize {
            self.start_diag
        }
    }

    fn cand(input: usize, vc: usize, output: usize, prio: f64) -> Candidate {
        Candidate {
            input,
            vc,
            output,
            priority: Priority::new(prio),
        }
    }

    fn rng() -> SimRng {
        SimRng::seed_from_u64(0)
    }

    #[test]
    fn empty_in_empty_out() {
        let cs = CandidateSet::new(4, 4);
        let m = WaveFrontArbiter::new(4).schedule(&cs, &mut rng());
        assert_eq!(m.size(), 0);
    }

    #[test]
    fn full_permutation_fully_granted() {
        let mut cs = CandidateSet::new(4, 1);
        for i in 0..4 {
            cs.push(cand(i, 0, (i + 2) % 4, 1.0));
        }
        let m = WaveFrontArbiter::new(4).schedule(&cs, &mut rng());
        assert_eq!(m.size(), 4);
    }

    #[test]
    fn full_permutation_fully_granted_at_multi_word_widths() {
        for ports in [96usize, 200] {
            let mut cs = CandidateSet::new(ports, 1);
            for i in 0..ports {
                cs.push(cand(i, 0, (i + 7) % ports, 1.0));
            }
            let m = WaveFrontArbiter::new(ports).schedule(&cs, &mut rng());
            assert_eq!(m.size(), ports, "ports = {ports}");
        }
    }

    #[test]
    fn ignores_priority() {
        // Inputs 0 and 1 contend for output 0.  Input 1 has a vastly
        // higher priority, but WFA's winner is decided purely by wave
        // geometry: with start_diag = 0, cell (0,0) is on the first
        // diagonal and wins.
        let mut cs = CandidateSet::new(4, 1);
        cs.push(cand(0, 0, 0, 0.001));
        cs.push(cand(1, 0, 0, 1e9));
        let m = WaveFrontArbiter::new(4).schedule(&cs, &mut rng());
        assert_eq!(m.size(), 1);
        assert!(m.grant_for(0).is_some(), "geometry, not priority, decides");
    }

    #[test]
    fn diagonal_rotates_across_cycles() {
        let mut wfa = WaveFrontArbiter::new(4);
        let mut cs = CandidateSet::new(4, 1);
        cs.push(cand(0, 0, 0, 1.0));
        cs.push(cand(1, 0, 0, 1.0));
        // Same contention every cycle; the winner must change as the
        // starting diagonal rotates.
        let mut winners = Vec::new();
        for _ in 0..4 {
            let m = wfa.schedule(&cs, &mut rng());
            winners.push(if m.grant_for(0).is_some() { 0 } else { 1 });
        }
        assert!(
            winners.contains(&0) && winners.contains(&1),
            "winners {winners:?}"
        );
    }

    #[test]
    fn reset_restores_initial_diagonal() {
        let mut wfa = WaveFrontArbiter::new(4);
        let cs = CandidateSet::new(4, 1);
        wfa.schedule(&cs, &mut rng());
        assert_eq!(wfa.current_diagonal(), 1);
        wfa.reset();
        assert_eq!(wfa.current_diagonal(), 0);
    }

    #[test]
    fn grants_use_lowest_level_candidate_for_output() {
        let mut cs = CandidateSet::new(2, 2);
        // Input 0: level-1 to output 1, level-2 to output 0.
        cs.set_input(0, &[cand(0, 3, 1, 9.0), cand(0, 7, 0, 1.0)]);
        let mut wfa = WaveFrontArbiter::new(2);
        let m = wfa.schedule(&cs, &mut rng());
        // Both grants impossible (one input); whichever output the wave
        // reaches first, the vc must match the candidate for that output.
        let g = m.grant_for(0).unwrap();
        let expected_vc = if g.output == 1 { 3 } else { 7 };
        assert_eq!(g.vc, expected_vc);
        assert!(m.is_consistent_with(&cs));
    }

    #[test]
    fn fixed_variant_never_rotates_and_starves() {
        let mut wfa = WaveFrontArbiter::fixed(4);
        let mut cs = CandidateSet::new(4, 1);
        cs.push(cand(0, 0, 0, 1.0));
        cs.push(cand(1, 0, 0, 1.0));
        // Input 0 sits on the favoured crosspoint and wins every cycle.
        for _ in 0..8 {
            let m = wfa.schedule(&cs, &mut rng());
            assert!(m.grant_for(0).is_some());
            assert!(m.grant_for(1).is_none(), "fixed diagonal starves input 1");
        }
        assert_eq!(wfa.current_diagonal(), 0);
    }

    #[test]
    fn variant_names_differ() {
        assert_ne!(
            WaveFrontArbiter::new(2).name(),
            WaveFrontArbiter::fixed(2).name()
        );
    }

    #[test]
    fn wave_front_is_maximal() {
        // WFA yields a maximal matching: no request can link a free row
        // to a free column afterwards.
        for seed in 0..50u64 {
            let mut gen = SimRng::seed_from_u64(seed);
            let mut cs = CandidateSet::new(4, 2);
            for input in 0..4 {
                let mut cands: Vec<Candidate> = (0..2)
                    .map(|vc| cand(input, vc, gen.index(4), gen.uniform()))
                    .collect();
                cands.sort_by_key(|c| core::cmp::Reverse(c.priority));
                cs.set_input(input, &cands);
            }
            let mut wfa = WaveFrontArbiter::new(4);
            let m = wfa.schedule(&cs, &mut rng());
            for c in cs.iter() {
                assert!(m.input_matched(c.input) || m.output_matched(c.output));
            }
        }
    }
}
