//! Head-of-line blocking demonstration (paper §2, "Input Buffers").
//!
//! The MMR gives every connection its own virtual channel "thus avoiding
//! HOL-blocking", citing Karol, Hluchyj & Morgan's classic result: an
//! input-queued switch with a single FIFO per input saturates at
//! **2 − √2 ≈ 58.6 %** throughput under uniform traffic, because a blocked
//! head flit strands every flit queued behind it.
//!
//! This module is a deliberately minimal model of that *rejected* design —
//! one FIFO per input, no virtual channels — so the repository can
//! regenerate the number that motivates the MMR's VC memory.  No shipped
//! code runs the model: it lives in the module's tests, which reproduce
//! the limit.

#[cfg(test)]
mod tests {
    use mmr_sim::rng::SimRng;
    use std::collections::VecDeque;

    /// A single-FIFO-per-input crossbar switch under Bernoulli uniform
    /// traffic.
    #[derive(Debug)]
    struct FifoSwitch {
        ports: usize,
        queues: Vec<VecDeque<usize>>, // destination of each queued cell
        rng: SimRng,
        delivered: u64,
        generated: u64,
        cycles: u64,
    }

    impl FifoSwitch {
        /// A switch with `ports` inputs/outputs.
        fn new(ports: usize, seed: u64) -> Self {
            assert!(ports > 0);
            FifoSwitch {
                ports,
                queues: (0..ports).map(|_| VecDeque::new()).collect(),
                rng: SimRng::seed_from_u64(seed),
                delivered: 0,
                generated: 0,
                cycles: 0,
            }
        }

        /// Advance one cell time at offered load `p` (per input, uniform
        /// random destinations): arrivals, then head-of-line arbitration
        /// (random among contenders — Karol's model), then service.
        #[allow(clippy::needless_range_loop)] // per-port indexing
        fn step(&mut self, p: f64) {
            // Arrivals.
            for input in 0..self.ports {
                if self.rng.uniform() < p {
                    let dest = self.rng.index(self.ports);
                    self.queues[input].push_back(dest);
                    self.generated += 1;
                }
            }
            // HOL arbitration: only the head cell of each FIFO may compete.
            let mut contenders: Vec<Vec<usize>> = vec![Vec::new(); self.ports];
            for input in 0..self.ports {
                if let Some(&dest) = self.queues[input].front() {
                    contenders[dest].push(input);
                }
            }
            for dest in 0..self.ports {
                if contenders[dest].is_empty() {
                    continue;
                }
                let winner = contenders[dest][self.rng.index(contenders[dest].len())];
                self.queues[winner].pop_front();
                self.delivered += 1;
            }
            self.cycles += 1;
        }

        /// Run `cycles` cell times at offered load `p`.
        fn run(&mut self, p: f64, cycles: u64) {
            for _ in 0..cycles {
                self.step(p);
            }
        }

        /// Delivered cells per input per cycle — the carried throughput.
        fn throughput(&self) -> f64 {
            if self.cycles == 0 {
                return 0.0;
            }
            self.delivered as f64 / (self.cycles as f64 * self.ports as f64)
        }

        /// Total cells still queued.
        fn backlog(&self) -> usize {
            self.queues.iter().map(VecDeque::len).sum()
        }

        /// Karol et al.'s asymptotic FIFO saturation throughput.
        const KAROL_LIMIT: f64 = 0.5857864376269049; // 2 - sqrt(2)
    }

    #[test]
    fn below_limit_carries_offered_load() {
        let mut sw = FifoSwitch::new(8, 1);
        sw.run(0.4, 200_000);
        let t = sw.throughput();
        assert!((t - 0.4).abs() < 0.01, "throughput {t} at load 0.4");
        assert!(
            sw.backlog() < 200,
            "backlog {} should be bounded",
            sw.backlog()
        );
    }

    #[test]
    fn saturates_near_karol_limit() {
        // Offer full load: carried throughput must cap near 2 - sqrt(2).
        // (The exact limit is asymptotic in N; finite N saturates a bit
        // higher — ~0.62-0.66 for N in the 4-16 range.)
        let mut sw = FifoSwitch::new(16, 2);
        sw.run(1.0, 300_000);
        let t = sw.throughput();
        assert!(
            (FifoSwitch::KAROL_LIMIT - 0.02..0.66).contains(&t),
            "FIFO switch throughput {t} should sit near the 58.6% HOL limit"
        );
    }

    #[test]
    fn larger_switches_approach_the_asymptote_from_above() {
        let run = |ports| {
            let mut sw = FifoSwitch::new(ports, 3);
            sw.run(1.0, 200_000);
            sw.throughput()
        };
        let small = run(4);
        let large = run(32);
        assert!(
            large < small,
            "HOL throughput must shrink with N: N=4 -> {small}, N=32 -> {large}"
        );
        assert!(
            (large - FifoSwitch::KAROL_LIMIT).abs() < 0.02,
            "N=32 throughput {large}"
        );
    }

    #[test]
    fn conservation() {
        let mut sw = FifoSwitch::new(4, 4);
        sw.run(0.9, 50_000);
        assert_eq!(sw.generated, sw.delivered + sw.backlog() as u64);
    }
}
