//! The switch-scheduler abstraction and the arbiter registry.

use crate::candidate::CandidateSet;
use crate::matching::Matching;
use mmr_sim::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Logical work counters an arbitration kernel accumulates in its
/// [`KernelProbe`].  These measure algorithmic effort independent of wall
/// time, so they are exactly reproducible: how many candidates the kernel
/// visited, how many conflict-vector entries it retired, how many
/// matching iterations it ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelStats {
    /// `schedule_into` calls counted.
    pub matchings: u64,
    /// Grants issued across those calls.
    pub grants: u64,
    /// Candidate requests examined (inner-loop visits).
    pub candidates_examined: u64,
    /// Conflict-vector entries retired (COA) — zero for kernels without a
    /// conflict vector.
    pub conflicts_retired: u64,
    /// Matching iterations: COA grant loop passes, WFA diagonals swept,
    /// iSLIP/PIM grant-accept passes, one per call for single-pass
    /// kernels.
    pub iterations: u64,
}

impl KernelStats {
    /// Mean iterations per matching (0 when nothing was recorded).
    pub fn iterations_per_matching(&self) -> f64 {
        if self.matchings == 0 {
            0.0
        } else {
            self.iterations as f64 / self.matchings as f64
        }
    }

    /// Mean candidates examined per matching (0 when nothing recorded).
    pub fn examined_per_matching(&self) -> f64 {
        if self.matchings == 0 {
            0.0
        } else {
            self.candidates_examined as f64 / self.matchings as f64
        }
    }
}

/// Work-count probe embedded in every optimized kernel.
///
/// The probe always counts, from the kernel's construction: a few plain
/// adds per `schedule_into` call, with no branch in the kernel inner
/// loops and no RNG interaction, so it can never perturb the matchings
/// (the differential tests pin this).  Kernels batch inner-loop counts
/// into locals and feed the probe once per loop.  Telemetry reads the
/// counters only when a router is armed.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelProbe {
    stats: KernelStats,
}

impl KernelProbe {
    /// Count `n` candidate requests examined.
    #[inline]
    pub fn examined(&mut self, n: u64) {
        self.stats.candidates_examined += n;
    }

    /// Count `n` conflict-vector entries retired.
    #[inline]
    pub fn retired(&mut self, n: u64) {
        self.stats.conflicts_retired += n;
    }

    /// Count `n` matching iterations.
    #[inline]
    pub fn iterations(&mut self, n: u64) {
        self.stats.iterations += n;
    }

    /// Close one `schedule_into` call that produced `grants` grants.
    #[inline]
    pub fn matched(&mut self, grants: u64) {
        self.stats.matchings += 1;
        self.stats.grants += grants;
    }

    /// Accumulated counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }
}

/// A crossbar arbitration algorithm.
///
/// Schedulers may keep state across cycles (WFA's rotating diagonal,
/// iSLIP's pointers); `schedule` is called once per flit cycle with the
/// candidate vectors produced by link scheduling and must return a
/// conflict-free matching.
pub trait SwitchScheduler: Send {
    /// Compute a matching for this cycle into `out`, which is cleared
    /// first and may be reused across cycles — the hot path allocates
    /// nothing.  `rng` is the router's arbiter RNG stream, used for
    /// tie-breaks.
    fn schedule_into(&mut self, candidates: &CandidateSet, rng: &mut SimRng, out: &mut Matching);

    /// Convenience wrapper allocating a fresh [`Matching`] per call.
    fn schedule(&mut self, candidates: &CandidateSet, rng: &mut SimRng) -> Matching {
        let mut out = Matching::new(candidates.ports());
        self.schedule_into(candidates, rng, &mut out);
        out
    }

    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;

    /// Reset any cross-cycle state (pointers, diagonals).
    fn reset(&mut self) {}

    /// Work counters the kernel's [`KernelProbe`] accumulated since
    /// construction (all zero for reference transcriptions and custom
    /// schedulers without a probe).
    fn kernel_stats(&self) -> KernelStats {
        KernelStats::default()
    }
}

/// Serializable arbiter selector used by experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArbiterKind {
    /// The paper's Candidate-Order Arbiter.
    Coa,
    /// Wrapped Wave Front Arbiter.
    Wfa,
    /// Unwrapped WFA (fixed priority diagonal) — study variant.
    WfaFixed,
    /// iSLIP with the given number of iterations.
    Islip {
        /// Request-grant-accept iterations per cycle.
        iterations: usize,
    },
    /// Parallel Iterative Matching with the given number of iterations.
    Pim {
        /// Random grant/accept iterations per cycle.
        iterations: usize,
    },
    /// Greedy by global priority order.
    GreedyPriority,
    /// Random maximal matching.
    Random,
    /// Maximum-weight matching oracle: exact (Hungarian) up to
    /// [`crate::mwm::EXACT_PORT_LIMIT`] ports, greedy ½-approximation
    /// beyond — the optimality frontier the practical arbiters are
    /// measured against.
    MwmExact,
    /// Greedy ½-approximate maximum-weight matching at every width.
    MwmApprox,
    /// Frame-based fair scheduler (NoC fairness): per-crosspoint grant
    /// quotas over a frame of busy cycles.
    FrameFair {
        /// Frame length in arbitration cycles.
        frame: u32,
    },
    /// Crosspoint-queued switch model: virtual per-crosspoint queues,
    /// per-output longest-queue-first selection.
    CrosspointQueued {
        /// Crosspoint buffer depth (pressure saturation cap).
        cap: u32,
    },
}

impl ArbiterKind {
    /// Instantiate the scheduler for a router with `ports` ports.
    pub fn instantiate(self, ports: usize) -> Box<dyn SwitchScheduler> {
        match self {
            ArbiterKind::Coa => Box::new(crate::coa::CandidateOrderArbiter::new(ports)),
            ArbiterKind::Wfa => Box::new(crate::wfa::WaveFrontArbiter::new(ports)),
            ArbiterKind::WfaFixed => Box::new(crate::wfa::WaveFrontArbiter::fixed(ports)),
            ArbiterKind::Islip { iterations } => {
                Box::new(crate::islip::IslipArbiter::new(ports, iterations))
            }
            ArbiterKind::Pim { iterations } => {
                Box::new(crate::pim::PimArbiter::new(ports, iterations))
            }
            ArbiterKind::GreedyPriority => {
                Box::new(crate::greedy::GreedyPriorityArbiter::new(ports))
            }
            ArbiterKind::Random => Box::new(crate::random::RandomArbiter::new(ports)),
            ArbiterKind::MwmExact => Box::new(crate::mwm::MwmArbiter::new(ports)),
            ArbiterKind::MwmApprox => Box::new(crate::mwm::MwmArbiter::approx(ports)),
            ArbiterKind::FrameFair { frame } => {
                Box::new(crate::frame::FrameFairArbiter::new(ports, frame))
            }
            ArbiterKind::CrosspointQueued { cap } => {
                Box::new(crate::cq::CrosspointQueuedArbiter::new(ports, cap))
            }
        }
    }

    /// Instantiate the golden reference implementation of the same
    /// algorithm (see [`crate::reference`]) — unoptimized but known-good,
    /// used by differential tests and the benchmark harness.
    pub fn instantiate_reference(self, ports: usize) -> Box<dyn SwitchScheduler> {
        use crate::reference as r;
        match self {
            ArbiterKind::Coa => Box::new(r::ReferenceCoa::new(ports)),
            ArbiterKind::Wfa => Box::new(r::ReferenceWfa::new(ports)),
            ArbiterKind::WfaFixed => Box::new(r::ReferenceWfa::fixed(ports)),
            ArbiterKind::Islip { iterations } => {
                Box::new(r::ReferenceIslip::new(ports, iterations))
            }
            ArbiterKind::Pim { iterations } => Box::new(r::ReferencePim::new(ports, iterations)),
            ArbiterKind::GreedyPriority => Box::new(r::ReferenceGreedy::new(ports)),
            ArbiterKind::Random => Box::new(r::ReferenceRandom::new(ports)),
            ArbiterKind::MwmExact => Box::new(r::ReferenceMwm::new(ports)),
            ArbiterKind::MwmApprox => Box::new(r::ReferenceMwm::approx(ports)),
            ArbiterKind::FrameFair { frame } => Box::new(r::ReferenceFrameFair::new(ports, frame)),
            ArbiterKind::CrosspointQueued { cap } => Box::new(r::ReferenceCq::new(ports, cap)),
        }
    }

    /// Short label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            ArbiterKind::Coa => "COA",
            ArbiterKind::Wfa => "WFA",
            ArbiterKind::WfaFixed => "WFA-fix",
            ArbiterKind::Islip { .. } => "iSLIP",
            ArbiterKind::Pim { .. } => "PIM",
            ArbiterKind::GreedyPriority => "Greedy",
            ArbiterKind::Random => "Random",
            ArbiterKind::MwmExact => "MWM",
            ArbiterKind::MwmApprox => "MWM-apx",
            ArbiterKind::FrameFair { .. } => "FrameFair",
            ArbiterKind::CrosspointQueued { .. } => "CQ",
        }
    }

    /// Every selectable arbiter with default parameters, for comparison
    /// sweeps.
    pub fn all() -> Vec<ArbiterKind> {
        vec![
            ArbiterKind::Coa,
            ArbiterKind::Wfa,
            ArbiterKind::WfaFixed,
            ArbiterKind::Islip { iterations: 2 },
            ArbiterKind::Pim { iterations: 2 },
            ArbiterKind::GreedyPriority,
            ArbiterKind::Random,
            ArbiterKind::MwmExact,
            ArbiterKind::MwmApprox,
            ArbiterKind::FrameFair {
                frame: crate::frame::DEFAULT_FRAME,
            },
            ArbiterKind::CrosspointQueued {
                cap: crate::cq::DEFAULT_CAP,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiate_all_kinds() {
        for kind in ArbiterKind::all() {
            let sched = kind.instantiate(4);
            assert!(!sched.name().is_empty());
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = ArbiterKind::all().into_iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ArbiterKind::all().len());
    }
}
