//! Canned configurations reproducing each experiment of the paper.
//!
//! Every figure has a [`Fidelity::Quick`] variant (seconds; used by tests
//! and CI) and a [`Fidelity::Full`] variant (minutes; used by the bench
//! binaries that regenerate the figures).  The quick variants use shorter
//! runs and fewer GOPs but identical structure, so shapes are preserved —
//! only statistical smoothness differs.

use crate::config::{
    BestEffortSpec, FabricSpec, FaultSpec, InjectionKind, RunLength, SimConfig, WorkloadSpec,
};
use crate::sweep::SweepSpec;
use mmr_arbiter::scheduler::ArbiterKind;
use mmr_router::fabric::Topology;
use mmr_router::fault::FaultProfile;
use mmr_sim::fault::FaultPlanConfig;

/// How much simulation to spend per point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Short runs for tests and smoke checks.
    Quick,
    /// Paper-scale runs for figure regeneration.
    Full,
}

impl Fidelity {
    /// `"quick"` / `"full"`, as reports record it.
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::Quick => "quick",
            Fidelity::Full => "full",
        }
    }
}

/// Flit cycles needed for `gops` GOPs (15 frames × 33 ms each) plus a
/// drain margin.
pub fn vbr_cycle_budget(gops: usize) -> u64 {
    let tb = mmr_sim::time::TimeBase::default();
    let frames = gops as u64 * mmr_traffic::mpeg::GOP_PATTERN.len() as u64;
    let per_frame = (mmr_traffic::mpeg::FRAME_TIME_SECS / tb.flit_cycle_secs()).ceil() as u64;
    // 3x margin: GOP-phase offsets plus post-saturation drain.
    frames * per_frame * 3
}

/// Fig. 5 — average flit delay vs offered load, CBR mix, COA vs WFA.
pub fn fig5(fidelity: Fidelity) -> SweepSpec {
    let (warmup, cycles, loads): (u64, u64, Vec<f64>) = match fidelity {
        Fidelity::Quick => (2_000, 25_000, vec![0.3, 0.5, 0.7, 0.8, 0.9]),
        Fidelity::Full => (
            20_000,
            400_000,
            vec![
                0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9,
            ],
        ),
    };
    let base = SimConfig {
        workload: WorkloadSpec::cbr(0.5),
        warmup_cycles: warmup,
        run: RunLength::Cycles(cycles),
        ..Default::default()
    };
    SweepSpec::coa_vs_wfa(base, loads)
}

/// Figs. 8 & 9 — VBR (MPEG-2) sweeps; `injection` selects the SR or BB
/// panel.  Fig. 8 reads crossbar utilization off the results, Fig. 9 the
/// frame delay — same runs.
pub fn fig8_fig9(injection: InjectionKind, fidelity: Fidelity) -> SweepSpec {
    let (gops, loads): (usize, Vec<f64>) = match fidelity {
        Fidelity::Quick => (1, vec![0.4, 0.6, 0.75, 0.85]),
        Fidelity::Full => (
            4,
            vec![0.4, 0.5, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95],
        ),
    };
    let base = SimConfig {
        workload: WorkloadSpec::Vbr {
            target_load: 0.5,
            gops,
            injection,
            enforce_peak: false,
        },
        warmup_cycles: 0,
        run: RunLength::UntilDrained {
            max_cycles: vbr_cycle_budget(gops),
        },
        ..Default::default()
    };
    SweepSpec::coa_vs_wfa(base, loads)
}

/// §5.2 jitter measurements reuse the Fig. 9 runs.
pub fn jitter(injection: InjectionKind, fidelity: Fidelity) -> SweepSpec {
    fig8_fig9(injection, fidelity)
}

/// Arbiter-field comparison (ablation): all schedulers on the CBR mix.
pub fn arbiter_field(fidelity: Fidelity) -> SweepSpec {
    let mut spec = fig5(fidelity);
    spec.arbiters = ArbiterKind::all();
    spec
}

/// The fabric scaling scenario backing the BENCH fabric section and CI
/// gate: a 4×4 mesh of MMRs (16 routers) under the CBR mix at load 0.6,
/// measured at several worker counts.  Results are bit-identical across
/// worker counts; only wall-clock differs.
pub fn fabric_mesh(fidelity: Fidelity) -> SimConfig {
    let (warmup, cycles): (u64, u64) = match fidelity {
        Fidelity::Quick => (1_000, 15_000),
        Fidelity::Full => (5_000, 60_000),
    };
    SimConfig {
        workload: WorkloadSpec::cbr(0.6),
        warmup_cycles: warmup,
        run: RunLength::Cycles(cycles),
        ..Default::default()
    }
    .with_fabric(FabricSpec::new(Topology::Mesh { x: 4, y: 4 }))
}

/// A chaos experiment: one base configuration plus the fault-rate
/// multipliers to sweep (factor 0 generates an empty plan — the
/// fault-free baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Base configuration; `fault` holds the factor-1 [`FaultSpec`].
    pub base: SimConfig,
    /// Fault-rate multipliers to visit, in order.
    pub factors: Vec<f64>,
}

impl ChaosSpec {
    /// One config per factor, each with its fault rates scaled.
    pub fn configs(&self) -> Vec<SimConfig> {
        let fault = self.base.fault.unwrap_or_default();
        self.factors
            .iter()
            .map(|&f| self.base.with_fault(fault.scaled(f)))
            .collect()
    }
}

/// QoS under fault injection: a CBR mix with best-effort background
/// traffic, a mid-run fault window, and delay-bound accounting, swept
/// over fault-rate multipliers.  Guaranteed connections should hold their
/// bounds while best-effort absorbs the damage (DESIGN.md §10).
pub fn chaos(fidelity: Fidelity) -> ChaosSpec {
    let (cycles, window_start, window_len, factors): (u64, u64, u64, Vec<f64>) = match fidelity {
        Fidelity::Quick => (20_000, 5_000, 10_000, vec![0.0, 1.0, 4.0]),
        Fidelity::Full => (
            80_000,
            10_000,
            40_000,
            vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
        ),
    };
    let base = SimConfig {
        workload: WorkloadSpec::cbr(0.5),
        best_effort: Some(BestEffortSpec::default()),
        warmup_cycles: 0,
        run: RunLength::Cycles(cycles),
        fault: Some(FaultSpec {
            plan: FaultPlanConfig {
                window_start,
                window_len,
                ..Default::default()
            },
            profile: FaultProfile {
                delay_bound_flit_cycles: Some(64),
                ..Default::default()
            },
        }),
        ..Default::default()
    };
    ChaosSpec { base, factors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vbr_budget_covers_gops() {
        // 4 GOPs = 60 frames x ~39,950 flit cycles/frame ≈ 2.4M; with 3x
        // margin the budget lands around 7M.
        let b = vbr_cycle_budget(4);
        assert!(b > 2_400_000 * 2 && b < 2_400_000 * 4, "budget {b}");
    }

    #[test]
    fn fig5_spec_is_coa_vs_wfa() {
        let s = fig5(Fidelity::Quick);
        assert_eq!(s.arbiters, vec![ArbiterKind::Coa, ArbiterKind::Wfa]);
        assert!(s.loads.len() >= 4);
        assert!(matches!(s.base.run, RunLength::Cycles(_)));
    }

    #[test]
    fn fig8_spec_drains_vbr() {
        let s = fig8_fig9(InjectionKind::BackToBack, Fidelity::Quick);
        match &s.base.workload {
            WorkloadSpec::Vbr {
                injection, gops, ..
            } => {
                assert_eq!(*injection, InjectionKind::BackToBack);
                assert!(*gops >= 1);
            }
            _ => panic!("wrong workload kind"),
        }
        assert!(matches!(s.base.run, RunLength::UntilDrained { .. }));
    }

    #[test]
    fn full_fidelity_is_strictly_larger() {
        let q = fig5(Fidelity::Quick);
        let f = fig5(Fidelity::Full);
        assert!(f.loads.len() > q.loads.len());
        let (RunLength::Cycles(qc), RunLength::Cycles(fc)) = (q.base.run, f.base.run) else {
            panic!()
        };
        assert!(fc > qc);
    }

    #[test]
    fn arbiter_field_covers_all() {
        let s = arbiter_field(Fidelity::Quick);
        assert_eq!(s.arbiters.len(), ArbiterKind::all().len());
    }

    #[test]
    fn fabric_scenario_is_a_16_router_mesh_at_load_0_6() {
        let cfg = fabric_mesh(Fidelity::Quick);
        let spec = cfg.fabric.expect("fabric scenario carries a spec");
        assert_eq!(spec.topology.node_count(), 16);
        assert_eq!(cfg.workload.target_load(), 0.6);
        let full = fabric_mesh(Fidelity::Full);
        let (RunLength::Cycles(q), RunLength::Cycles(f)) = (cfg.run, full.run) else {
            panic!()
        };
        assert!(f > q);
    }

    #[test]
    fn chaos_spec_scales_fault_rates_per_factor() {
        let s = chaos(Fidelity::Quick);
        assert_eq!(s.factors[0], 0.0, "first factor is the clean baseline");
        let configs = s.configs();
        assert_eq!(configs.len(), s.factors.len());
        let base_rate = s.base.fault.unwrap().plan.corrupt_per_kcycle;
        for (cfg, &f) in configs.iter().zip(&s.factors) {
            let fault = cfg.fault.expect("every chaos config carries faults");
            assert_eq!(fault.plan.corrupt_per_kcycle, base_rate * f);
            assert_eq!(fault.profile.delay_bound_flit_cycles, Some(64));
            // Only fault rates vary across the sweep.
            assert_eq!(cfg.workload, s.base.workload);
            assert_eq!(cfg.seed, s.base.seed);
        }
    }
}
