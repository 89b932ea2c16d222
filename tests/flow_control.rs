//! Flow-control integration tests.
//!
//! The VC memory panics on overflow and the credit bank panics on
//! underflow/over-return, so *any* credit-protocol violation aborts these
//! tests.  Running saturating workloads through tiny buffers is therefore
//! itself the assertion.

use mmr_core::arbiter::scheduler::ArbiterKind;
use mmr_core::config::{vbr_cycle_budget, InjectionKind, RunLength, SimConfig, WorkloadSpec};
use mmr_core::experiment::{build_router, build_workload, run_experiment};
use mmr_core::router::config::RouterConfig;
use mmr_core::router::fault::FaultProfile;
use mmr_core::sim::engine::CycleModel;
use mmr_core::sim::fault::{FaultEvent, FaultKind, FaultPlan};
use mmr_core::sim::time::FlitCycle;
use proptest::prelude::*;

#[test]
fn single_flit_buffers_never_overflow_under_saturation() {
    // The harshest case: 1-flit VC buffers at 90% offered load.  Credits
    // are the only thing standing between the NIC and an overflow.
    let cfg = SimConfig {
        router: RouterConfig {
            vc_buffer_flits: 1,
            ..Default::default()
        },
        workload: WorkloadSpec::cbr(0.9),
        warmup_cycles: 0,
        run: RunLength::Cycles(20_000),
        ..Default::default()
    };
    let r = run_experiment(&cfg);
    assert!(r.summary.delivered_flits > 0);
    // With depth-1 buffers total VC occupancy is bounded by connections.
    assert!(r.summary.peak_vc_occupancy <= r.connections);
}

#[test]
fn every_arbiter_respects_credits_with_tiny_buffers() {
    for kind in ArbiterKind::all() {
        let cfg = SimConfig {
            router: RouterConfig {
                vc_buffer_flits: 2,
                ..Default::default()
            },
            workload: WorkloadSpec::cbr(0.85),
            arbiter: kind,
            warmup_cycles: 0,
            run: RunLength::Cycles(8_000),
            ..Default::default()
        };
        let r = run_experiment(&cfg);
        assert!(
            r.summary.peak_vc_occupancy <= r.connections * 2,
            "{}: peak occupancy exceeded credit budget",
            kind.label()
        );
    }
}

#[test]
fn vc_occupancy_bounded_by_credit_budget() {
    // Peak total occupancy can never exceed connections x buffer depth.
    for depth in [1usize, 3, 4, 8] {
        let cfg = SimConfig {
            router: RouterConfig {
                vc_buffer_flits: depth,
                ..Default::default()
            },
            workload: WorkloadSpec::cbr(0.8),
            warmup_cycles: 0,
            run: RunLength::Cycles(10_000),
            ..Default::default()
        };
        let r = run_experiment(&cfg);
        assert!(
            r.summary.peak_vc_occupancy <= r.connections * depth,
            "depth {depth}: {} > {}",
            r.summary.peak_vc_occupancy,
            r.connections * depth
        );
    }
}

#[test]
fn bursty_vbr_respects_flow_control() {
    // Back-to-back MPEG-2 bursts hammer the input links; credits must
    // absorb them without loss (conservation) or overflow (no panic).
    let cfg = SimConfig {
        router: RouterConfig {
            vc_buffer_flits: 2,
            ..Default::default()
        },
        workload: WorkloadSpec::Vbr {
            target_load: 0.85,
            gops: 1,
            injection: InjectionKind::BackToBack,
            enforce_peak: false,
        },
        warmup_cycles: 0,
        run: RunLength::UntilDrained {
            max_cycles: vbr_cycle_budget(1),
        },
        ..Default::default()
    };
    let r = run_experiment(&cfg);
    let total_gen: u64 = r.summary.metrics.classes.iter().map(|c| c.generated).sum();
    let total_del: u64 = r.summary.metrics.classes.iter().map(|c| c.delivered).sum();
    if r.drained {
        assert_eq!(total_gen, total_del, "drained run must conserve flits");
    } else {
        // Saturated within the budget: delivered + backlog = generated
        // over the whole run (conservation still holds globally).
        assert_eq!(
            r.summary.generated_flits,
            r.summary.delivered_flits + r.summary.backlog_flits as u64,
            "flits leaked somewhere in the pipeline"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary credit-loss/duplication patterns (DESIGN.md §10): the
    /// credit watchdog must resynchronize every counter, flits must be
    /// conserved, and the router must keep delivering — no pattern of
    /// credit damage may deadlock the pipeline.
    #[test]
    fn watchdog_recovers_from_arbitrary_credit_fault_patterns(
        pattern in proptest::collection::vec(
            (0u64..2_000, 0usize..64, 0usize..2),
            1..48,
        ),
        seed in 0u64..1_000,
    ) {
        let cfg = SimConfig {
            workload: WorkloadSpec::cbr(0.5),
            seed,
            ..Default::default()
        };
        let workload = build_workload(&cfg);
        let mut router = build_router(&cfg, workload);
        let conns = router.connections().len();
        let events: Vec<FaultEvent> = pattern
            .iter()
            .map(|&(at, conn, kind)| FaultEvent {
                at: 500 + at,
                kind: if kind == 0 {
                    FaultKind::DropCredit { conn: conn % conns }
                } else {
                    FaultKind::DuplicateCredit { conn: conn % conns }
                },
            })
            .collect();
        let n_events = events.len() as u64;
        router.set_faults(FaultPlan::from_events(events), FaultProfile::default());

        router.on_measurement_start(FlitCycle(0));
        for t in 0..2_500 {
            router.step(FlitCycle(t), true);
        }
        let mid: u64 = router.delivered_per_connection().iter().sum();
        prop_assert!(mid > 0, "no deliveries during the fault window");

        // Recovery: run to just past a watchdog cycle (period 64) so the
        // final resync has seen every credit movement, including returns
        // stolen late by still-pending DropCredit events.
        for t in 2_500..=3_968 {
            router.step(FlitCycle(t), true);
        }
        prop_assert!(
            router.credits_consistent(),
            "watchdog failed to resynchronize credit counters"
        );
        let end: u64 = router.delivered_per_connection().iter().sum();
        prop_assert!(end > mid, "router stopped delivering after credit faults");

        let s = router.summary();
        prop_assert_eq!(s.faults.events_fired, n_events);
        // Credit faults never corrupt links; the only losses allowed are
        // phantom-credit discards, and conservation must account for them.
        prop_assert_eq!(s.faults.corrupted_flits, 0u64);
        prop_assert_eq!(
            s.generated_flits,
            s.delivered_flits + s.backlog_flits as u64 + s.faults.lost_flits(),
            "flits leaked under credit faults"
        );
    }
}

#[test]
fn conservation_holds_at_every_load() {
    for load in [0.2, 0.5, 0.8, 0.95] {
        let cfg = SimConfig {
            workload: WorkloadSpec::cbr(load),
            warmup_cycles: 0,
            run: RunLength::Cycles(5_000),
            ..Default::default()
        };
        let r = run_experiment(&cfg);
        assert_eq!(
            r.summary.generated_flits,
            r.summary.delivered_flits + r.summary.backlog_flits as u64,
            "load {load}: generated != delivered + backlog"
        );
    }
}
