//! End-to-end integration tests: full pipeline (sources → NIC → router →
//! sinks) across the traffic, arbiter, router, and core crates.

use mmr_core::arbiter::scheduler::ArbiterKind;
use mmr_core::config::{vbr_cycle_budget, InjectionKind, RunLength, SimConfig, WorkloadSpec};
use mmr_core::experiment::{build_router, build_workload, run_experiment};
use mmr_core::sim::engine::{Runner, StopCondition};
use mmr_core::traffic::connection::TrafficClass;

#[test]
fn cbr_pipeline_delivers_all_classes() {
    let cfg = SimConfig {
        workload: WorkloadSpec::cbr(0.6),
        warmup_cycles: 2_000,
        run: RunLength::Cycles(40_000),
        ..Default::default()
    };
    let r = run_experiment(&cfg);
    for class in [
        TrafficClass::CbrLow,
        TrafficClass::CbrMedium,
        TrafficClass::CbrHigh,
    ] {
        let c = r
            .summary
            .metrics
            .class(class)
            .unwrap_or_else(|| panic!("{class:?} missing"));
        assert!(c.delivered > 0, "{class:?} delivered nothing");
    }
    assert!(
        r.summary.throughput_ratio() > 0.98,
        "60% load must not saturate"
    );
}

#[test]
fn vbr_pipeline_conserves_flits() {
    // Every generated flit is eventually delivered — nothing is lost or
    // duplicated anywhere in the NIC / VC / crossbar pipeline.
    let cfg = SimConfig {
        workload: WorkloadSpec::Vbr {
            target_load: 0.5,
            gops: 1,
            injection: InjectionKind::SmoothRate,
            enforce_peak: false,
        },
        warmup_cycles: 0,
        run: RunLength::UntilDrained {
            max_cycles: vbr_cycle_budget(1),
        },
        ..Default::default()
    };
    let r = run_experiment(&cfg);
    assert!(r.drained, "0.5 load VBR must drain fully");
    let vbr = r.summary.metrics.class(TrafficClass::Vbr).unwrap();
    assert_eq!(vbr.generated, vbr.delivered, "flit conservation violated");
    assert_eq!(r.summary.backlog_flits, 0);
}

#[test]
fn vbr_delivers_every_frame_exactly_once() {
    let cfg = SimConfig {
        workload: WorkloadSpec::Vbr {
            target_load: 0.4,
            gops: 2,
            injection: InjectionKind::BackToBack,
            enforce_peak: false,
        },
        warmup_cycles: 0,
        run: RunLength::UntilDrained {
            max_cycles: vbr_cycle_budget(2),
        },
        ..Default::default()
    };
    let workload = build_workload(&cfg);
    let expected_frames: u64 =
        workload.connections.len() as u64 * 2 * mmr_core::traffic::mpeg::GOP_PATTERN.len() as u64;
    let mut router = build_router(&cfg, workload);
    let out =
        Runner::new(0, StopCondition::ModelDoneOrCycles(vbr_cycle_budget(2))).run(&mut router);
    assert!(out.model_finished, "router must drain");
    assert_eq!(router.summary().metrics.frames_delivered, expected_frames);
}

#[test]
fn crossbar_never_exceeds_port_capacity() {
    // Delivered flits per output can never exceed one per cycle.
    let cfg = SimConfig {
        workload: WorkloadSpec::cbr(0.9),
        warmup_cycles: 0,
        run: RunLength::Cycles(10_000),
        ..Default::default()
    };
    let r = run_experiment(&cfg);
    for (port, &delivered) in r.summary.delivered_per_output.iter().enumerate() {
        assert!(
            delivered <= 10_000,
            "output {port} delivered {delivered} flits in 10k cycles"
        );
    }
    // And the total can't exceed ports x cycles.
    assert!(r.summary.delivered_flits <= 4 * 10_000);
}

#[test]
fn utilization_approximates_carried_load_below_saturation() {
    for load in [0.3, 0.5, 0.7] {
        let cfg = SimConfig {
            workload: WorkloadSpec::cbr(load),
            warmup_cycles: 3_000,
            run: RunLength::Cycles(30_000),
            ..Default::default()
        };
        let r = run_experiment(&cfg);
        assert!(
            (r.summary.crossbar_utilization - r.achieved_load).abs() < 0.06,
            "load {load}: utilization {} vs achieved {}",
            r.summary.crossbar_utilization,
            r.achieved_load
        );
    }
}

#[test]
fn all_arbiters_run_the_full_pipeline() {
    for kind in ArbiterKind::all() {
        let cfg = SimConfig {
            workload: WorkloadSpec::cbr(0.5),
            arbiter: kind,
            warmup_cycles: 500,
            run: RunLength::Cycles(8_000),
            ..Default::default()
        };
        let r = run_experiment(&cfg);
        assert!(
            r.summary.delivered_flits > 0,
            "{} delivered nothing",
            kind.label()
        );
        assert!(
            r.summary.throughput_ratio() > 0.9,
            "{} throughput {} at 50% load",
            kind.label(),
            r.summary.throughput_ratio()
        );
    }
}

#[test]
fn line_network_end_to_end() {
    use mmr_core::arbiter::priority::PriorityKind;
    use mmr_core::router::config::RouterConfig;
    use mmr_core::router::fabric::{Fabric, FabricConfig, Topology};
    use mmr_core::sim::rng::SimRng;
    use mmr_core::traffic::admission::RoundConfig;
    use mmr_core::traffic::workload::CbrMixBuilder;

    let cfg = RouterConfig::default();
    let mut rng = SimRng::seed_from_u64(11);
    let w = CbrMixBuilder::new(cfg.ports, cfg.time, RoundConfig::default())
        .target_load(0.4)
        .build(&mut rng);
    let conns = w.len();
    let fabric_cfg = FabricConfig::new(cfg, Topology::Line { stages: 3 });
    let mut net = Fabric::new(fabric_cfg, w, ArbiterKind::Coa, PriorityKind::Siabp, 11);
    assert_eq!(net.node_count(), 3);
    for conn in 0..conns {
        assert_eq!(net.path_of(conn).len(), 3);
    }
    Runner::new(1_000, StopCondition::Cycles(12_000)).run(&mut net);
    let s = net.summary();
    assert!(s.delivered_flits > 0);
    assert!((s.delivered_flits as f64 / s.generated_flits as f64) > 0.95);
}

#[test]
fn mix_ramp_admits_exactly_at_each_breakpoint() {
    // The declared ramp schedule is a contract: at every breakpoint the
    // number of active connections equals the schedule's own accounting
    // (round(fraction * population)), not merely "roughly more".
    use mmr_core::config::{MixGroup, RampScheduleConfig, RampStepConfig};

    let steps = [(0u64, 0.25f64), (4_000, 0.5), (8_000, 1.0)];
    let ramp = RampScheduleConfig {
        steps: steps
            .iter()
            .map(|&(at_cycle, fraction)| RampStepConfig { at_cycle, fraction })
            .collect(),
    };
    let cfg = SimConfig {
        workload: WorkloadSpec::Mix {
            target_load: 0.5,
            groups: vec![
                MixGroup {
                    class: TrafficClass::CbrLow,
                    rate_bps: 64_000.0,
                    weight: 3.0,
                },
                MixGroup {
                    class: TrafficClass::CbrHigh,
                    rate_bps: 6_000_000.0,
                    weight: 1.0,
                },
            ],
            ramp: Some(ramp.clone()),
            churn: None,
        },
        warmup_cycles: 10_000,
        run: RunLength::Cycles(20_000),
        ..Default::default()
    };
    let w = build_workload(&cfg);
    let n = w.len();
    assert!(n > 8, "population too small to exercise the ramp ({n})");
    for &(at_cycle, fraction) in &steps {
        let expected = ramp.active_at(n, at_cycle);
        assert_eq!(
            w.active_at(at_cycle),
            expected,
            "breakpoint {at_cycle}: active != schedule"
        );
        assert_eq!(
            expected,
            ((fraction * n as f64).round() as usize).min(n),
            "schedule accounting drifted from round(fraction * n)"
        );
        // Just before a later breakpoint the previous wave still holds.
        if at_cycle > 0 {
            assert!(
                w.active_at(at_cycle - 1) <= expected,
                "activation happened before its breakpoint"
            );
        }
    }
    assert_eq!(w.active_at(u64::MAX), n, "ramp must end fully active");

    // The ramped workload still runs end to end.
    let r = run_experiment(&cfg);
    assert!(r.summary.delivered_flits > 0);
    assert!(r.summary.throughput_ratio() > 0.9);
}

#[test]
fn mix_churn_conserves_flits() {
    // Departures and arrivals move flit generation around in time but
    // never create or destroy flits: generated = delivered + backlog +
    // lost, with warmup 0 so measurement covers the whole run.
    use mmr_core::config::{ChurnConfig, MixGroup};

    let cfg = SimConfig {
        workload: WorkloadSpec::Mix {
            target_load: 0.4,
            groups: vec![
                MixGroup {
                    class: TrafficClass::CbrLow,
                    rate_bps: 64_000.0,
                    weight: 2.0,
                },
                MixGroup {
                    class: TrafficClass::CbrMedium,
                    rate_bps: 1_540_000.0,
                    weight: 2.0,
                },
                MixGroup {
                    class: TrafficClass::CbrHigh,
                    rate_bps: 6_000_000.0,
                    weight: 1.0,
                },
            ],
            ramp: None,
            churn: Some(ChurnConfig {
                start: 3_000,
                end: 9_000,
                departures: 0.25,
                arrivals: 0.2,
            }),
        },
        warmup_cycles: 0,
        run: RunLength::Cycles(30_000),
        ..Default::default()
    };
    let r = run_experiment(&cfg);
    let s = &r.summary;
    let lost = s.faults.corrupted_flits + s.faults.dropped_flits;
    assert_eq!(
        s.generated_flits,
        s.delivered_flits + s.backlog_flits as u64 + lost,
        "churn broke flit conservation"
    );
    assert!(s.delivered_flits > 0);

    // The population shrinks by exactly the departed count after the
    // window closes, and late arrivals start inside it.
    let w = build_workload(&cfg);
    let n = w.len();
    let active_before = w.active_at(0);
    let active_after = w.active_at(29_999);
    assert!(active_before > active_after, "no departures took effect");
    assert!(n > active_before, "no churn arrivals were admitted");
}
