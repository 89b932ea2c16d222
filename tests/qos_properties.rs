//! QoS property tests — the paper's qualitative claims, asserted.

use mmr_core::arbiter::scheduler::ArbiterKind;
use mmr_core::config::{vbr_cycle_budget, InjectionKind, RunLength, SimConfig, WorkloadSpec};
use mmr_core::experiment::run_experiment;
use mmr_core::traffic::connection::TrafficClass;

/// Worst per-class mean delay — the QoS number a scheduler must bound.
fn worst_class_delay(cfg: &SimConfig) -> f64 {
    let r = run_experiment(cfg);
    r.summary
        .metrics
        .classes
        .iter()
        .filter(|c| c.delivered > 0)
        .map(|c| c.mean_delay_us)
        .fold(0.0, f64::max)
}

#[test]
fn coa_bounds_worst_class_delay_better_than_wfa_at_high_load() {
    // The paper's core claim (§5.1): near saturation, the priority-aware
    // COA keeps QoS where the priority-blind WFA lets a class starve.
    let base = SimConfig {
        workload: WorkloadSpec::cbr(0.82),
        warmup_cycles: 4_000,
        run: RunLength::Cycles(60_000),
        ..Default::default()
    };
    let coa = worst_class_delay(&base);
    let wfa = worst_class_delay(&base.with_arbiter(ArbiterKind::Wfa));
    assert!(
        coa < wfa,
        "COA worst-class delay {coa:.1} µs must beat WFA {wfa:.1} µs at 82% load"
    );
    assert!(
        wfa / coa > 2.0,
        "the gap should be large (COA {coa:.1} vs WFA {wfa:.1})"
    );
}

#[test]
fn both_arbiters_equivalent_at_low_load() {
    // §5.1: "both switching schemes offer similar performance" away from
    // saturation.
    let base = SimConfig {
        workload: WorkloadSpec::cbr(0.4),
        warmup_cycles: 2_000,
        run: RunLength::Cycles(30_000),
        ..Default::default()
    };
    let coa = worst_class_delay(&base);
    let wfa = worst_class_delay(&base.with_arbiter(ArbiterKind::Wfa));
    let ratio = coa.max(wfa) / coa.min(wfa);
    assert!(
        ratio < 2.0,
        "low-load delays should be comparable: COA {coa:.2} WFA {wfa:.2}"
    );
}

#[test]
fn siabp_keeps_every_cbr_class_bounded_below_saturation() {
    let cfg = SimConfig {
        workload: WorkloadSpec::cbr(0.7),
        warmup_cycles: 4_000,
        run: RunLength::Cycles(50_000),
        ..Default::default()
    };
    let r = run_experiment(&cfg);
    for c in &r.summary.metrics.classes {
        if c.delivered == 0 {
            continue;
        }
        assert!(
            c.mean_delay_us < 100.0,
            "{:?} mean delay {:.1} µs at 70% load",
            c.class,
            c.mean_delay_us
        );
    }
}

#[test]
fn vbr_jitter_stays_in_microsecond_range_below_saturation() {
    // §5.2: mean jitter ~8-10 µs, far under the milliseconds MPEG-2
    // playback tolerates.
    for injection in [InjectionKind::SmoothRate, InjectionKind::BackToBack] {
        let cfg = SimConfig {
            workload: WorkloadSpec::Vbr {
                target_load: 0.6,
                gops: 2,
                injection,
                enforce_peak: false,
            },
            warmup_cycles: 0,
            run: RunLength::UntilDrained {
                max_cycles: vbr_cycle_budget(2),
            },
            ..Default::default()
        };
        let r = run_experiment(&cfg);
        assert!(r.drained);
        let jitter = r.summary.metrics.mean_frame_jitter_us;
        assert!(
            jitter < 1_000.0,
            "{} mean jitter {jitter:.1} µs should be well under a millisecond",
            injection.label()
        );
    }
}

#[test]
fn bb_injection_has_higher_frame_delay_than_sr() {
    // §5.2 / Fig. 9: "average frame delays before saturation are higher"
    // with BB than SR.
    let run = |injection| {
        let cfg = SimConfig {
            workload: WorkloadSpec::Vbr {
                target_load: 0.6,
                gops: 2,
                injection,
                enforce_peak: false,
            },
            warmup_cycles: 0,
            run: RunLength::UntilDrained {
                max_cycles: vbr_cycle_budget(2),
            },
            ..Default::default()
        };
        run_experiment(&cfg).summary.metrics.mean_frame_delay_us
    };
    let sr = run(InjectionKind::SmoothRate);
    let bb = run(InjectionKind::BackToBack);
    assert!(
        bb > sr,
        "BB frame delay {bb:.1} µs must exceed SR {sr:.1} µs below saturation"
    );
}

#[test]
fn high_bandwidth_class_gets_priority_under_contention() {
    // SIABP biases toward bandwidth-hungry connections: at moderately
    // high load the 55 Mbps class must see delays no worse than the
    // 64 Kbps class (whose flits can afford to wait, per §3.1).
    let cfg = SimConfig {
        workload: WorkloadSpec::cbr(0.75),
        warmup_cycles: 4_000,
        run: RunLength::Cycles(60_000),
        ..Default::default()
    };
    let r = run_experiment(&cfg);
    let high = r
        .summary
        .metrics
        .class(TrafficClass::CbrHigh)
        .unwrap()
        .mean_delay_us;
    let low = r
        .summary
        .metrics
        .class(TrafficClass::CbrLow)
        .unwrap()
        .mean_delay_us;
    assert!(
        high <= low * 1.5,
        "high class {high:.1} µs should not trail low class {low:.1} µs"
    );
}

#[test]
fn coa_protects_high_bandwidth_throughput_past_saturation() {
    // Past saturation something must starve.  SIABP + COA starves the
    // low-reservation connections ("priority grows faster for
    // high-bandwidth consuming connections", §3.1) and keeps serving the
    // high class; WFA's per-VC fairness underserves the high class, whose
    // demand dominates the load.
    let base = SimConfig {
        workload: WorkloadSpec::cbr(0.92),
        warmup_cycles: 2_000,
        run: RunLength::Cycles(40_000),
        ..Default::default()
    };
    let ratio = |cfg: &SimConfig| {
        let c = run_experiment(cfg);
        let high = c.summary.metrics.class(TrafficClass::CbrHigh).unwrap();
        high.delivered as f64 / high.generated as f64
    };
    let coa = ratio(&base);
    let wfa = ratio(&base.with_arbiter(ArbiterKind::Wfa));
    assert!(
        coa >= wfa - 0.01,
        "COA high-class delivery ratio {coa:.3} must not trail WFA {wfa:.3}"
    );
    // Characterize the fairness metric itself: past saturation both
    // schedulers fall well short of reservation-proportional service.
    let coa_fair = run_experiment(&base).summary.reservation_fairness;
    assert!(
        coa_fair < 0.95,
        "past saturation fairness should degrade, got {coa_fair}"
    );
}

#[test]
fn fairness_is_high_below_saturation() {
    let cfg = SimConfig {
        workload: WorkloadSpec::cbr(0.5),
        warmup_cycles: 5_000,
        run: RunLength::Cycles(60_000),
        ..Default::default()
    };
    let f = run_experiment(&cfg).summary.reservation_fairness;
    // Everyone is fully served; the only unfairness left is the slot
    // rounding of tiny connections.
    assert!(f > 0.8, "below saturation fairness {f}");
}

#[test]
fn aged_low_priority_flits_are_never_starved_below_saturation() {
    // SIABP's delay doubling guarantees any flit eventually outranks
    // fresh high-reservation flits, so below saturation even the 64 Kbps
    // class must deliver everything it generates (COA serves by priority,
    // so this is the aging mechanism working end to end).
    let cfg = SimConfig {
        workload: WorkloadSpec::cbr(0.8),
        warmup_cycles: 0,
        run: RunLength::Cycles(120_000),
        ..Default::default()
    };
    let r = run_experiment(&cfg);
    let low = r.summary.metrics.class(TrafficClass::CbrLow).unwrap();
    assert!(
        low.generated > 50,
        "need a meaningful sample, got {}",
        low.generated
    );
    let ratio = low.delivered as f64 / low.generated as f64;
    assert!(
        ratio > 0.95,
        "low class delivered only {ratio:.2} of its flits at 80% load"
    );
    // And its worst-case delay stays bounded (aging caps the wait).
    assert!(
        low.max_delay_us < 5_000.0,
        "low-class max delay {:.0} µs",
        low.max_delay_us
    );
}

#[test]
fn wfa_utilization_does_not_beat_coa_at_saturation() {
    // Fig. 8's shape: COA sustains at least as much crossbar utilization
    // as WFA once the router is pushed past WFA's saturation point.
    let base = SimConfig {
        workload: WorkloadSpec::Vbr {
            target_load: 0.88,
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
    let coa = run_experiment(&base);
    let wfa = run_experiment(&base.with_arbiter(ArbiterKind::Wfa));
    assert!(
        coa.summary.crossbar_utilization >= wfa.summary.crossbar_utilization - 0.02,
        "COA util {:.3} vs WFA {:.3}",
        coa.summary.crossbar_utilization,
        wfa.summary.crossbar_utilization
    );
}
