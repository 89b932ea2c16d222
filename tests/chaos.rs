//! Chaos tests: QoS-preserving degradation under seeded fault schedules.
//!
//! A deterministic `FaultPlan` aims credit faults at the best-effort
//! connections and link faults at the input ports while admitted CBR
//! traffic runs underneath.  The contract under test (DESIGN.md §10):
//!
//! * during the fault window, every *guaranteed* (reserved) connection
//!   keeps its delay bound — only best-effort absorbs the damage;
//! * after the window, every connection delivers again, the credit
//!   watchdog has resynchronized all counters, and a clean measurement
//!   window looks like a fault-free run.

use mmr_core::config::{BestEffortSpec, FaultSpec, RunLength, SimConfig, WorkloadSpec};
use mmr_core::experiment::{build_router, build_workload, run_experiment};
use mmr_core::router::fault::FaultReport;
use mmr_core::router::router::MmrRouter;
use mmr_core::sim::engine::CycleModel;
use mmr_core::sim::fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanConfig};
use mmr_core::sim::rng::SimRng;
use mmr_core::sim::time::FlitCycle;

const WARMUP: u64 = 1_000;
const WINDOW_START: u64 = 1_000;
const WINDOW_END: u64 = 4_000;
// Long enough that even a 64 Kbps CbrLow source (one flit per ~19,400
// flit cycles) generates and delivers within the recovery window.
const RECOVERY_END: u64 = 30_000;
const DELAY_BOUND_FC: u64 = 128;

/// A router with CBR + best-effort traffic and a seeded fault schedule
/// aimed at the best-effort connections (credit faults) and the input
/// links (corruption/loss).
fn chaos_router(seed: u64) -> MmrRouter {
    let cfg = SimConfig {
        workload: WorkloadSpec::cbr(0.4),
        best_effort: Some(BestEffortSpec::default()),
        seed,
        ..Default::default()
    };
    let workload = build_workload(&cfg);
    let mut router = build_router(&cfg, workload);

    let best_effort: Vec<usize> = router
        .connections()
        .iter()
        .filter(|s| s.reserved_slots == 0)
        .map(|s| s.id.idx())
        .collect();
    assert!(!best_effort.is_empty(), "workload must carry best-effort");

    let mut rng = SimRng::seed_from_u64(seed ^ 0xC4A05);
    let at = |rng: &mut SimRng| WINDOW_START + rng.below(WINDOW_END - WINDOW_START);
    let mut events = Vec::new();
    for &conn in &best_effort {
        for _ in 0..3 {
            events.push(FaultEvent {
                at: at(&mut rng),
                kind: FaultKind::DropCredit { conn },
            });
            events.push(FaultEvent {
                at: at(&mut rng),
                kind: FaultKind::DuplicateCredit { conn },
            });
        }
    }
    for input in 0..router.config().ports {
        for _ in 0..4 {
            events.push(FaultEvent {
                at: at(&mut rng),
                kind: FaultKind::CorruptFlit { input },
            });
            events.push(FaultEvent {
                at: at(&mut rng),
                kind: FaultKind::DropFlit { input },
            });
        }
    }
    router.set_faults(FaultPlan::from_events(events), Some(DELAY_BOUND_FC));
    router
}

fn run_phase(router: &mut MmrRouter, from: u64, to: u64) {
    router.on_measurement_start(FlitCycle(from));
    for t in from..to {
        router.step(FlitCycle(t), true);
    }
}

#[test]
fn guaranteed_connections_hold_delay_bounds_through_the_fault_window() {
    let mut router = chaos_router(21);
    for t in 0..WARMUP {
        router.step(FlitCycle(t), false);
    }

    // Fault window, measured in isolation.
    run_phase(&mut router, WINDOW_START, WINDOW_END);
    let report = router.fault_report();
    assert!(report.events_fired > 0, "schedule must fire");
    assert!(report.corrupted_flits > 0, "checksum must catch corruption");
    assert!(report.lost_flits() > 0);
    let violations = router.violations_per_connection().to_vec();
    let mut guaranteed_delivered = 0u64;
    for spec in router.connections() {
        let c = spec.id.idx();
        if spec.reserved_slots > 0 {
            assert_eq!(
                violations[c], 0,
                "guaranteed connection {c} broke its delay bound mid-faults"
            );
            guaranteed_delivered += router.delivered_per_connection()[c];
        }
    }
    assert!(
        guaranteed_delivered > 0,
        "guaranteed traffic must keep flowing through the fault window"
    );

    // Recovery: a clean measured window after the faults.
    run_phase(&mut router, WINDOW_END, RECOVERY_END);
    assert!(
        router.credits_consistent(),
        "watchdog must resynchronize every credit counter after the window"
    );
    let delivered = router.delivered_per_connection();
    for spec in router.connections() {
        let c = spec.id.idx();
        assert!(
            delivered[c] > 0,
            "connection {c} (reserved {}) starved after recovery",
            spec.reserved_slots
        );
        if spec.reserved_slots > 0 {
            assert_eq!(
                router.violations_per_connection()[c],
                0,
                "guaranteed connection {c} still violating after recovery"
            );
        }
    }
    // No faults fire post-window: the recovery segment adds no new damage.
    let post = router.fault_report();
    assert_eq!(post.corrupted_flits, 0);
    assert_eq!(post.dropped_flits, 0);
}

#[test]
fn chaos_runs_replay_bit_for_bit() {
    let run = |seed| {
        let mut router = chaos_router(seed);
        for t in 0..WARMUP {
            router.step(FlitCycle(t), false);
        }
        run_phase(&mut router, WINDOW_START, RECOVERY_END);
        router.summary()
    };
    let a = run(33);
    let b = run(33);
    assert_eq!(a, b, "same seed + plan must replay identically");
    assert!(a.faults.events_fired > 0);
    let c = run(34);
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn generated_fault_plans_recover_end_to_end() {
    // The randomized-plan path (FaultPlanConfig via SimConfig) at 4x the
    // default rates: detection fires, recovery holds, flits are conserved
    // (generated = delivered + backlog + lost-to-faults).
    let cfg = SimConfig {
        workload: WorkloadSpec::cbr(0.5),
        best_effort: Some(BestEffortSpec::default()),
        warmup_cycles: 0,
        run: RunLength::Cycles(20_000),
        fault: Some(FaultSpec {
            plan: FaultPlanConfig {
                window_start: 2_000,
                window_len: 10_000,
                factor: 4.0,
            },
            delay_bound_flit_cycles: Some(DELAY_BOUND_FC),
        }),
        ..Default::default()
    };
    let r = run_experiment(&cfg);
    let f = &r.summary.faults;
    assert!(f.events_fired > 0);
    assert!(f.corrupted_flits > 0);
    assert!(f.credit_resyncs > 0);
    assert_eq!(
        r.summary.generated_flits,
        r.summary.delivered_flits + r.summary.backlog_flits as u64 + f.lost_flits(),
        "flit conservation must hold under faults"
    );
    // The run keeps flowing: the vast majority of traffic still lands.
    assert!(r.summary.throughput_ratio() > 0.9);
}

/// A `[fault]` plan scaled by 0.0 (the `chaos_free` pack's baseline) is
/// empty, and an empty plan arms nothing: the router keeps no fault
/// state, so no watchdog audits credits and no contract is policed.  The
/// run is the fault-free run, bit for bit.
#[test]
fn zero_rate_fault_plan_leaves_the_router_unarmed() {
    let plain = SimConfig {
        workload: WorkloadSpec::cbr(0.5),
        best_effort: Some(BestEffortSpec::default()),
        warmup_cycles: WARMUP,
        run: RunLength::Cycles(16_000),
        ..Default::default()
    };
    let spec = FaultSpec {
        plan: FaultPlanConfig {
            factor: 0.0,
            ..FaultPlanConfig::default()
        },
        delay_bound_flit_cycles: None,
    };
    let zero = SimConfig {
        fault: Some(spec),
        ..plain.clone()
    };

    let (with_plan, without) = (run_experiment(&zero), run_experiment(&plain));
    assert_eq!(with_plan.executed_cycles, without.executed_cycles);
    assert_eq!(
        serde_json::to_string(&with_plan.summary).unwrap(),
        serde_json::to_string(&without.summary).unwrap()
    );

    let mut rng = SimRng::seed_from_u64(zero.seed);
    let plan = spec
        .plan
        .generate(zero.router.ports, with_plan.connections, &mut rng);
    assert!(plan.is_empty(), "rate factor 0 schedules no event");
    let mut unarmed = build_router(&zero, build_workload(&zero));
    unarmed.set_faults(plan, spec.delay_bound_flit_cycles);
    let mut clean = build_router(&plain, build_workload(&plain));
    for router in [&mut unarmed, &mut clean] {
        for t in 0..WARMUP {
            router.step(FlitCycle(t), false);
        }
        run_phase(router, WARMUP, 16_000);
    }
    assert_eq!(unarmed.rng_fingerprint(), clean.rng_fingerprint());
    assert_eq!(
        serde_json::to_string(&unarmed.summary()).unwrap(),
        serde_json::to_string(&clean.summary()).unwrap()
    );
    assert_eq!(unarmed.fault_report(), FaultReport::default());
    assert!(
        unarmed.quarantined().is_empty(),
        "an unarmed router has no quarantine flags"
    );
    assert!(unarmed.credits_consistent());
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The plans the chaos pack's `[fault]` section generates at rate
/// factors 0, 1, 4 and 20, on each of its gate seeds, drawn as
/// `run_experiment` draws them.  The hashes were recorded before the
/// plan config shrank to a window and a factor: generation must keep
/// every event of every plan.
#[test]
fn chaos_pack_fault_plans_are_pinned() {
    use mmr_core::workload_lang::{Fidelity, WorkloadSpec as Pack};
    let path = format!("{}/../../workloads/chaos.toml", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).expect("the chaos pack is readable");
    let mut got = Vec::new();
    for factor in ["0.0", "1.0", "4.0", "20.0"] {
        let scaled = text.replace("factor = 4.0", &format!("factor = {factor}"));
        let pack = Pack::parse(&scaled).expect("the scaled pack parses");
        let configs = pack
            .compile(Fidelity::Quick)
            .expect("it compiles")
            .sweep
            .configs();
        assert_eq!(configs.len(), 5, "one config per gate seed");
        let mut plans = String::new();
        for cfg in &configs {
            let fault = cfg.fault.expect("the chaos pack carries faults");
            let connections = build_workload(cfg).len();
            let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0xFA17).split(71);
            let plan = fault.plan.generate(cfg.router.ports, connections, &mut rng);
            plans += &serde_json::to_string(&plan).expect("plans serialize");
        }
        got.push(format!("{:016x}", fnv1a(plans.as_bytes())));
    }
    assert_eq!(
        got,
        [
            "4345b883db836c70",
            "3abfd5577c99b80b",
            "bcd089844d5cc295",
            "6ca95a3b7acf5401"
        ]
    );
}
