//! Reproducibility: identical seeds give bit-identical results across the
//! whole stack, including parallel sweeps; different seeds differ.

use mmr_core::arbiter::scheduler::ArbiterKind;
use mmr_core::config::{
    vbr_cycle_budget, BestEffortSpec, ChurnConfig, FabricSpec, FaultSpec, InjectionKind, MixGroup,
    RunLength, SimConfig, TelemetrySpec, WorkloadSpec,
};
use mmr_core::experiment::{
    build_fabric, build_fabric_workload, build_router, build_workload, run_experiment,
};
use mmr_core::router::config::LinkPolicy;
use mmr_core::router::fabric::{Fabric, Topology};
use mmr_core::sim::engine::{CycleModel, Runner, StopCondition};
use mmr_core::sim::time::FlitCycle;
use mmr_core::sweep::{run_configs, sweep, SweepSpec};
use mmr_core::traffic::connection::TrafficClass;
use mmr_core::workload_lang::{compile_committed, Fidelity};

fn quick(load: f64, seed: u64) -> SimConfig {
    SimConfig {
        workload: WorkloadSpec::cbr(load),
        warmup_cycles: 500,
        run: RunLength::Cycles(6_000),
        seed,
        ..Default::default()
    }
}

#[test]
fn experiments_are_bit_identical() {
    let cfg = quick(0.7, 42);
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(a, b);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

#[test]
fn vbr_experiments_are_bit_identical() {
    let cfg = SimConfig {
        workload: WorkloadSpec::Vbr {
            target_load: 0.5,
            gops: 1,
            injection: InjectionKind::BackToBack,
            enforce_peak: false,
        },
        warmup_cycles: 0,
        run: RunLength::UntilDrained {
            max_cycles: vbr_cycle_budget(1),
        },
        seed: 99,
        ..Default::default()
    };
    assert_eq!(run_experiment(&cfg), run_experiment(&cfg));
}

#[test]
fn different_seeds_build_different_workloads() {
    let a = build_workload(&quick(0.7, 1));
    let b = build_workload(&quick(0.7, 2));
    // Loads are near the target either way, but the mixes must differ.
    assert_ne!(
        a.connections, b.connections,
        "distinct seeds produced identical workloads"
    );
}

#[test]
fn parallel_sweep_is_deterministic() {
    let spec = SweepSpec {
        base: quick(0.5, 7),
        loads: vec![0.4, 0.6],
        arbiters: vec![ArbiterKind::Coa, ArbiterKind::Wfa],
        seeds: vec![7, 8],
    };
    let a = sweep(&spec);
    let b = sweep(&spec);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x, y,
            "parallel sweep nondeterminism at load {}",
            x.target_load
        );
    }
}

#[test]
fn chaos_experiments_are_bit_identical() {
    // Fault injection rides its own seeded RNG stream: the same seed and
    // FaultPlan must replay to byte-identical metrics, fault report
    // included.
    let cfg = compile_committed("chaos", Fidelity::Quick)
        .expect("the chaos pack compiles")
        .sweep
        .configs()
        .remove(0);
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert!(a.summary.faults.events_fired > 0, "faults must fire");
    assert_eq!(a, b);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "chaos serialization must be byte-identical"
    );
}

#[test]
fn chaos_sweep_is_identical_across_worker_counts() {
    // The chaos pack's seed ensemble must produce identical results
    // whether it runs serially or fanned out across worker threads.
    let configs = compile_committed("chaos", Fidelity::Quick)
        .expect("the chaos pack compiles")
        .sweep
        .configs();
    let serial = run_configs(&configs, Some(1));
    let fanned = run_configs(&configs, Some(4));
    assert_eq!(serial, fanned, "worker count changed chaos sweep results");
    assert!(serial.iter().all(|r| r.summary.faults.events_fired > 0));
}

#[test]
fn telemetry_arming_does_not_perturb_the_simulation() {
    // Telemetry is pure observation: arming it must leave every
    // simulated quantity bit-identical — summary, achieved load, the
    // lot.  Counter adds are branch-free masked writes and the probes
    // never touch the RNG, so the grant sequence cannot shift.
    let base = quick(0.7, 42);
    let armed_cfg = base.with_telemetry(TelemetrySpec::default());
    let plain = run_experiment(&base);
    let armed = run_experiment(&armed_cfg);
    assert!(plain.telemetry.is_none());
    let report = armed
        .telemetry
        .as_ref()
        .expect("armed run carries a report");
    assert!(report.counters.iter().any(|c| c.value > 0));
    assert_eq!(plain.summary, armed.summary);
    assert_eq!(plain.achieved_load, armed.achieved_load);
    assert_eq!(plain.connections, armed.connections);
    assert_eq!(plain.executed_cycles, armed.executed_cycles);
}

#[test]
fn telemetry_leaves_the_rng_stream_untouched() {
    // Stronger than output equality: after identical runs with telemetry
    // off and on, the router's RNG must sit at the same stream position —
    // proof that no probe consumed a draw.
    let cfg = quick(0.6, 9);
    let run = |cfg: &SimConfig| {
        let workload = build_workload(cfg);
        let mut router = build_router(cfg, workload);
        if let Some(t) = &cfg.telemetry {
            router.set_telemetry(t.to_config());
        }
        for t in 0..4_000 {
            router.step(FlitCycle(t), true);
        }
        router.rng_fingerprint()
    };
    let plain = run(&cfg);
    let armed = run(&cfg.with_telemetry(TelemetrySpec::default()));
    assert_eq!(plain, armed, "telemetry consumed an RNG draw");
}

#[test]
fn armed_telemetry_reports_are_bit_identical() {
    // With the deterministic null clock (wall_clock off, the default),
    // the telemetry report itself — counters, stage profile, kernel
    // stats, windows — replays byte-for-byte.
    let cfg = quick(0.5, 11).with_telemetry(TelemetrySpec::default());
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(a, b);
    assert_eq!(
        serde_json::to_string(&a.telemetry).unwrap(),
        serde_json::to_string(&b.telemetry).unwrap(),
        "telemetry report must replay byte-identically"
    );
}

#[test]
fn observatory_arming_does_not_perturb_the_simulation() {
    // The observatory adds per-delivery histogram and SLO bookkeeping on
    // top of plain telemetry; like the rest of the layer it must be pure
    // observation.  Compare observatory-on against observatory-off (both
    // armed) and against a fully disarmed run.
    let base = quick(0.7, 42);
    let off = base.with_telemetry(TelemetrySpec {
        observatory: false,
        ..TelemetrySpec::default()
    });
    let on = base.with_telemetry(TelemetrySpec::default());
    let plain = run_experiment(&base);
    let without = run_experiment(&off);
    let with = run_experiment(&on);
    assert!(with
        .telemetry
        .as_ref()
        .is_some_and(|t| t.observatory.is_some()));
    assert!(without
        .telemetry
        .as_ref()
        .is_some_and(|t| t.observatory.is_none()));
    for r in [&without, &with] {
        assert_eq!(plain.summary, r.summary);
        assert_eq!(plain.achieved_load, r.achieved_load);
        assert_eq!(plain.executed_cycles, r.executed_cycles);
    }
}

#[test]
fn observatory_leaves_the_rng_stream_untouched() {
    // Same RNG-position proof as the telemetry variant above, with the
    // per-delivery observatory hooks in the delivery path.
    let cfg = quick(0.6, 9);
    let run = |cfg: &SimConfig| {
        let workload = build_workload(cfg);
        let mut router = build_router(cfg, workload);
        if let Some(t) = &cfg.telemetry {
            router.set_telemetry(t.to_config());
        }
        for t in 0..4_000 {
            router.step(FlitCycle(t), true);
        }
        router.rng_fingerprint()
    };
    let plain = run(&cfg);
    let armed = run(&cfg.with_telemetry(TelemetrySpec::default()));
    let observatory_off = run(&cfg.with_telemetry(TelemetrySpec {
        observatory: false,
        ..TelemetrySpec::default()
    }));
    assert_eq!(plain, armed, "the observatory consumed an RNG draw");
    assert_eq!(plain, observatory_off);
}

#[test]
fn prometheus_exposition_replays_byte_identically() {
    // The exposition is rendered from the deterministic report, so two
    // identical runs must produce the same bytes — histogram buckets,
    // float formatting, family order, the lot.
    let cfg = quick(0.5, 11).with_telemetry(TelemetrySpec::default());
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    let ea = a.prometheus();
    let eb = b.prometheus();
    assert!(!ea.is_empty());
    assert_eq!(ea, eb, "exposition must replay byte-identically");
}

#[test]
fn arbiter_rng_does_not_leak_into_workload() {
    // The workload RNG and the arbitration RNG are separate streams: the
    // same seed must admit the same connections regardless of arbiter.
    let coa = run_experiment(&quick(0.6, 5));
    let wfa = run_experiment(&quick(0.6, 5).with_arbiter(ArbiterKind::Wfa));
    assert_eq!(coa.connections, wfa.connections);
    assert_eq!(coa.achieved_load, wfa.achieved_load);
}

// ---------------------------------------------------------------------------
// Fabric determinism: bit-identity across worker counts and against the
// sequential Runner.
// ---------------------------------------------------------------------------

fn fabric_cfg(load: f64, seed: u64) -> SimConfig {
    quick(load, seed).with_fabric(FabricSpec::new(Topology::Mesh { x: 4, y: 4 }))
}

/// A small fabric whose `warmup` and `bound` are off the 4-cycle
/// `link_latency` grid: the measurement boundary falls inside an epoch
/// and the last epoch is short.
fn off_grid_fabric_cfg(topology: Topology, seed: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: 501,
        run: RunLength::Cycles(3_999),
        ..quick(0.4, seed).with_fabric(FabricSpec::new(topology))
    }
}

/// Chunk shapes on a 9-node fabric: one chunk, even and uneven splits,
/// one chunk per node, more workers than nodes.
const CHUNK_SHAPES: [usize; 7] = [1, 2, 3, 5, 8, 9, 17];

/// Everything observable about one fabric run: the serialized summary,
/// the per-router RNG fingerprints, and the engine accounting.
fn fabric_probe(cfg: &SimConfig, workers: usize) -> (String, Vec<u64>, u64, u64) {
    let spec = cfg.fabric.expect("fabric spec");
    let (RunLength::Cycles(cycles) | RunLength::UntilDrained { max_cycles: cycles }) = cfg.run;
    let mut fabric = build_fabric(cfg, &spec, build_fabric_workload(cfg, &spec));
    let out = fabric.run_parallel(cfg.warmup_cycles, cycles, workers, false);
    (
        serde_json::to_string(&fabric.summary()).expect("summary serializes"),
        fabric.rng_fingerprints(),
        out.executed,
        out.measured,
    )
}

#[test]
fn fabric_is_byte_identical_across_worker_counts() {
    for &(load, seed) in &[(0.3, 21u64), (0.6, 22)] {
        let cfg = fabric_cfg(load, seed);
        let base = fabric_probe(&cfg, 1);
        for workers in [2usize, 8] {
            let probe = fabric_probe(&cfg, workers);
            assert_eq!(
                base, probe,
                "fabric diverged at {workers} workers (load {load}, seed {seed})"
            );
        }
    }
    let cfg = off_grid_fabric_cfg(Topology::Mesh { x: 3, y: 3 }, 24);
    let base = fabric_probe(&cfg, 1);
    for workers in CHUNK_SHAPES {
        assert_eq!(
            base,
            fabric_probe(&cfg, workers),
            "9-node mesh diverged at {workers} workers"
        );
    }
}

/// `Runner::run` and `run_parallel` at every given worker count must
/// leave `cfg`'s fabric in the same state.
fn assert_fabric_paths_agree(cfg: &SimConfig, worker_counts: &[usize]) {
    let spec = cfg.fabric.unwrap();
    let label = spec.topology.label();
    let (RunLength::Cycles(cycles) | RunLength::UntilDrained { max_cycles: cycles }) = cfg.run;
    // Reference: the sequential Runner driving the fabric as a
    // CycleModel, in one-cycle epochs.
    let mut fabric = build_fabric(cfg, &spec, build_fabric_workload(cfg, &spec));
    let out = Runner::new(cfg.warmup_cycles, StopCondition::Cycles(cycles)).run(&mut fabric);
    let stepped = (
        serde_json::to_string(&fabric.summary()).expect("serializes"),
        fabric.rng_fingerprints(),
        out.executed,
        out.measured,
    );
    // run_parallel at every chunk shape must land on the same state
    // (cycle accounting included: both advance through all `cycles` and
    // measure all of them past warm-up).
    for &workers in worker_counts {
        assert_eq!(
            stepped,
            fabric_probe(cfg, workers),
            "{label}: run_parallel({workers}) diverged from the Runner"
        );
    }
}

/// `run_parallel` consumes each swapped-in inbox in place and copies only
/// what a shortened epoch leaves unconsumed.  Epochs are shortened at the
/// warm-up boundary and at the bound whenever those sit off the
/// `link_latency` grid; seven-cycle links leave up to six cycles' worth
/// of messages to carry, and `Fabric::step`'s one-cycle epochs (the
/// `Runner` reference) carry on every cycle.  All of it must land on one
/// state: summaries and RNG fingerprints byte-identical for workers
/// {1, 2, 8} against `Runner::run`.
#[test]
fn shortened_epochs_carry_their_inbox_tails_identically_on_every_path() {
    let topologies = [
        Topology::Mesh { x: 4, y: 4 },
        Topology::Torus { x: 3, y: 3 },
    ];
    for (k, topology) in topologies.into_iter().enumerate() {
        for link_latency in [4u64, 7] {
            let spec = FabricSpec {
                link_latency,
                ..FabricSpec::new(topology)
            };
            let cfg = SimConfig {
                warmup_cycles: 503,
                run: RunLength::Cycles(2_998),
                ..quick(0.5, 31 + k as u64).with_fabric(spec)
            };
            assert!(
                !cfg.warmup_cycles.is_multiple_of(link_latency)
                    && !2_998u64.is_multiple_of(link_latency),
                "both boundaries must fall inside an epoch"
            );
            assert_fabric_paths_agree(&cfg, &[1, 2, 8]);
            let fabric = run_experiment(&cfg);
            assert!(
                fabric.summary.delivered_flits > 1_000,
                "{}: the lanes must carry traffic",
                topology.label()
            );
        }
    }
}

/// A fabric whose sources all end: every connection of a three-rate CBR
/// mix departs (an `ExpiringSource`) somewhere in flit cycles 800..2 400.
fn departing_fabric_cfg(seed: u64) -> SimConfig {
    let group = |class, rate_bps, weight| MixGroup {
        class,
        rate_bps,
        weight,
    };
    SimConfig {
        workload: WorkloadSpec::Mix {
            target_load: 0.4,
            groups: vec![
                group(TrafficClass::CbrLow, 64_000.0, 1.0),
                group(TrafficClass::CbrMedium, 1_540_000.0, 2.0),
                group(TrafficClass::CbrHigh, 55_000_000.0, 2.0),
            ],
            ramp: None,
            churn: Some(ChurnConfig {
                start: 64 * 800,
                end: 64 * 2_400,
                departures: 1.0,
                arrivals: 0.0,
            }),
        },
        warmup_cycles: 501,
        run: RunLength::UntilDrained { max_cycles: 6_000 },
        ..quick(0.4, seed).with_fabric(FabricSpec::new(Topology::Mesh { x: 3, y: 3 }))
    }
}

#[test]
fn fabric_drains_at_the_same_cycle_on_every_path() {
    // "Sources exhausted" is read from the nodes' injection calendars by
    // `Fabric::drained` (the Runner's stop test, every cycle).  A
    // workload that ends pins it: the run must stop on the same cycle,
    // in the same state, under the Runner and the epoch executor.
    let cfg = departing_fabric_cfg(41);
    let spec = cfg.fabric.unwrap();
    let RunLength::UntilDrained { max_cycles } = cfg.run else {
        unreachable!()
    };
    let state = |fabric: &Fabric| {
        assert!(fabric.drained(), "sources or flits left behind");
        let summary = fabric.summary();
        (
            serde_json::to_string(&summary).expect("serializes"),
            fabric.rng_fingerprints(),
            (summary.generated_flits, summary.delivered_flits),
        )
    };
    let stepped = {
        let mut fabric = build_fabric(&cfg, &spec, build_fabric_workload(&cfg, &spec));
        let runner = Runner::new(
            cfg.warmup_cycles,
            StopCondition::ModelDoneOrCycles(max_cycles),
        );
        let out = runner.run(&mut fabric);
        assert!(out.model_finished, "fabric never drained");
        (state(&fabric), out.executed, out.measured)
    };

    // Recorded at the commit before the calendar fed the fabric.
    let ((_, fingerprints, flits), stop, measured) = stepped.clone();
    assert_eq!((stop, measured), (2_388, 1_887), "stop cycle moved");
    assert_eq!(flits, (3_976, 4_010), "generated / delivered moved");
    assert_eq!(
        fingerprints.iter().fold(0u64, |h, &f| h.rotate_left(7) ^ f),
        13_070_934_093_213_973_855,
        "arbitration streams moved"
    );

    // The epoch executor has no done-check: hand it the stop cycle and it
    // must land drained in the same state; one cycle less and it is not.
    for workers in [1usize, 2, 3] {
        let mut fabric = build_fabric(&cfg, &spec, build_fabric_workload(&cfg, &spec));
        let out = fabric.run_parallel(cfg.warmup_cycles, stop, workers, false);
        assert_eq!(
            stepped,
            (state(&fabric), out.executed, out.measured),
            "run_parallel({workers}) diverged from the Runner"
        );
        let mut fabric = build_fabric(&cfg, &spec, build_fabric_workload(&cfg, &spec));
        fabric.run_parallel(cfg.warmup_cycles, stop - 1, workers, false);
        assert!(!fabric.drained(), "drained before the Runner's stop cycle");
    }
}

#[test]
fn fabric_per_router_rng_fingerprints_are_stable() {
    // The per-router arbitration streams are split deterministically off
    // the master seed: same seed -> same fingerprints, different seed ->
    // different fingerprints (and node count matches the topology).
    let a = fabric_probe(&fabric_cfg(0.5, 31), 2);
    let b = fabric_probe(&fabric_cfg(0.5, 31), 8);
    let c = fabric_probe(&fabric_cfg(0.5, 32), 2);
    assert_eq!(a.1, b.1);
    assert_eq!(a.1.len(), 16, "one fingerprint per router");
    assert_ne!(a.1, c.1, "distinct seeds must shift the RNG streams");
}

#[test]
fn fabric_experiments_are_bit_identical() {
    let cfg = fabric_cfg(0.5, 33);
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(a, b);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

#[test]
fn slot_table_fabric_agrees_across_engines_and_worker_counts() {
    // Idle-heavy on purpose: on cycles with nothing buffered the pipeline
    // advances each node's TDM table cursor instead of scanning, and the
    // two engines — the Runner's one-cycle epochs and run_parallel's
    // `link_latency`-cycle ones at every worker count — must agree.
    let mut cfg = off_grid_fabric_cfg(Topology::Mesh { x: 3, y: 3 }, 28);
    cfg.workload = WorkloadSpec::cbr(0.1);
    cfg.router.link_policy = LinkPolicy::SlotTable {
        backfill: true,
        table_len: 64,
    };
    assert_fabric_paths_agree(&cfg, &[1, 2, 3]);
}

// ---------------------------------------------------------------------------
// Characterization: the single router's observable results, pinned as
// hashes.  Every arbiter under both link policies, over {CBR 0.8, drained
// VBR} x {plain, telemetry armed, default fault plan}; each case hashes
// the summary, the telemetry and fault reports and the arbitration RNG's
// position.  A refactor of the router that moves no simulation keeps
// every hash.
// ---------------------------------------------------------------------------

fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in parts.iter().flat_map(|p| p.iter()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The twelve cases of one arbiter, folded into one hash.
fn router_characterization(arbiter: ArbiterKind) -> u64 {
    use mmr_core::sim::rng::SimRng;
    let policies = [
        LinkPolicy::Priority,
        LinkPolicy::SlotTable {
            backfill: true,
            table_len: 64,
        },
    ];
    let drained_vbr = WorkloadSpec::Vbr {
        target_load: 0.1,
        gops: 1,
        injection: InjectionKind::SmoothRate,
        enforce_peak: false,
    };
    // The CBR run reaches into the default fault window (cycles 5 000..).
    let workloads = [
        (WorkloadSpec::cbr(0.8), 500, RunLength::Cycles(8_000)),
        (
            drained_vbr,
            0,
            RunLength::UntilDrained {
                max_cycles: vbr_cycle_budget(1),
            },
        ),
    ];
    let mut h = fnv1a(&[]);
    for link_policy in policies {
        for (workload, warmup_cycles, run) in &workloads {
            for mode in ["plain", "telemetry", "fault"] {
                let mut cfg = SimConfig {
                    workload: workload.clone(),
                    arbiter,
                    warmup_cycles: *warmup_cycles,
                    run: *run,
                    seed: 71,
                    ..Default::default()
                };
                cfg.router.link_policy = link_policy;
                match mode {
                    "telemetry" => cfg = cfg.with_telemetry(TelemetrySpec::default()),
                    "fault" => cfg.fault = Some(FaultSpec::default()),
                    _ => {}
                }
                let workload = build_workload(&cfg);
                let connections = workload.len();
                let mut router = build_router(&cfg, workload);
                if let Some(fault) = &cfg.fault {
                    // The plan `run_experiment` draws for this config.
                    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0xFA17).split(71);
                    let plan = fault.plan.generate(cfg.router.ports, connections, &mut rng);
                    router.set_faults(plan, fault.profile);
                }
                if let Some(t) = &cfg.telemetry {
                    router.set_telemetry(t.to_config());
                }
                let stop = match cfg.run {
                    RunLength::Cycles(n) => StopCondition::Cycles(n),
                    RunLength::UntilDrained { max_cycles } => {
                        StopCondition::ModelDoneOrCycles(max_cycles)
                    }
                };
                let out = Runner::new(cfg.warmup_cycles, stop).run(&mut router);
                if mode == "fault" {
                    assert!(router.fault_report().events_fired > 0, "no fault fired");
                }
                h = fnv1a(&[
                    &h.to_le_bytes(),
                    serde_json::to_string(&router.summary()).unwrap().as_bytes(),
                    serde_json::to_string(&router.telemetry_report())
                        .unwrap()
                        .as_bytes(),
                    serde_json::to_string(&router.fault_report())
                        .unwrap()
                        .as_bytes(),
                    &router.rng_fingerprint().to_le_bytes(),
                    &out.executed.to_le_bytes(),
                ]);
            }
        }
    }
    h
}

#[test]
fn single_router_results_are_pinned_for_every_arbiter() {
    let want: [(&str, u64); 11] = [
        ("Coa", 0xE7EFC1897CB8AC58),
        ("Wfa", 0xB54F94A9F238E314),
        ("WfaFixed", 0x96D016E9AAE86A7E),
        ("Islip { iterations: 2 }", 0xB099E60DD28EBB77),
        ("Pim { iterations: 2 }", 0x166474DB17212402),
        ("GreedyPriority", 0x62D5FE10B0CED3C8),
        ("Random", 0x4B28BCA5389A0B43),
        ("MwmExact", 0x1848F220228552A8),
        ("MwmApprox", 0x4843F230392CBB1F),
        ("FrameFair { frame: 64 }", 0x39155A127027E82B),
        ("CrosspointQueued { cap: 16 }", 0x18ABA1467FAD1F9F),
    ];
    let got: Vec<(String, u64)> = ArbiterKind::all()
        .into_iter()
        .map(|a| (format!("{a:?}"), router_characterization(a)))
        .collect();
    let want: Vec<(String, u64)> = want.iter().map(|&(a, h)| (a.to_string(), h)).collect();
    assert_eq!(got, want, "the single router's results moved");
}

// ---------------------------------------------------------------------------
// Workload pin: every builder's admitted connection list, lifetimes, loads
// and CAC tally, plus each source's first 16 injection times, hashed at
// three seeds.  A refactor of the builders that keeps their RNG draw order
// keeps every hash.
// ---------------------------------------------------------------------------

fn workload_hash(cfg: &SimConfig) -> u64 {
    let mut workload = build_workload(cfg);
    let mut h = fnv1a(&[format!(
        "{:?}{:?}{:?}{:?}",
        workload.connections, workload.windows, workload.per_input_load, workload.admission
    )
    .as_bytes()]);
    for source in &mut workload.sources {
        let mut times = Vec::with_capacity(16);
        while times.len() < 16 {
            let Some(t) = source.peek_next() else { break };
            times.push(t.0);
            source.emit();
        }
        h = fnv1a(&[&h.to_le_bytes(), format!("{times:?}").as_bytes()]);
    }
    h
}

#[test]
fn workload_builders_are_pinned() {
    use mmr_core::config::{RampScheduleConfig, RampStepConfig};
    let mix = WorkloadSpec::Mix {
        target_load: 0.6,
        groups: vec![
            MixGroup {
                class: TrafficClass::CbrLow,
                rate_bps: 64_000.0,
                weight: 2.0,
            },
            MixGroup {
                class: TrafficClass::CbrHigh,
                rate_bps: 55e6,
                weight: 1.0,
            },
        ],
        ramp: Some(RampScheduleConfig {
            steps: vec![
                RampStepConfig {
                    at_cycle: 0,
                    fraction: 0.5,
                },
                RampStepConfig {
                    at_cycle: 4_000,
                    fraction: 1.0,
                },
            ],
        }),
        churn: Some(ChurnConfig {
            start: 8_000,
            end: 16_000,
            departures: 0.25,
            arrivals: 0.2,
        }),
    };
    let vbr = |injection| WorkloadSpec::Vbr {
        target_load: 0.5,
        gops: 1,
        injection,
        enforce_peak: false,
    };
    let cases = [
        ("cbr", WorkloadSpec::cbr(0.7), None),
        ("vbr_sr", vbr(InjectionKind::SmoothRate), None),
        ("vbr_bb", vbr(InjectionKind::BackToBack), None),
        ("mix", mix, None),
        (
            "cbr+best_effort",
            WorkloadSpec::cbr(0.5),
            Some(BestEffortSpec::default()),
        ),
    ];
    let mut got = Vec::new();
    for (name, workload, best_effort) in cases {
        let hashes: Vec<String> = [3u64, 29, 0xB1ACA]
            .iter()
            .map(|&seed| {
                let cfg = SimConfig {
                    workload: workload.clone(),
                    best_effort,
                    seed,
                    ..Default::default()
                };
                format!("{:016X}", workload_hash(&cfg))
            })
            .collect();
        got.push(format!("{name}: {}", hashes.join(" ")));
    }
    let want = [
        "cbr: 44A4550C233E5C40 55548A6360E8D397 DB44EAEB97A67214",
        "vbr_sr: B3CEBF5A9FFC38F5 CD8D711EE3BCD577 4B7FB69D3406EAFF",
        "vbr_bb: 7AAC775105A40DF5 48B2D0BE00BFF11A 6C44B545E0B128D6",
        "mix: 0FBBBF01DCB7B00D 64887AA3FA51B415 1DDDF7024A6B27F4",
        "cbr+best_effort: 3FA7550D6D14C6B3 045D84BBC880880F 51F7B45812E3ECA7",
    ];
    assert_eq!(got, want, "a workload builder's output moved");
}
