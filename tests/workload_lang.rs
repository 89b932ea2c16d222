//! The workload language is a *description* of an experiment, not a new
//! engine.  Every committed pack compiles to a literal transcription of
//! the `SweepSpec` its experiment was defined by before packs existed,
//! and compiling `workloads/paper_fig5.toml` reproduces the Fig. 5
//! configs bit for bit — same `ExperimentResult` JSON bytes, same
//! arbitration-RNG stream positions.  The property
//! tests then pin the language itself: fuzzed specs, rendered to TOML by
//! a template in the test, parse back to themselves losslessly, and
//! malformed documents — scrambled copies of the committed packs
//! included — always surface as typed [`SpecError`]s, never panics.

use mmr_core::arbiter::priority::PriorityKind;
use mmr_core::arbiter::scheduler::ArbiterKind;
use mmr_core::config::{
    vbr_cycle_budget, BestEffortSpec, FabricSpec, FaultSpec, InjectionKind, RunLength, SimConfig,
    WorkloadSpec as Workload,
};
use mmr_core::conformance::{ensemble_seeds, Bound, Check, Ensemble, Loads, Panel};
use mmr_core::experiment::{build_router, build_workload, run_experiment, ExperimentResult};
use mmr_core::router::config::{LinkPolicy, RouterConfig};
use mmr_core::router::fabric::Topology;
use mmr_core::saturation::ExperimentCache;
use mmr_core::sim::engine::{Runner, StopCondition};
use mmr_core::sim::fault::FaultPlanConfig;
use mmr_core::sweep::{SweepPoint, SweepSpec};
use mmr_core::traffic::admission::RoundConfig;
use mmr_core::workload_lang::{
    parse_arbiter, parse_class, validate_pack_set, ClaimSpec, FabricSec, Fidelity, RouterSec,
    SpecError, WorkloadSpec,
};
use proptest::prelude::*;
use std::path::Path;

fn pack_path(name: &str) -> String {
    format!("{}/../../workloads/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn load_pack(name: &str) -> WorkloadSpec {
    let text = std::fs::read_to_string(pack_path(name)).expect("pack file readable");
    let spec = WorkloadSpec::parse(&text).expect("pack parses");
    spec.validate().expect("pack validates");
    spec
}

// ---------------------------------------------------------------------------
// Literal transcriptions: what each committed pack must compile to
// ---------------------------------------------------------------------------

/// The paper's CBR mix (`preset = "paper-cbr"`) over a cycle-counted run.
fn cbr_base(warmup: u64, cycles: u64) -> SimConfig {
    SimConfig {
        workload: Workload::cbr(0.5),
        warmup_cycles: warmup,
        run: RunLength::Cycles(cycles),
        ..Default::default()
    }
}

/// MPEG-2 VBR streams (`vbr = "sr" | "bb"`) drained after `gops` GOPs.
fn vbr_base(injection: InjectionKind, gops: usize) -> SimConfig {
    SimConfig {
        workload: Workload::Vbr {
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
    }
}

fn grid(base: SimConfig, loads: &[f64], arbiters: &[ArbiterKind], seeds: usize) -> SweepSpec {
    SweepSpec {
        seeds: ensemble_seeds(base.seed, seeds),
        base,
        loads: loads.to_vec(),
        arbiters: arbiters.to_vec(),
    }
}

const COA_WFA: [ArbiterKind; 2] = [ArbiterKind::Coa, ArbiterKind::Wfa];
const FIG5_FULL_LOADS: [f64; 12] = [
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9,
];

/// Fig. 5 at the paper's grid, one seed (`paper_fig5.toml`).
fn paper_fig5_literal(fidelity: Fidelity) -> SweepSpec {
    match fidelity {
        Fidelity::Quick => grid(
            cbr_base(2_000, 25_000),
            &[0.3, 0.5, 0.7, 0.8, 0.9],
            &COA_WFA,
            1,
        ),
        Fidelity::Full => grid(cbr_base(20_000, 400_000), &FIG5_FULL_LOADS, &COA_WFA, 1),
    }
}

/// Fig. 5 as the claims read it (`fig5.toml`): 120k-cycle quick runs,
/// the 86% anchor in both grids, five seeds.
fn fig5_literal(fidelity: Fidelity) -> SweepSpec {
    match fidelity {
        Fidelity::Quick => grid(
            cbr_base(5_000, 120_000),
            &[0.3, 0.5, 0.7, 0.76, 0.8, 0.86, 0.9],
            &COA_WFA,
            5,
        ),
        Fidelity::Full => {
            let mut loads = FIG5_FULL_LOADS.to_vec();
            loads.push(0.86);
            loads.sort_by(|a, b| a.partial_cmp(b).unwrap());
            grid(cbr_base(20_000, 400_000), &loads, &COA_WFA, 5)
        }
    }
}

/// The frontier (`frontier.toml`): fig5's base, three of its loads,
/// seven arbiters, three seeds.
fn frontier_literal(fidelity: Fidelity) -> SweepSpec {
    let arbiters = [
        ArbiterKind::Coa,
        ArbiterKind::Wfa,
        ArbiterKind::Islip { iterations: 2 },
        ArbiterKind::MwmExact,
        ArbiterKind::MwmApprox,
        ArbiterKind::FrameFair {
            frame: mmr_core::arbiter::frame::DEFAULT_FRAME,
        },
        ArbiterKind::CrosspointQueued {
            cap: mmr_core::arbiter::cq::DEFAULT_CAP,
        },
    ];
    grid(fig5_literal(fidelity).base, &[0.5, 0.7, 0.86], &arbiters, 3)
}

/// Figs. 8/9 for one injection model (`fig9_sr.toml`, `fig9_bb.toml`).
fn fig9_literal(injection: InjectionKind, fidelity: Fidelity) -> SweepSpec {
    match fidelity {
        Fidelity::Quick => grid(vbr_base(injection, 1), &[0.4, 0.6, 0.85], &COA_WFA, 3),
        Fidelity::Full => grid(
            vbr_base(injection, 4),
            &[0.4, 0.5, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95],
            &COA_WFA,
            5,
        ),
    }
}

/// The 16-router mesh at load 0.6 under COA (`fabric_mesh.toml`, which
/// also runs it under WFA).
fn fabric_mesh_literal(fidelity: Fidelity) -> SimConfig {
    let (warmup, cycles) = match fidelity {
        Fidelity::Quick => (1_000, 15_000),
        Fidelity::Full => (5_000, 60_000),
    };
    SimConfig {
        workload: Workload::cbr(0.6),
        warmup_cycles: warmup,
        run: RunLength::Cycles(cycles),
        ..Default::default()
    }
    .with_fabric(FabricSpec::new(Topology::Mesh { x: 4, y: 4 }))
}

/// The line network (`fabric_line.toml`): four MMRs in tandem under the
/// CBR mix, COA vs WFA, at the retired line-network table's run lengths
/// and loads.
fn fabric_line_literal(fidelity: Fidelity) -> SweepSpec {
    let line = |base: SimConfig| base.with_fabric(FabricSpec::new(Topology::Line { stages: 4 }));
    match fidelity {
        Fidelity::Quick => grid(line(cbr_base(1_000, 15_000)), &[0.5, 0.8], &COA_WFA, 3),
        Fidelity::Full => grid(
            line(cbr_base(10_000, 150_000)),
            &[0.3, 0.5, 0.7, 0.8],
            &COA_WFA,
            3,
        ),
    }
}

/// The chaos scenario at fault-rate `factor` (`chaos_free.toml` at 0,
/// `chaos.toml` at 4): the CBR mix at 0.5 plus default best effort, no
/// warm-up, the default fault plan in the cycle 5000-15000 window, and
/// the run ending at the window end.
fn chaos_literal(factor: f64) -> SweepSpec {
    let base = SimConfig {
        best_effort: Some(BestEffortSpec::default()),
        fault: Some(FaultSpec {
            plan: FaultPlanConfig {
                window_start: 5_000,
                window_len: 10_000,
                factor,
            },
            delay_bound_flit_cycles: None,
        }),
        ..cbr_base(0, 15_000)
    };
    grid(base, &[0.5], &[ArbiterKind::Coa], 5)
}

/// `base` with its router changed by `knob`.
fn with_router(base: &SimConfig, knob: impl FnOnce(&mut RouterConfig)) -> SimConfig {
    let mut cfg = base.clone();
    knob(&mut cfg.router);
    cfg
}

/// The ablation packs, each with the pack whose base it shares: one knob
/// on fig5's or fig9_sr's base, a 3-seed prefix and a subset of the
/// loads.  The knob values are the ones the retired ablation printers
/// swept: k = 1, 1-flit VCs, IABP / FIFO / Static priorities, the
/// 1024-entry slot table with and without backfill, and concurrency
/// factors 1 and 4 with the peak admission test enforced.
fn one_knob_literals(fidelity: Fidelity) -> Vec<(&'static str, &'static str, SweepSpec)> {
    let fig5 = fig5_literal(fidelity).base;
    let sr = fig9_literal(InjectionKind::SmoothRate, fidelity).base;
    let coa = [ArbiterKind::Coa];
    let field = [
        ArbiterKind::Coa,
        ArbiterKind::Wfa,
        ArbiterKind::Islip { iterations: 2 },
        ArbiterKind::WfaFixed,
        ArbiterKind::GreedyPriority,
        ArbiterKind::Pim { iterations: 2 },
        ArbiterKind::Random,
    ];
    let priority = |priority| SimConfig {
        priority,
        ..fig5.clone()
    };
    let slot_table = |backfill| {
        with_router(&sr, |r| {
            r.link_policy = LinkPolicy::SlotTable {
                backfill,
                table_len: 1024,
            }
        })
    };
    let peak_test = |concurrency_factor| {
        let mut cfg = with_router(&sr, |r| {
            r.round = RoundConfig {
                concurrency_factor,
                ..RoundConfig::default()
            }
        });
        if let Workload::Vbr { enforce_peak, .. } = &mut cfg.workload {
            *enforce_peak = true;
        }
        cfg
    };
    vec![
        (
            "arbiter_field",
            "fig5",
            grid(fig5.clone(), &[0.5, 0.7, 0.86], &field, 3),
        ),
        (
            "levels_k1",
            "fig5",
            grid(
                with_router(&fig5, |r| r.candidate_levels = 1),
                &[0.86],
                &coa,
                3,
            ),
        ),
        (
            "vc_depth1",
            "fig5",
            grid(
                with_router(&fig5, |r| r.vc_buffer_flits = 1),
                &[0.86],
                &coa,
                3,
            ),
        ),
        (
            "priority_iabp",
            "fig5",
            grid(priority(PriorityKind::Iabp), &[0.86], &coa, 3),
        ),
        (
            "priority_fifo",
            "fig5",
            grid(priority(PriorityKind::Fifo), &[0.86], &coa, 3),
        ),
        (
            "priority_static",
            "fig5",
            grid(priority(PriorityKind::Static), &[0.7], &coa, 3),
        ),
        (
            "tdm_sr",
            "fig9_sr",
            grid(slot_table(false), &[0.6], &coa, 3),
        ),
        (
            "tdm_backfill_sr",
            "fig9_sr",
            grid(slot_table(true), &[0.6], &coa, 3),
        ),
        (
            "cac_tight",
            "fig9_sr",
            grid(peak_test(1.0), &[0.85], &coa, 3),
        ),
        (
            "cac_loose",
            "fig9_sr",
            grid(peak_test(4.0), &[0.85], &coa, 3),
        ),
    ]
}

#[test]
fn one_knob_packs_compile_to_their_transcribed_sweeps() {
    for fidelity in [Fidelity::Quick, Fidelity::Full] {
        let compile = |name: &str| {
            load_pack(&format!("{name}.toml"))
                .compile(fidelity)
                .expect("pack compiles")
                .sweep
        };
        for (name, base_pack, want) in one_knob_literals(fidelity) {
            let (got, base) = (compile(name), compile(base_pack));
            assert_eq!(got, want, "{name} ({fidelity:?}) diverged");
            // The baseline cells a claim reads are the base pack's own:
            // its loads, a prefix of its seeds.
            for load in &got.loads {
                assert!(
                    base.loads.contains(load),
                    "{name}: load {load} off {base_pack}'s grid"
                );
            }
            assert_eq!(
                got.seeds[..],
                base.seeds[..got.seeds.len()],
                "{name}: seed prefix"
            );
        }
    }
}

#[test]
fn fig5_pack_compiles_to_the_canned_sweep() {
    let spec = load_pack("paper_fig5.toml");
    for fidelity in [Fidelity::Quick, Fidelity::Full] {
        let pack = spec.compile(fidelity).expect("pack compiles");
        assert_eq!(
            pack.sweep,
            paper_fig5_literal(fidelity),
            "compiled {fidelity:?} sweep diverged from the Fig. 5 grid"
        );
    }
}

#[test]
fn paper_packs_compile_to_their_transcribed_sweeps() {
    for fidelity in [Fidelity::Quick, Fidelity::Full] {
        let compiled = |name: &str| {
            load_pack(&format!("{name}.toml"))
                .compile(fidelity)
                .expect("pack compiles")
        };
        for (name, want) in [
            ("fig5", fig5_literal(fidelity)),
            ("frontier", frontier_literal(fidelity)),
            ("fig9_sr", fig9_literal(InjectionKind::SmoothRate, fidelity)),
            ("fig9_bb", fig9_literal(InjectionKind::BackToBack, fidelity)),
        ] {
            let pack = compiled(name);
            assert_eq!(pack.sweep, want, "{name} ({fidelity:?}) diverged");
            assert_eq!(pack.trace_gops, None);
        }
        assert_eq!(compiled("fabric_line").sweep, fabric_line_literal(fidelity));
        for (name, factor) in [("chaos_free", 0.0), ("chaos", 4.0)] {
            assert_eq!(
                compiled(name).sweep,
                chaos_literal(factor),
                "{name} ({fidelity:?}) diverged"
            );
        }
        let mesh = fabric_mesh_literal(fidelity);
        assert_eq!(
            compiled("fabric_mesh").sweep.configs(),
            vec![mesh.clone(), mesh.with_arbiter(ArbiterKind::Wfa)]
        );
        // The MPEG pack runs no router: five seeds of 4 (quick) or 40
        // (full) GOPs per Table 1 sequence.
        let mpeg = compiled("mpeg");
        let gops = match fidelity {
            Fidelity::Quick => 4,
            Fidelity::Full => 40,
        };
        assert_eq!(mpeg.trace_gops, Some(gops));
        assert_eq!(
            mpeg.sweep.seeds,
            ensemble_seeds(SimConfig::default().seed, 5)
        );
        assert!(mpeg.sweep.loads.is_empty() && mpeg.sweep.arbiters.is_empty());
    }
}

#[test]
fn frontier_spec_loads_are_a_fig5_subset_in_both_fidelities() {
    // The dedup guarantee: every frontier grid point is also a Fig. 5
    // grid point on the same base and seed prefix, so under one cache the
    // COA/WFA cells never simulate twice.
    for fidelity in [Fidelity::Quick, Fidelity::Full] {
        let compile = |name: &str| {
            load_pack(name)
                .compile(fidelity)
                .expect("pack compiles")
                .sweep
        };
        let (f5, fr) = (compile("fig5.toml"), compile("frontier.toml"));
        for load in &fr.loads {
            assert!(
                f5.loads.contains(load),
                "frontier load {load} missing from the Fig. 5 grid ({fidelity:?})"
            );
        }
        assert_eq!(fr.base, f5.base, "frontier must reuse the Fig. 5 base");
        assert_eq!(fr.seeds[..], f5.seeds[..fr.seeds.len()], "seed prefix");
        for kind in COA_WFA {
            assert!(fr.arbiters.contains(&kind) && f5.arbiters.contains(&kind));
        }
    }
}

#[test]
fn fig5_pack_results_are_byte_identical_event_horizon() {
    // Named for the idle-skipping loop that used to be the default; the
    // full grid now runs through the one step loop.
    let pack = load_pack("paper_fig5.toml")
        .compile(Fidelity::Quick)
        .expect("pack compiles");
    let canned = paper_fig5_literal(Fidelity::Quick);
    for (ours, theirs) in pack.sweep.configs().iter().zip(canned.configs().iter()) {
        let a = serde_json::to_string(&run_experiment(ours)).expect("serializes");
        let b = serde_json::to_string(&run_experiment(theirs)).expect("serializes");
        assert_eq!(
            a,
            b,
            "results diverged at load {} arbiter {}",
            ours.workload.target_load(),
            ours.arbiter.label()
        );
    }
}

#[test]
fn fig5_pack_results_are_byte_identical_cycle_by_cycle() {
    // One load, both arbiters, with the router stepped by `Runner`
    // directly rather than through `run_experiment`.
    let pack = load_pack("paper_fig5.toml")
        .compile(Fidelity::Quick)
        .expect("pack compiles");
    let canned = paper_fig5_literal(Fidelity::Quick);
    let stepped = |cfg: &SimConfig| {
        let workload = build_workload(cfg);
        let mut router = build_router(cfg, workload);
        let RunLength::Cycles(cycles) = cfg.run else {
            panic!("the Fig. 5 grid runs for a fixed cycle count");
        };
        let outcome =
            Runner::new(cfg.warmup_cycles, StopCondition::Cycles(cycles)).run(&mut router);
        let summary = serde_json::to_string(&router.summary()).expect("serializes");
        (outcome.executed, summary, router.rng_fingerprint())
    };
    for (ours, theirs) in pack.sweep.configs().iter().zip(canned.configs().iter()) {
        if (ours.workload.target_load() - 0.7).abs() > 1e-9 {
            continue;
        }
        assert_eq!(
            stepped(ours),
            stepped(theirs),
            "cycle-by-cycle diverged under {}",
            ours.arbiter.label()
        );
    }
}

#[test]
fn fig5_pack_rng_fingerprints_match_the_canned_path() {
    // Stronger than output equality: after identical runs the arbitration
    // RNG must sit at the same stream position.
    let pack = load_pack("paper_fig5.toml")
        .compile(Fidelity::Quick)
        .expect("pack compiles");
    let canned = paper_fig5_literal(Fidelity::Quick);
    let fingerprint = |cfg: &SimConfig| {
        let workload = build_workload(cfg);
        let mut router = build_router(cfg, workload);
        Runner::new(cfg.warmup_cycles, StopCondition::Cycles(6_000)).run(&mut router);
        router.rng_fingerprint()
    };
    for (ours, theirs) in pack.sweep.configs().iter().zip(canned.configs().iter()) {
        if (ours.workload.target_load() - 0.5).abs() > 1e-9 {
            continue;
        }
        assert_eq!(
            fingerprint(ours),
            fingerprint(theirs),
            "RNG stream diverged (arbiter {})",
            ours.arbiter.label()
        );
    }
}

// ---------------------------------------------------------------------------
// The committed pack set stays wellformed
// ---------------------------------------------------------------------------

#[test]
fn all_committed_packs_parse_validate_and_compile() {
    let dir = pack_path("");
    let mut names: Vec<_> = std::fs::read_dir(Path::new(&dir))
        .expect("workloads/ exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".toml"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 9,
        "expected the nine committed packs, found {names:?}"
    );
    for name in names {
        let spec = load_pack(&name);
        for fidelity in [Fidelity::Quick, Fidelity::Full] {
            let pack = spec.compile(fidelity).expect("pack compiles");
            assert_eq!(pack.sweep.loads.is_empty(), spec.is_trace_pack());
            assert!(!pack.sweep.seeds.is_empty());
        }
    }
}

#[test]
fn scenario_packs_carry_enough_claims() {
    for (name, min_claims) in [
        ("paper_fig5.toml", 3),
        ("wimax_classes.toml", 3),
        ("noc_fair.toml", 3),
        ("fig5.toml", 6),
        ("fig9_sr.toml", 5),
        ("fig9_bb.toml", 1),
        ("frontier.toml", 5),
        ("mpeg.toml", 6),
        ("arbiter_field.toml", 5),
        ("levels_k1.toml", 1),
        ("vc_depth1.toml", 1),
        ("priority_iabp.toml", 1),
        ("priority_fifo.toml", 1),
        ("priority_static.toml", 1),
        ("tdm_sr.toml", 1),
        ("tdm_backfill_sr.toml", 1),
        ("cac_tight.toml", 1),
        ("cac_loose.toml", 1),
        ("chaos.toml", 2),
        ("fabric_line.toml", 2),
    ] {
        let spec = load_pack(name);
        let claims = spec.claim.as_ref().map(|c| c.len()).unwrap_or(0);
        assert!(claims >= min_claims, "{name} has only {claims} claims");
    }
}

// ---------------------------------------------------------------------------
// Typed errors: pack sets and fabric sizes
// ---------------------------------------------------------------------------

/// The two Fig. 8/9 packs: `fig9_bb`'s claim reads `fig9_sr`.
fn fig9_pair() -> (WorkloadSpec, WorkloadSpec) {
    let (sr, bb) = (load_pack("fig9_sr.toml"), load_pack("fig9_bb.toml"));
    assert_eq!(validate_pack_set(&[sr.clone(), bb.clone()]), Ok(()));
    (sr, bb)
}

fn bb_claim(bb: &mut WorkloadSpec) -> &mut ClaimSpec {
    &mut bb.claim.as_mut().expect("fig9_bb carries a claim")[0]
}

#[test]
fn a_cross_pack_claim_naming_no_pack_is_a_typed_error() {
    let (sr, mut bb) = fig9_pair();
    bb_claim(&mut bb).versus_pack = Some("fig9_xx".into());
    assert_eq!(bb.validate(), Ok(()), "a pack alone cannot see the set");
    assert!(matches!(
        validate_pack_set(&[sr, bb]),
        Err(SpecError::Config(e))
            if e.field == "claim[fig9.bb-above-sr].versus_pack" && e.reason.contains("`fig9_xx`")
    ));
}

#[test]
fn a_claim_id_used_by_two_packs_is_a_typed_error() {
    let (sr, mut bb) = fig9_pair();
    bb_claim(&mut bb).id = "fig8.overlap".into();
    assert!(matches!(
        validate_pack_set(&[sr, bb]),
        Err(SpecError::Config(e)) if e.field == "claim[fig8.overlap].id"
    ));
}

#[test]
fn a_claim_load_missing_from_the_read_pack_is_a_typed_error() {
    // fig9_bb sweeps 0.75 in both fidelities; fig9_sr's quick grid does
    // not, so the ratio has no denominator there.
    let (sr, mut bb) = fig9_pair();
    bb.sweep.loads = Some(vec![0.4, 0.6, 0.75, 0.85]);
    bb_claim(&mut bb).at_load = Some(0.75);
    assert_eq!(bb.validate(), Ok(()));
    assert!(matches!(
        validate_pack_set(&[sr, bb]),
        Err(SpecError::Config(e))
            if e.field == "claim[fig9.bb-above-sr].at_load" && e.reason.starts_with("0.75 ")
    ));
}

/// `fabric_mesh.toml` with its `[fabric]` table changed by `edit`,
/// validated.
fn edited_fabric(edit: impl FnOnce(&mut FabricSec)) -> Result<(), SpecError> {
    let mut spec = load_pack("fabric_mesh.toml");
    edit(spec.fabric.as_mut().expect("fabric_mesh has a [fabric]"));
    spec.validate()
}

/// `fabric_mesh.toml` with `field = 0` added to its `[fabric]` table.
fn zero_fabric_field(field: &str) -> Result<(), SpecError> {
    edited_fabric(|fabric| match field {
        "host_ports" => fabric.host_ports = Some(0),
        "workers" => fabric.workers = Some(0),
        "link_latency" => fabric.link_latency = Some(0),
        other => panic!("no fabric field {other}"),
    })
}

#[test]
fn zero_fabric_host_ports_is_a_typed_error() {
    assert!(matches!(
        zero_fabric_field("host_ports"),
        Err(SpecError::Config(e)) if e.field == "fabric.host_ports"
    ));
}

#[test]
fn zero_fabric_workers_is_a_typed_error() {
    assert!(matches!(
        zero_fabric_field("workers"),
        Err(SpecError::Config(e)) if e.field == "fabric.workers"
    ));
}

#[test]
fn zero_fabric_link_latency_is_a_typed_error() {
    assert!(matches!(
        zero_fabric_field("link_latency"),
        Err(SpecError::Config(e)) if e.field == "fabric.link_latency"
    ));
}

// Shapes `Fabric::new` would refuse with a panic are typed errors at the
// pack's front door (`FabricConfig::check`).

#[test]
fn a_one_node_ring_is_a_typed_error() {
    let one_node_ring = edited_fabric(|fabric| {
        fabric.topology = "ring".into();
        fabric.nodes = Some(1);
    });
    assert!(matches!(
        one_node_ring,
        Err(SpecError::Config(e))
            if e.field == "fabric.topology" && e.reason.contains("ring needs at least two nodes")
    ));
}

#[test]
fn a_torus_one_node_wide_is_a_typed_error() {
    let thin_torus = edited_fabric(|fabric| {
        fabric.topology = "torus".into();
        fabric.x = Some(1);
    });
    assert!(matches!(
        thin_torus,
        Err(SpecError::Config(e))
            if e.field == "fabric.topology" && e.reason.contains("torus axes need at least two nodes")
    ));
}

#[test]
fn host_ports_past_the_kernel_limit_are_a_typed_error() {
    // Four mesh links plus 253 host links: a 257-port node.
    let wide = edited_fabric(|fabric| fabric.host_ports = Some(253));
    assert!(matches!(
        wide,
        Err(SpecError::Config(e)) if e.field == "fabric.node.ports" && e.reason.contains("at most 256")
    ));
    assert_eq!(
        edited_fabric(|fabric| fabric.host_ports = Some(252)),
        Ok(())
    );
}

#[test]
fn a_fabric_pack_with_a_fault_plan_is_a_typed_error() {
    // The fabric runner injects no faults, so the pack would run
    // something other than it declares.
    let mut spec = load_pack("fabric_mesh.toml");
    spec.fault = Some(FaultPlanConfig {
        window_start: 1_000,
        window_len: 5_000,
        factor: 1.0,
    });
    assert!(matches!(
        spec.validate(),
        Err(SpecError::Config(e)) if e.field == "fault" && e.reason.contains("fabric")
    ));
}

// ---------------------------------------------------------------------------
// Typed errors: the `[fault]` front door
// ---------------------------------------------------------------------------

/// `chaos.toml` with its `[fault]` table edited by `edit`.
fn fault_edit(edit: impl FnOnce(&mut FaultPlanConfig)) -> Result<(), SpecError> {
    let mut spec = load_pack("chaos.toml");
    edit(spec.fault.as_mut().expect("chaos has a [fault]"));
    let compiled = spec.compile(Fidelity::Quick).map(|_| ());
    assert_eq!(compiled, spec.validate(), "compile validates first");
    compiled
}

#[test]
fn a_fault_window_end_that_overflows_is_a_typed_error() {
    // Generating this plan would wrap `window_start + below(window_len)`.
    let overflow = fault_edit(|f| {
        f.window_start = 18_446_744_073_709_551_000;
        f.window_len = 10_000;
    });
    assert!(matches!(
        overflow,
        Err(SpecError::Config(e)) if e.field == "fault.plan.window_len" && e.reason.contains("overflows")
    ));
}

#[test]
fn a_fault_window_past_the_run_is_a_typed_error() {
    // chaos runs 15 000 cycles: a window ending one cycle later cannot
    // fire in full.
    let late = fault_edit(|f| f.window_start = 5_001);
    assert!(matches!(
        late,
        Err(SpecError::Config(e))
            if e.field == "fault.plan.window_len" && e.reason.contains("past the run's last cycle 15000")
    ));
    assert_eq!(fault_edit(|f| f.window_start = 5_000), Ok(()));
    // A drained VBR run ends at its cycle budget.
    let mut vbr = load_pack("fig9_sr.toml");
    let budget = vbr_cycle_budget(1);
    vbr.fault = Some(FaultPlanConfig {
        window_start: budget - 1_000,
        window_len: 1_000,
        factor: 1.0,
    });
    assert_eq!(vbr.validate(), Ok(()));
    vbr.fault.as_mut().unwrap().window_len = 1_001;
    assert!(matches!(
        vbr.validate(),
        Err(SpecError::Config(e))
            if e.field == "fault.plan.window_len" && e.reason.contains(&budget.to_string())
    ));
}

#[test]
fn a_fault_plan_past_one_event_per_window_cycle_is_a_typed_error() {
    // 1e15 x the default rates would queue ~5e16 events before the run.
    let flood = fault_edit(|f| f.factor = 1e15);
    assert!(matches!(
        flood,
        Err(SpecError::Config(e))
            if e.field == "fault.plan.window_len" && e.reason.contains("at most one per cycle")
    ));
    // The default plan fires 5.4 events per 1 000 cycles: factor 185 is
    // the last that stays at or under one per cycle.
    assert_eq!(fault_edit(|f| f.factor = 185.0), Ok(()));
    assert!(fault_edit(|f| f.factor = 186.0).is_err());
}

// ---------------------------------------------------------------------------
// Typed errors: one per `[router]` field
// ---------------------------------------------------------------------------

/// `levels_k1.toml` with its `[router]` table edited by `edit`.
fn router_edit(edit: impl FnOnce(&mut RouterSec)) -> Result<(), SpecError> {
    let mut spec = load_pack("levels_k1.toml");
    edit(spec.router.as_mut().expect("levels_k1 has a [router]"));
    let compiled = spec.compile(Fidelity::Quick).map(|_| ());
    assert_eq!(compiled, spec.validate(), "compile validates first");
    compiled
}

#[test]
fn zero_router_candidate_levels_is_a_typed_error() {
    assert!(matches!(
        router_edit(|r| r.candidate_levels = Some(0)),
        Err(SpecError::Config(e))
            if e.field == "router.candidate_levels" && e.reason.contains("candidate level")
    ));
}

#[test]
fn zero_router_vc_buffer_flits_is_a_typed_error() {
    assert!(matches!(
        router_edit(|r| r.vc_buffer_flits = Some(0)),
        Err(SpecError::Config(e))
            if e.field == "router.vc_buffer_flits" && e.reason.contains("one flit")
    ));
}

#[test]
fn unknown_router_priority_is_a_typed_error() {
    assert!(matches!(
        router_edit(|r| r.priority = Some("lifo".into())),
        Err(SpecError::Config(e)) if e.field == "router.priority" && e.reason.contains("`lifo`")
    ));
}

#[test]
fn unknown_router_link_policy_is_a_typed_error() {
    assert!(matches!(
        router_edit(|r| r.link_policy = Some("round-robin".into())),
        Err(SpecError::Config(e))
            if e.field == "router.link_policy" && e.reason.contains("round-robin")
    ));
}

#[test]
fn router_concurrency_factor_below_one_is_a_typed_error() {
    for factor in [0.5, f64::NAN, f64::INFINITY] {
        assert!(matches!(
            router_edit(|r| r.concurrency_factor = Some(factor)),
            Err(SpecError::Config(e))
                if e.field == "router.round.concurrency_factor"
                    && e.reason.contains("concurrency factor")
        ));
    }
}

#[test]
fn router_and_peak_test_keys_need_a_router_and_vbr_traffic() {
    let mut mpeg = load_pack("mpeg.toml");
    mpeg.router = load_pack("levels_k1.toml").router;
    assert!(matches!(mpeg.validate(), Err(SpecError::Config(e)) if e.field == "router"));
    let mut cbr = load_pack("levels_k1.toml");
    cbr.traffic.enforce_peak = Some(true);
    assert!(
        matches!(cbr.validate(), Err(SpecError::Config(e)) if e.field == "traffic.enforce_peak")
    );
}

// ---------------------------------------------------------------------------
// Pack claims: gated, and recomputable from the raw sweep points
// ---------------------------------------------------------------------------

/// One claim's per-seed scalars, recomputed from the raw sweep points with
/// each `kind`'s original formula — independent of the claim engine.
fn recompute_per_seed(c: &ClaimSpec, first_arbiter: &str, points: &[SweepPoint]) -> Vec<f64> {
    let cell = |name: &str| {
        let arbiter = parse_arbiter(name, "arbiter").expect("arbiter parses");
        points
            .iter()
            .find(|p| {
                p.arbiter == arbiter && c.at_load.is_some_and(|l| (p.target_load - l).abs() < 1e-6)
            })
            .expect("claim anchors at a swept cell")
    };
    let delay = |r: &ExperimentResult, label: &Option<String>| {
        let class =
            parse_class(label.as_deref().expect("class named"), "class").expect("class parses");
        r.summary
            .metrics
            .class(class)
            .map(|m| m.mean_delay_us)
            .unwrap_or(0.0)
    };
    let p = cell(c.arbiter.as_deref().unwrap_or(first_arbiter));
    let each = |f: &dyn Fn(&ExperimentResult) -> f64| p.results.iter().map(f).collect();
    match c.kind.as_str() {
        "delay-below" => each(&|r| delay(r, &c.class)),
        "delay-ratio-at-least" => {
            each(&|r| delay(r, &c.slower) / delay(r, &c.faster).max(f64::EPSILON))
        }
        "delay-within-factor" => {
            let versus = cell(c.versus.as_deref().expect("versus named"));
            p.results
                .iter()
                .zip(&versus.results)
                .map(|(a, b)| delay(a, &c.class) / delay(b, &c.class).max(f64::EPSILON))
                .collect()
        }
        "throughput-floor" => each(&|r| r.summary.throughput_ratio()),
        "fairness-above" => each(&|r| r.summary.reservation_fairness),
        "reject-rate-below" => each(&|r| r.admission.reject_rate()),
        "utilization-above" => each(&|r| r.summary.crossbar_utilization),
        other => panic!("claim {} has unknown kind {other}", c.id),
    }
}

#[test]
fn committed_pack_claims_pass_and_match_a_recomputation() {
    let mut cache = ExperimentCache::new();
    let mut kinds = std::collections::BTreeSet::new();
    let mut total = 0;
    for name in ["paper_fig5.toml", "wimax_classes.toml", "noc_fair.toml"] {
        let spec = load_pack(name);
        let pack = spec.compile(Fidelity::Quick).expect("pack compiles");
        let mut e = Ensemble::default();
        e.insert(&pack.name, pack.run(&mut cache));
        let points = e.panel(&Panel::new(&pack.name)).points.clone();
        let report = pack.evaluate(&e, Fidelity::Quick);
        let claims = spec.claim.as_deref().expect("pack carries claims");
        assert_eq!(report.claims.len(), claims.len());
        for (c, o) in claims.iter().zip(&report.claims) {
            assert_eq!(o.id, c.id);
            assert!(o.pass, "{}: median {} vs {}", o.id, o.median, o.threshold);
            assert!(
                o.margin > 0.0,
                "{}: margin {} leaves no room",
                o.id,
                o.margin
            );
            let want = recompute_per_seed(c, &spec.sweep.arbiters.as_ref().unwrap()[0], &points);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&o.per_seed),
                bits(&want),
                "{}: per-seed values moved",
                o.id
            );
            assert_eq!(o.per_seed.len(), pack.sweep.seeds.len());
            assert_eq!(o.threshold.to_bits(), c.threshold.to_bits());
            let upper_bound = matches!(
                c.kind.as_str(),
                "delay-below" | "delay-within-factor" | "reject-rate-below"
            );
            assert_eq!(o.higher_is_better, !upper_bound, "{}: direction", o.id);
            kinds.insert(c.kind.clone());
            total += 1;
        }

        // Negative control: the same measurements judged with every bound
        // flipped must fail, or the gate could not reject anything.
        let mut flipped = pack.clone();
        for c in &mut flipped.claims {
            match &mut c.check {
                Check::Curve {
                    loads: Loads::At(_),
                    bound,
                    ..
                } => {
                    *bound = match *bound {
                        Bound::AtMost(x) => Bound::AtLeast(x),
                        Bound::AtLeast(x) => Bound::AtMost(x),
                    }
                }
                other => panic!("{}: pack claims are point checks, got {other:?}", c.id),
            }
        }
        let flipped = flipped.evaluate(&e, Fidelity::Quick);
        for (o, f) in report.claims.iter().zip(&flipped.claims) {
            assert_eq!(
                f.per_seed, o.per_seed,
                "{}: flipping moved the values",
                f.id
            );
            assert!(
                !f.pass,
                "{}: flipped bound still passes ({})",
                f.id, f.median
            );
        }
    }
    assert_eq!(total, 11, "the three committed packs carry 11 claims");
    assert_eq!(
        kinds.len(),
        7,
        "all seven claim kinds are covered: {kinds:?}"
    );
}

// ---------------------------------------------------------------------------
// Satellite 2: property tests — lossless round-trip, typed rejection
// ---------------------------------------------------------------------------

/// A valid spec assembled from fuzzed primitives, as a typed value: the
/// round-trip property renders it to text itself, so the parser is
/// checked against a spec it did not build.
fn build_spec(
    warmup: u64,
    cycles: u64,
    rates: (f64, f64),
    weights: (f64, f64),
    seeds: u64,
    ramp_gap: u64,
    with_churn: bool,
) -> WorkloadSpec {
    use mmr_core::config::{ChurnConfig, RampStepConfig};
    use mmr_core::workload_lang::*;
    let group = |name: &str, class: &str, rate_kbps, weight| GroupSpec {
        name: name.into(),
        class: class.into(),
        rate_kbps,
        weight,
    };
    let step = |at_cycle, fraction| RampStepConfig { at_cycle, fraction };
    WorkloadSpec {
        meta: MetaSpec {
            name: "fuzzed".into(),
            description: "property-test pack:\t\"quoted\"\n".into(),
        },
        traffic: TrafficSpec {
            preset: None,
            group: Some(vec![
                group("a", "cbr-low", rates.0, weights.0),
                group("b", "cbr-high", rates.1, weights.1),
            ]),
            vbr: None,
            enforce_peak: None,
        },
        router: None,
        best_effort: None,
        run: RunSec {
            warmup: Some(warmup),
            cycles: Some(cycles),
            gops: None,
            full: None,
        },
        sweep: SweepSec {
            loads: Some(vec![0.25, 0.5]),
            initial: None,
            max: None,
            step: None,
            arbiters: Some(vec!["coa".into()]),
            seeds,
            seed: None,
            full: None,
        },
        ramp: Some(RampSec {
            step: vec![step(0, 0.5), step(1 + ramp_gap, 1.0)],
        }),
        churn: with_churn.then_some(ChurnConfig {
            start: warmup / 2,
            end: warmup / 2 + 1 + ramp_gap,
            departures: 0.25,
            arrivals: 0.25,
        }),
        fault: None,
        fabric: None,
        claim: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spec_roundtrips_losslessly_through_toml(
        lengths in (0u64..5_000, 1_000u64..50_000),
        rates in (1.0f64..50_000.0, 1.0f64..50_000.0),
        weights in (0.125f64..8.0, 0.125f64..8.0),
        knobs in (1u64..6, 1u64..4_000, 0u64..2),
    ) {
        // A run must outlast its warm-up (`SimConfig::check`), so the
        // measured cycles come on top of it.
        let (warmup, measured) = lengths;
        let (seeds, ramp_gap, churn) = knobs;
        let cycles = warmup + measured;
        let spec = build_spec(warmup, cycles, rates, weights, seeds, ramp_gap, churn == 1);
        prop_assert!(spec.validate().is_ok(), "assembled spec must validate");
        // `{:?}` prints every float with a fraction or exponent and the
        // shortest digits that read back to the same bits.
        let churn_sec = match spec.churn {
            Some(c) => format!(
                "\n[churn]\nstart = {}\nend = {}\ndepartures = {:?}\narrivals = {:?}\n",
                c.start, c.end, c.departures, c.arrivals
            ),
            None => String::new(),
        };
        let text = format!(
            r#"
# A comment line, and a trailing one below.
[meta]
name = "fuzzed"
description = "property-test pack:\t\"quoted\"\n"

[[traffic.group]]
name = "a"
class = "cbr-low"
rate_kbps = {ra:?}
weight = {wa:?}

[[traffic.group]]
name = "b"
class = "cbr-high"
rate_kbps = {rb:?}
weight = {wb:?}   # pick weight

[run]
warmup = {warmup}
cycles = {cycles}

[sweep]
loads = [0.25, 0.5]
arbiters = ["coa"]
seeds = {seeds}

[[ramp.step]]
at_cycle = 0
fraction = 0.5

[[ramp.step]]
at_cycle = {ramp_at}
fraction = 1.0
{churn_sec}"#,
            ra = rates.0,
            wa = weights.0,
            rb = rates.1,
            wb = weights.1,
            ramp_at = 1 + ramp_gap,
        );
        let back = WorkloadSpec::parse(&text);
        prop_assert!(back.is_ok(), "rendered TOML failed to parse: {:?}\n{}", back, text);
        prop_assert_eq!(back.unwrap(), spec);
    }

    #[test]
    fn malformed_specs_yield_typed_errors_not_panics(
        bad_rate in -50_000.0f64..0.0,
        at_cycle in 0u64..1_000,
        overload in 0.3f64..0.9,
    ) {
        let base = build_spec(1_000, 10_000, (64.0, 128.0), (1.0, 1.0), 1, 100, false);

        // Negative / zero rates are typed rejections.
        let mut spec = base.clone();
        spec.traffic.group.as_mut().unwrap()[0].rate_kbps = bad_rate;
        // Group `a` is the first group.
        prop_assert!(matches!(
            spec.validate(),
            Err(SpecError::Config(e)) if e.field == "workload.groups[0].rate_bps"
        ));

        // Overlapping ramp windows: two steps at the same cycle.
        let mut spec = base.clone();
        {
            let steps = &mut spec.ramp.as_mut().unwrap().step;
            steps[0].at_cycle = at_cycle;
            steps[1].at_cycle = at_cycle;
        }
        prop_assert!(matches!(
            spec.validate(),
            Err(SpecError::Config(e)) if e.field == "workload.ramp.steps[1].at_cycle"
        ));

        // Class totals over slot capacity: peak load plus churn arrivals
        // plus best-effort background past 1.0.
        let mut spec = base.clone();
        spec.sweep.loads = Some(vec![overload]);
        spec.best_effort = Some(mmr_core::workload_lang::BestEffortSec {
            load: 0.95 - overload + 0.2,
            mean_flits: 8.0,
        });
        prop_assert!(matches!(
            spec.validate(),
            Err(SpecError::Config(e)) if e.field == "sweep.loads" && e.reason.contains("capacity")
        ));

        // Inverted churn window.
        let mut spec = base;
        spec.churn = Some(mmr_core::config::ChurnConfig {
            start: at_cycle + 1,
            end: at_cycle,
            departures: 0.1,
            arrivals: 0.0,
        });
        prop_assert!(matches!(
            spec.validate(),
            Err(SpecError::Config(e)) if e.field == "workload.churn.end"
        ));
    }

    #[test]
    fn parser_never_panics_on_scrambled_documents(
        picks in proptest::collection::vec(0usize..16, 0..12),
    ) {
        // Assemble documents from a pool of pathological lines; any
        // outcome is fine as long as it is a Result, not a panic.
        const POOL: [&str; 16] = [
            "[meta]",
            "name = \"x\"",
            "description = \"y\"",
            "[traffic]",
            "preset = \"paper-cbr\"",
            "[[traffic.group]]",
            "rate_kbps = -1.0e308",
            "loads = [0.5, ",
            "0.7]",
            "= 3",
            "[[claim]",
            "x = \"unterminated",
            "y = [ [ [ 1 ] ] ]",
            "z = 0xZZ",
            "seeds = 99999999999999999999999999",
            "[a.b.c.d.e]",
        ];
        let doc: Vec<&str> = picks.iter().map(|&i| POOL[i]).collect();
        let doc = doc.join("\n");
        let _ = WorkloadSpec::parse(&doc).and_then(|s| s.validate());
    }

    #[test]
    fn scrambled_paper_packs_yield_typed_errors_not_panics(
        pack in 0usize..9,
        picks in proptest::collection::vec(0usize..64, 0..48),
        mutation in (0usize..64, 0usize..6),
    ) {
        // Reorder, drop and repeat the lines of a paper pack, then
        // overwrite one value with a hostile one; parsing, validating and
        // compiling must end in a Result, never a panic.  The last four
        // carry a [router] table.
        const PACKS: [&str; 9] = [
            "fig5", "fig9_sr", "fig9_bb", "frontier", "mpeg", "levels_k1", "priority_iabp",
            "tdm_backfill_sr", "cac_tight",
        ];
        const HOSTILE: [&str; 6] = ["0", "-1", "1e308", "\"\"", "[]", "18446744073709551615"];
        let text = std::fs::read_to_string(pack_path(&format!("{}.toml", PACKS[pack])))
            .expect("pack file readable");
        let lines: Vec<&str> = text.lines().collect();
        let mut doc: Vec<String> = picks.iter().map(|&i| lines[i % lines.len()].to_string()).collect();
        if !doc.is_empty() {
            let i = mutation.0 % doc.len();
            if let Some((key, _)) = doc[i].split_once('=') {
                doc[i] = format!("{key}= {}", HOSTILE[mutation.1]);
            }
        }
        if let Ok(spec) = WorkloadSpec::parse(&doc.join("\n")) {
            for fidelity in [Fidelity::Quick, Fidelity::Full] {
                let _ = spec.compile(fidelity);
            }
        }
    }
}
