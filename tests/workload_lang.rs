//! The workload language is a *description* of an experiment, not a new
//! engine: compiling `workloads/paper_fig5.toml` must reproduce the
//! canned `scenarios::fig5` path bit for bit — same `SweepSpec`, same
//! `ExperimentResult` JSON bytes, same arbitration-RNG stream positions,
//! in both engine modes.  The property tests then pin the language
//! itself: specs round-trip losslessly through the TOML emitter, and
//! malformed documents always surface as typed [`SpecError`]s, never
//! panics.

use mmr_core::config::{EngineMode, SimConfig};
use mmr_core::conformance::{run_sweep_cached, Bound, Check};
use mmr_core::experiment::{build_router, build_workload, run_experiment, ExperimentResult};
use mmr_core::saturation::ExperimentCache;
use mmr_core::scenarios::{fig5, Fidelity};
use mmr_core::sim::engine::{Runner, StopCondition};
use mmr_core::sweep::SweepPoint;
use mmr_core::workload_lang::{parse_arbiter, parse_class, ClaimSpec, SpecError, WorkloadSpec};
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
// Satellite 1: fig5 differential — declarative path vs canned path
// ---------------------------------------------------------------------------

#[test]
fn fig5_pack_compiles_to_the_canned_sweep() {
    let spec = load_pack("paper_fig5.toml");
    for fidelity in [Fidelity::Quick, Fidelity::Full] {
        let pack = spec.compile(fidelity).expect("pack compiles");
        assert_eq!(
            pack.sweep,
            fig5(fidelity),
            "compiled {fidelity:?} sweep diverged from scenarios::fig5"
        );
    }
}

#[test]
fn fig5_pack_results_are_byte_identical_event_horizon() {
    let pack = load_pack("paper_fig5.toml")
        .compile(Fidelity::Quick)
        .expect("pack compiles");
    let canned = fig5(Fidelity::Quick);
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
    // The slower engine on a subset of the grid: one load, both arbiters.
    let pack = load_pack("paper_fig5.toml")
        .compile(Fidelity::Quick)
        .expect("pack compiles");
    let canned = fig5(Fidelity::Quick);
    for (ours, theirs) in pack.sweep.configs().iter().zip(canned.configs().iter()) {
        if (ours.workload.target_load() - 0.7).abs() > 1e-9 {
            continue;
        }
        let ours = ours.clone().with_engine(EngineMode::CycleByCycle);
        let theirs = theirs.clone().with_engine(EngineMode::CycleByCycle);
        let a = serde_json::to_string(&run_experiment(&ours)).expect("serializes");
        let b = serde_json::to_string(&run_experiment(&theirs)).expect("serializes");
        assert_eq!(
            a,
            b,
            "cycle-by-cycle diverged under {}",
            ours.arbiter.label()
        );
    }
}

#[test]
fn fig5_pack_rng_fingerprints_match_the_canned_path() {
    // Stronger than output equality: after identical runs the arbitration
    // RNG must sit at the same stream position, per engine mode.
    let pack = load_pack("paper_fig5.toml")
        .compile(Fidelity::Quick)
        .expect("pack compiles");
    let canned = fig5(Fidelity::Quick);
    let fingerprint = |cfg: &SimConfig, horizon: bool| {
        let workload = build_workload(cfg);
        let mut router = build_router(cfg, workload);
        let runner = Runner::new(cfg.warmup_cycles, StopCondition::Cycles(6_000));
        if horizon {
            runner.run_horizon(&mut router);
        } else {
            runner.run(&mut router);
        }
        router.rng_fingerprint()
    };
    for (ours, theirs) in pack.sweep.configs().iter().zip(canned.configs().iter()) {
        if (ours.workload.target_load() - 0.5).abs() > 1e-9 {
            continue;
        }
        for horizon in [false, true] {
            assert_eq!(
                fingerprint(ours, horizon),
                fingerprint(theirs, horizon),
                "RNG stream diverged (horizon={horizon}, arbiter {})",
                ours.arbiter.label()
            );
        }
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
        names.len() >= 3,
        "expected the three committed packs, found {names:?}"
    );
    for name in names {
        let spec = load_pack(&name);
        for fidelity in [Fidelity::Quick, Fidelity::Full] {
            let pack = spec.compile(fidelity).expect("pack compiles");
            assert!(!pack.sweep.loads.is_empty());
            assert!(!pack.sweep.seeds.is_empty());
        }
        // Round-trip the committed document through the emitter too.
        let back = WorkloadSpec::parse(&spec.to_toml()).expect("emitted TOML parses");
        assert_eq!(back, spec, "{name} does not round-trip");
    }
}

#[test]
fn scenario_packs_carry_enough_claims() {
    for (name, min_claims) in [
        ("paper_fig5.toml", 3),
        ("wimax_classes.toml", 3),
        ("noc_fair.toml", 3),
    ] {
        let spec = load_pack(name);
        let claims = spec.claim.as_ref().map(|c| c.len()).unwrap_or(0);
        assert!(claims >= min_claims, "{name} has only {claims} claims");
    }
}

// ---------------------------------------------------------------------------
// Pack claims: gated, and recomputable from the raw sweep points
// ---------------------------------------------------------------------------

/// One claim's per-seed scalars, recomputed from the raw sweep points with
/// each `kind`'s original formula — independent of the claim engine.
fn recompute_per_seed(c: &ClaimSpec, first_arbiter: &str, points: &[SweepPoint]) -> Vec<f64> {
    let cell = |name: &str| {
        let arbiter = parse_arbiter(name).expect("arbiter parses");
        points
            .iter()
            .find(|p| p.arbiter == arbiter && (p.target_load - c.at_load).abs() < 1e-6)
            .expect("claim anchors at a swept cell")
    };
    let delay = |r: &ExperimentResult, label: &Option<String>| {
        let class = parse_class(label.as_deref().expect("class named")).expect("class parses");
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
        let points = run_sweep_cached(&pack.sweep, &mut cache, None);
        let report = pack.evaluate(&points, Fidelity::Quick);
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
            let want = recompute_per_seed(c, &spec.sweep.arbiters[0], &points);
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
                Check::AtPoint { bound, .. } | Check::RatioAtPoint { bound, .. } => {
                    *bound = match *bound {
                        Bound::AtMost(x) => Bound::AtLeast(x),
                        Bound::AtLeast(x) => Bound::AtMost(x),
                    }
                }
                other => panic!("{}: pack claims are point checks, got {other:?}", c.id),
            }
        }
        let flipped = flipped.evaluate(&points, Fidelity::Quick);
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

/// A valid spec assembled from fuzzed primitives.
fn build_spec(
    warmup: u64,
    cycles: u64,
    rates: (f64, f64),
    weights: (f64, f64),
    seeds: u64,
    ramp_gap: u64,
    with_churn: bool,
) -> WorkloadSpec {
    use mmr_core::workload_lang::*;
    let text = format!(
        r#"
[meta]
name = "fuzzed"
description = "property-test pack"

[[traffic.group]]
name = "a"
class = "cbr-low"
rate_kbps = {ra}
weight = {wa}

[[traffic.group]]
name = "b"
class = "cbr-high"
rate_kbps = {rb}
weight = {wb}

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
"#,
        ra = rates.0,
        wa = weights.0,
        rb = rates.1,
        wb = weights.1,
        ramp_at = 1 + ramp_gap,
    );
    let mut spec = WorkloadSpec::parse(&text).expect("assembled spec parses");
    if with_churn {
        spec.churn = Some(ChurnSec {
            start: warmup / 2,
            end: warmup / 2 + 1 + ramp_gap,
            departures: 0.25,
            arrivals: 0.25,
        });
    }
    spec
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
        let (warmup, cycles) = lengths;
        let (seeds, ramp_gap, churn) = knobs;
        let spec = build_spec(warmup, cycles, rates, weights, seeds, ramp_gap, churn == 1);
        prop_assert!(spec.validate().is_ok(), "assembled spec must validate");
        let text = spec.to_toml();
        let back = WorkloadSpec::parse(&text);
        prop_assert!(back.is_ok(), "emitted TOML failed to parse:\n{}", text);
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
        prop_assert_eq!(
            spec.validate(),
            Err(SpecError::NegativeRate { group: "a".into() })
        );

        // Overlapping ramp windows: two steps at the same cycle.
        let mut spec = base.clone();
        {
            let steps = &mut spec.ramp.as_mut().unwrap().step;
            steps[0].at_cycle = at_cycle;
            steps[1].at_cycle = at_cycle;
        }
        prop_assert!(matches!(
            spec.validate(),
            Err(SpecError::OverlappingRampWindows { .. })
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
            Err(SpecError::CapacityExceeded { .. })
        ));

        // Inverted churn window.
        let mut spec = base;
        spec.churn = Some(mmr_core::workload_lang::ChurnSec {
            start: at_cycle + 1,
            end: at_cycle,
            departures: 0.1,
            arrivals: 0.0,
        });
        prop_assert!(matches!(
            spec.validate(),
            Err(SpecError::ChurnWindowInverted { .. })
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
}
