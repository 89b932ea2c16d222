//! The one front door: `SimConfig::check` is the only semantic config
//! validator, and every config field it lets through either moves a
//! result or is a declared performance knob.
//!
//! * The mutation property test perturbs one numeric or boolean field at
//!   a time of valid `SimConfig`s (a single router with faults,
//!   telemetry and a scheduled Mix workload; VBR under the peak test; a
//!   slot table; a mesh) and of parsed workload packs, to 0, -1, NaN, a
//!   huge value and off by one.  Each outcome must be a typed error (the
//!   data model's, `ConfigError` or `SpecError`) or a config that builds
//!   and steps a few hundred cycles without panicking.
//! * The knob contract moves each field of the same configs one octave:
//!   a semantic field must move the result or the arbitration RNG stream
//!   in at least one of them; the performance field (`fabric.workers`)
//!   must move neither in any.

use mmr_core::arbiter::scheduler::ArbiterKind;
use mmr_core::config::{
    BestEffortSpec, ChurnConfig, FabricSpec, FaultSpec, InjectionKind, MixGroup,
    RampScheduleConfig, RampStepConfig, RunLength, SimConfig, TelemetrySpec, WorkloadSpec,
};
use mmr_core::experiment::{
    build_fabric, build_fabric_workload, build_router, build_workload, run_experiment,
};
use mmr_core::router::config::LinkPolicy;
use mmr_core::router::fabric::Topology;
use mmr_core::sim::engine::{Runner, StopCondition};
use mmr_core::sim::fault::FaultPlanConfig;
use mmr_core::traffic::connection::TrafficClass;
use mmr_core::workload_lang::{Fidelity, WorkloadSpec as Pack};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Flit cycles a perturbed config that passes the check is stepped.
const STEPS: u64 = 300;

/// A single router with everything armed: a two-group Mix workload with
/// a ramp and a churn window, best effort, a fault plan whose window
/// opens inside the first [`STEPS`] cycles, telemetry, and the
/// frame-fair scheduler.
fn armed_router() -> SimConfig {
    let group = |class, rate_bps, weight| MixGroup {
        class,
        rate_bps,
        weight,
    };
    SimConfig {
        workload: WorkloadSpec::Mix {
            target_load: 0.85,
            groups: vec![
                group(TrafficClass::CbrMedium, 1.54e6, 1.0),
                group(TrafficClass::CbrHigh, 55e6, 1.0),
            ],
            ramp: Some(RampScheduleConfig {
                steps: [(0, 0.25), (100, 0.5), (200, 1.0)]
                    .map(|(at_cycle, fraction)| RampStepConfig { at_cycle, fraction })
                    .to_vec(),
            }),
            churn: Some(ChurnConfig {
                start: 300,
                end: 600,
                departures: 0.2,
                arrivals: 0.1,
            }),
        },
        best_effort: Some(BestEffortSpec::default()),
        arbiter: ArbiterKind::FrameFair { frame: 32 },
        warmup_cycles: 100,
        run: RunLength::Cycles(4_000),
        fault: Some(FaultSpec {
            plan: FaultPlanConfig {
                window_start: 50,
                window_len: 3_000,
                factor: 20.0,
            },
            delay_bound_flit_cycles: None,
        }),
        telemetry: Some(TelemetrySpec::default()),
        ..SimConfig::default()
    }
}

/// VBR under the peak admission test, its factor loose enough that the
/// target load binds.
fn vbr_peak_test() -> SimConfig {
    let mut cfg = SimConfig {
        workload: WorkloadSpec::Vbr {
            target_load: 0.8,
            gops: 1,
            injection: InjectionKind::BackToBack,
            enforce_peak: true,
        },
        warmup_cycles: 1_000,
        run: RunLength::Cycles(45_000),
        ..SimConfig::default()
    };
    cfg.router.round.concurrency_factor = 4.0;
    cfg
}

/// The CBR mix near saturation on a backfilled slot table, with the
/// crosspoint-queued scheduler.
fn slot_table() -> SimConfig {
    let mut cfg = SimConfig {
        workload: WorkloadSpec::cbr(0.95),
        arbiter: ArbiterKind::CrosspointQueued { cap: 4 },
        warmup_cycles: 100,
        run: RunLength::Cycles(3_000),
        ..SimConfig::default()
    };
    cfg.router.link_policy = LinkPolicy::SlotTable {
        backfill: true,
        table_len: 1024,
    };
    cfg
}

/// A 2x2 mesh of routers under the CBR mix with one-pass iSLIP.
fn mesh() -> SimConfig {
    SimConfig {
        workload: WorkloadSpec::cbr(0.8),
        arbiter: ArbiterKind::Islip { iterations: 1 },
        warmup_cycles: 100,
        run: RunLength::Cycles(3_000),
        ..SimConfig::default()
    }
    .with_fabric(FabricSpec::new(Topology::Mesh { x: 2, y: 2 }))
}

fn bases() -> [SimConfig; 4] {
    [armed_router(), vbr_peak_test(), slot_table(), mesh()]
}

/// Committed packs the mutation test perturbs: faults, a fabric, a
/// `[router]` table, a slot table, a ramp and churn schedule.
const PACKS: [&str; 5] = [
    "chaos",
    "fabric_line",
    "levels_k1",
    "tdm_backfill_sr",
    "wimax_classes",
];

fn pack(name: &str) -> Pack {
    let path = format!("{}/../../workloads/{name}.toml", env!("CARGO_MANIFEST_DIR"));
    Pack::parse(&std::fs::read_to_string(path).expect("pack readable")).expect("pack parses")
}

// ---------------------------------------------------------------------------
// Field access through the data model
// ---------------------------------------------------------------------------

/// Index path of every number and boolean in `v`.
fn leaves(v: &Value) -> Vec<Vec<usize>> {
    fn walk(v: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        match v {
            Value::Bool(_) | Value::U64(_) | Value::I64(_) | Value::F64(_) => {
                out.push(path.clone())
            }
            Value::Array(items) => items.iter().enumerate().for_each(|(i, item)| {
                path.push(i);
                walk(item, path, out);
                path.pop();
            }),
            Value::Object(fields) => fields.iter().enumerate().for_each(|(i, (_, item))| {
                path.push(i);
                walk(item, path, out);
                path.pop();
            }),
            Value::Null | Value::Str(_) => {}
        }
    }
    let mut out = Vec::new();
    walk(v, &mut Vec::new(), &mut out);
    out
}

fn leaf<'a>(v: &'a Value, path: &[usize]) -> &'a Value {
    path.iter().fold(v, |node, &i| match node {
        Value::Array(items) => &items[i],
        Value::Object(fields) => &fields[i].1,
        _ => unreachable!("leaf paths only descend containers"),
    })
}

fn leaf_mut<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(v, |node, &i| match node {
        Value::Array(items) => &mut items[i],
        Value::Object(fields) => &mut fields[i].1,
        _ => unreachable!("leaf paths only descend containers"),
    })
}

/// Dotted name of the leaf at `path`, e.g. `router.time.flit_bits`.
fn leaf_name(v: &Value, path: &[usize]) -> String {
    let mut node = v;
    let mut name = String::new();
    for &i in path {
        match node {
            Value::Array(items) => {
                name.push_str(&format!("[{i}]"));
                node = &items[i];
            }
            Value::Object(fields) => {
                if !name.is_empty() {
                    name.push('.');
                }
                name.push_str(&fields[i].0);
                node = &fields[i].1;
            }
            _ => unreachable!("leaf paths only descend containers"),
        }
    }
    name
}

/// The path of the leaf named `name` in `v`.
fn find_leaf(v: &Value, name: &str) -> Vec<usize> {
    leaves(v)
        .into_iter()
        .find(|path| leaf_name(v, path) == name)
        .unwrap_or_else(|| panic!("no field {name}"))
}

/// `v` with the leaf at `path` replaced.
fn with_leaf(v: &Value, path: &[usize], new: Value) -> Value {
    let mut v = v.clone();
    *leaf_mut(&mut v, path) = new;
    v
}

// ---------------------------------------------------------------------------
// The mutation property test
// ---------------------------------------------------------------------------

/// Perturbation `kind` (0 through 5: zero, minus one, NaN, huge, plus one,
/// minus one) of a number; a boolean flips whatever the kind.
fn perturb(leaf: &Value, kind: usize) -> Value {
    match *leaf {
        Value::Bool(b) => Value::Bool(!b),
        Value::U64(n) => [
            Value::U64(0),
            Value::I64(-1),
            Value::F64(f64::NAN),
            Value::U64(u64::MAX),
            Value::U64(n.saturating_add(1)),
            Value::U64(n.saturating_sub(1)),
        ][kind]
            .clone(),
        Value::I64(n) => [
            Value::U64(0),
            Value::I64(-1),
            Value::F64(f64::NAN),
            Value::I64(i64::MAX),
            Value::I64(n.saturating_add(1)),
            Value::I64(n.saturating_sub(1)),
        ][kind]
            .clone(),
        Value::F64(x) => Value::F64([0.0, -1.0, f64::NAN, 1e300, x + 1.0, x - 1.0][kind]),
        _ => unreachable!("leaves are numbers and booleans"),
    }
}

/// Run `cfg` for at most [`STEPS`] cycles, as `run_experiment` would.
fn step_briefly(cfg: &SimConfig) {
    let mut short = cfg.clone();
    let (RunLength::Cycles(last) | RunLength::UntilDrained { max_cycles: last }) = cfg.run;
    let n = last.min(STEPS);
    short.run = match cfg.run {
        RunLength::Cycles(_) => RunLength::Cycles(n),
        RunLength::UntilDrained { .. } => RunLength::UntilDrained { max_cycles: n },
    };
    short.warmup_cycles = cfg.warmup_cycles.min(n - 1);
    run_experiment(&short);
}

/// What a perturbed config does: a typed error (`Err`), or `Ok` once it
/// has stepped; a panic is reported with the field and value.
fn outcome(
    name: &str,
    value: &Value,
    go: impl FnOnce() -> Result<(), String>,
) -> Result<(), TestCaseError> {
    match catch_unwind(AssertUnwindSafe(go)) {
        Ok(_) => Ok(()),
        Err(_) => Err(TestCaseError::fail(format!(
            "{name} = {value:?} panicked instead of failing with a typed error"
        ))),
    }
}

/// Perturb leaf `pick` of base config `base` with `kind`.
fn mutate_config(base: usize, pick: usize, kind: usize) -> Result<(), TestCaseError> {
    let v = bases()[base].to_value();
    let all = leaves(&v);
    let path = &all[pick % all.len()];
    let value = perturb(leaf(&v, path), kind);
    let name = leaf_name(&v, path);
    outcome(&name, &value, || {
        let cfg = SimConfig::from_value(&with_leaf(&v, path, value.clone()))
            .map_err(|e| e.to_string())?;
        cfg.check().map_err(|e| e.to_string())?;
        step_briefly(&cfg);
        Ok(())
    })
}

/// Perturb leaf `pick` of committed pack `which` with `kind`; a pack
/// that still compiles steps its first quick point.
fn mutate_pack(which: usize, pick: usize, kind: usize) -> Result<(), TestCaseError> {
    let v = pack(PACKS[which]).to_value();
    let all = leaves(&v);
    let path = &all[pick % all.len()];
    let value = perturb(leaf(&v, path), kind);
    let name = format!("{}: {}", PACKS[which], leaf_name(&v, path));
    outcome(&name, &value, || {
        let spec =
            Pack::from_value(&with_leaf(&v, path, value.clone())).map_err(|e| e.to_string())?;
        let compiled = spec.compile(Fidelity::Quick).map_err(|e| e.to_string())?;
        let sweep = &compiled.sweep;
        step_briefly(
            &sweep
                .base
                .with_load(sweep.loads[0])
                .with_arbiter(sweep.arbiters[0]),
        );
        Ok(())
    })
}

/// The mutation test's counterexamples, minimized to one field: each
/// panicked, overflowed or aborted on allocation before the check
/// bounded it, and is now a `ConfigError` naming its field.
#[test]
fn mutation_counterexamples_are_typed_errors() {
    let max = Value::U64(u64::MAX);
    let cases = [
        (
            0,
            "router.time.link_bits_per_sec",
            Value::F64(1e300),
            "router.time.link_bits_per_sec",
        ),
        (
            0,
            "router.crossing_latency_flits",
            max.clone(),
            "router.crossing_latency_flits",
        ),
        (
            0,
            "workload.Mix.ramp.steps[1].at_cycle",
            max.clone(),
            "workload.ramp.steps[1].at_cycle",
        ),
        (
            0,
            "workload.Mix.churn.end",
            max.clone(),
            "workload.churn.end",
        ),
        (
            0,
            "best_effort.mean_flits",
            Value::F64(1e300),
            "best_effort.mean_flits",
        ),
        (
            0,
            "fault.plan.factor",
            Value::F64(1e300),
            "fault.plan.window_len",
        ),
        (1, "workload.Vbr.gops", max.clone(), "workload.gops"),
        (
            2,
            "router.round.cycles_per_round",
            max.clone(),
            "router.round.cycles_per_round",
        ),
        (
            2,
            "router.link_policy.SlotTable.table_len",
            max.clone(),
            "router.link_policy.table_len",
        ),
        (3, "fabric.topology.Mesh.x", max.clone(), "fabric.topology"),
        (3, "fabric.link_latency", max.clone(), "fabric.link_latency"),
        (3, "fabric.host_ports", max.clone(), "fabric.node.ports"),
    ];
    for (base, name, value, field) in cases {
        let v = bases()[base].to_value();
        let cfg = SimConfig::from_value(&with_leaf(&v, &find_leaf(&v, name), value))
            .expect("the value fits the field's type");
        assert_eq!(
            cfg.check().map_err(|e| e.field),
            Err(field.to_string()),
            "{name}"
        );
    }
    // A 2^64-stage line asked for a 4 GiB node table; a 1e300-wide load
    // generator overflowed counting its grid.
    for (name, leaf, value, expected) in [
        (
            "fabric_line",
            "fabric.stages",
            max,
            "fabric.topology: a fabric holds at most",
        ),
        (
            "wimax_classes",
            "sweep.max",
            Value::F64(1e300),
            "generated grid holds at most",
        ),
    ] {
        let v = pack(name).to_value();
        let spec = Pack::from_value(&with_leaf(&v, &find_leaf(&v, leaf), value)).expect("fits");
        let err = spec.validate().expect_err(name).to_string();
        assert!(err.contains(expected), "{name}: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn perturbed_configs_fail_typed_or_step_cleanly(
        base in 0usize..4,
        pick in 0usize..1 << 16,
        kind in 0usize..6,
    ) {
        mutate_config(base, pick, kind)?;
    }

    #[test]
    fn perturbed_packs_fail_typed_or_step_cleanly(
        which in 0usize..PACKS.len(),
        pick in 0usize..1 << 16,
        kind in 0usize..6,
    ) {
        mutate_pack(which, pick, kind)?;
    }
}

// ---------------------------------------------------------------------------
// The knob contract
// ---------------------------------------------------------------------------

/// Declared performance knobs: every value gives bit-identical results.
const PERFORMANCE: [&str; 1] = ["fabric.workers"];

/// Fields that move no result although they are not performance knobs,
/// each with the reason it stays.  The test fails once one starts to
/// matter, so the list cannot go stale.
const INERT: [(&str, &str); 1] = [(
    "router.vc_ram_banks",
    "only VcMemory::bank_of/bank_occupancy read the bank count, and nothing but \
     vcmem.rs's own tests calls them; the benchmark's replay still sets the field",
)];

/// What a run shows: the serialized result (its config blanked) and the
/// arbitration RNG stream position of every router.
fn observe(cfg: &SimConfig) -> (String, Vec<u64>) {
    let mut result = run_experiment(cfg);
    result.config = SimConfig::default();
    let shown = serde_json::to_string(&result).expect("result serializes");
    let (RunLength::Cycles(bound) | RunLength::UntilDrained { max_cycles: bound }) = cfg.run;
    let fingerprints = match &cfg.fabric {
        Some(spec) => {
            let mut fabric = build_fabric(cfg, spec, build_fabric_workload(cfg, spec));
            fabric.run_parallel(cfg.warmup_cycles, bound, 1, false);
            fabric.rng_fingerprints()
        }
        None => {
            let mut router = build_router(cfg, build_workload(cfg));
            Runner::new(cfg.warmup_cycles, StopCondition::Cycles(bound)).run(&mut router);
            vec![router.rng_fingerprint()]
        }
    };
    (shown, fingerprints)
}

/// One step of a field: one octave, double or else halve (an integer
/// at 0 steps to 1), whichever keeps the config valid; a boolean flips.
fn one_step(leaf: &Value) -> Vec<Value> {
    match *leaf {
        Value::Bool(b) => vec![Value::Bool(!b)],
        Value::U64(n) => vec![Value::U64((2 * n).max(1)), Value::U64(n / 2)],
        Value::F64(x) => vec![Value::F64(x * 2.0), Value::F64(x / 2.0)],
        _ => unreachable!("config leaves are unsigned, float or boolean"),
    }
}

#[test]
fn every_semantic_field_moves_the_result_and_no_performance_field_does() {
    // A field may be inert in one base (the peak test's factor outside
    // VBR, `router.ports` in a mesh) but must move a result in another.
    // A field the check pins to one value (the last ramp step's 1.0) has
    // no valid step and is no knob.
    let mut moved: BTreeMap<String, bool> = BTreeMap::new();
    for base in bases() {
        let seen = observe(&base);
        let same = |cfg: &SimConfig| observe(cfg) == seen;
        let v = base.to_value();
        for path in leaves(&v) {
            let flipped = one_step(leaf(&v, &path))
                .into_iter()
                .filter_map(|x| SimConfig::from_value(&with_leaf(&v, &path, x)).ok())
                .find(|cfg| cfg != &base && cfg.check().is_ok());
            if let Some(cfg) = flipped {
                *moved.entry(leaf_name(&v, &path)).or_default() |= !same(&cfg);
            }
        }
    }
    let declared_inert =
        |name: &str| PERFORMANCE.contains(&name) || INERT.iter().any(|&(field, _)| field == name);
    let violations: Vec<_> = moved
        .iter()
        .filter(|&(name, &moved)| moved == declared_inert(name))
        .map(|(name, &moved)| match moved {
            true => format!("{name} is declared inert but moved a result"),
            false => format!("{name} moved no result in any base"),
        })
        .collect();
    assert!(violations.is_empty(), "{violations:#?}");
    for name in PERFORMANCE.iter().chain(INERT.iter().map(|(name, _)| name)) {
        assert!(moved.contains_key(*name), "no base steps {name}");
    }
}

/// Every config leaf the bases set, by dotted name, so that a new knob
/// shows up here as a reviewed diff.
const LEAVES: [&str; 48] = [
    "arbiter.CrosspointQueued.cap",
    "arbiter.FrameFair.frame",
    "arbiter.Islip.iterations",
    "best_effort.mean_flits",
    "best_effort.per_link_load",
    "fabric.host_ports",
    "fabric.link_latency",
    "fabric.topology.Mesh.x",
    "fabric.topology.Mesh.y",
    "fabric.workers",
    "fault.plan.factor",
    "fault.plan.window_len",
    "fault.plan.window_start",
    "router.candidate_levels",
    "router.crossing_latency_flits",
    "router.link_policy.SlotTable.backfill",
    "router.link_policy.SlotTable.table_len",
    "router.ports",
    "router.round.concurrency_factor",
    "router.round.cycles_per_round",
    "router.time.flit_bits",
    "router.time.link_bits_per_sec",
    "router.time.phit_bits",
    "router.vc_buffer_flits",
    "router.vc_ram_banks",
    "run.Cycles",
    "seed",
    "telemetry.wall_clock",
    "warmup_cycles",
    "workload.Cbr.target_load",
    "workload.Mix.churn.arrivals",
    "workload.Mix.churn.departures",
    "workload.Mix.churn.end",
    "workload.Mix.churn.start",
    "workload.Mix.groups[0].rate_bps",
    "workload.Mix.groups[0].weight",
    "workload.Mix.groups[1].rate_bps",
    "workload.Mix.groups[1].weight",
    "workload.Mix.ramp.steps[0].at_cycle",
    "workload.Mix.ramp.steps[0].fraction",
    "workload.Mix.ramp.steps[1].at_cycle",
    "workload.Mix.ramp.steps[1].fraction",
    "workload.Mix.ramp.steps[2].at_cycle",
    "workload.Mix.ramp.steps[2].fraction",
    "workload.Mix.target_load",
    "workload.Vbr.enforce_peak",
    "workload.Vbr.gops",
    "workload.Vbr.target_load",
];

#[test]
fn the_bases_set_exactly_the_listed_leaves() {
    let names: BTreeSet<String> = bases()
        .iter()
        .flat_map(|base| {
            let v = base.to_value();
            let names: Vec<String> = leaves(&v).iter().map(|p| leaf_name(&v, p)).collect();
            names
        })
        .collect();
    let listed: BTreeSet<String> = LEAVES.iter().map(|name| name.to_string()).collect();
    assert_eq!(names, listed, "a config leaf was added or removed");
}
