//! The system under test, as the end-to-end benchmark sees it.
//!
//! This is the only file of the `bench` binary that names simulator items,
//! and it names only the pinned surface: `SimConfig` / `WorkloadSpec` /
//! `FabricSpec` / `TelemetrySpec`, `experiment::{build_workload,
//! build_router, build_fabric_workload, build_fabric}`, `CycleModel::{step,
//! on_measurement_start}`, `MmrRouter::{summary, backlog, set_telemetry,
//! telemetry_report, rng_fingerprint}`, `Fabric::{run_parallel, step,
//! summary, backlog, rng_fingerprints}`, `sweep::sweep_with_workers` and
//! `Runner`.  A refactor that keeps this surface keeps the end-to-end
//! numbers comparable; the layer replay (`replay.rs`) is allowed to break.

use crate::host::{Bracketed, Control, Shape, LONG_SECTION_SLICES};
use mmr_core::arbiter::scheduler::ArbiterKind;
use mmr_core::config::{
    FabricSpec, InjectionKind, MixGroup, RunLength, SimConfig, TelemetrySpec, WorkloadSpec,
};
use mmr_core::experiment::{build_fabric, build_fabric_workload, build_router, build_workload};
use mmr_core::router::fabric::{Fabric, Topology};
use mmr_core::router::router::MmrRouter;
use mmr_core::sim::engine::{CycleModel, Runner, StopCondition};
use mmr_core::sim::time::FlitCycle;
use mmr_core::sweep::{sweep_with_workers, SweepSpec};
use mmr_core::traffic::connection::TrafficClass;
use serde::Serialize;
use std::time::Instant;

/// Seed the committed `golden.json` fingerprints were taken at.
pub const DEFAULT_SEED: u64 = 0xB1ACA;

/// The six benchmark workloads.  Names are part of the benchmark contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    Cbr4Sat,
    Wide64Trunk,
    Cbr4Armed,
    Mesh16W1,
    Mesh16W2,
    Vbr4Sweep,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 6] = [
        WorkloadId::Cbr4Sat,
        WorkloadId::Wide64Trunk,
        WorkloadId::Cbr4Armed,
        WorkloadId::Mesh16W1,
        WorkloadId::Mesh16W2,
        WorkloadId::Vbr4Sweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Cbr4Sat => "cbr4_sat",
            WorkloadId::Wide64Trunk => "wide64_trunk",
            WorkloadId::Cbr4Armed => "cbr4_armed",
            WorkloadId::Mesh16W1 => "mesh16_w1",
            WorkloadId::Mesh16W2 => "mesh16_w2",
            WorkloadId::Vbr4Sweep => "vbr4_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload whose result this one must reproduce bit for bit:
    /// arming telemetry and adding fabric workers are both pure
    /// observability/performance knobs.
    pub fn twin(self) -> Option<WorkloadId> {
        match self {
            WorkloadId::Cbr4Armed => Some(WorkloadId::Cbr4Sat),
            WorkloadId::Mesh16W2 => Some(WorkloadId::Mesh16W1),
            _ => None,
        }
    }
}

/// Threads the parallel workloads may use: never more than two, so the
/// numbers mean the same on every host with at least two cores.
pub fn parallel_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Fixed work per unit.  Changing any of these re-bases every number.
///
/// A unit is an *ensemble*: admission draws the connection set from the
/// seed, and host time per cycle follows the connection count, so one
/// seed's throughput sits up to 15 % off another's.  Each unit therefore
/// simulates `*_MEMBERS` instances whose seeds derive from `--seed` and
/// reports their pooled rate, which keeps a claim testable on an unseen
/// seed without the seed deciding the number.
pub mod size {
    pub const CBR4_MEMBERS: u64 = 32;
    pub const CBR4_WARMUP: u64 = 2_000;
    pub const CBR4_CYCLES: u64 = 10_000;
    pub const WIDE64_MEMBERS: u64 = 8;
    pub const WIDE64_WARMUP: u64 = 2_000;
    pub const WIDE64_CYCLES: u64 = 5_000;
    pub const MESH_MEMBERS: u64 = 8;
    pub const MESH_WARMUP: u64 = 1_000;
    pub const MESH_BOUND: u64 = 3_000;
    /// The sweep's grid is loads x {COA, WFA} at each seed.  One member
    /// sweeps one load (two points, one per worker), so that the control
    /// brackets every half second of it, not every two.
    pub const SWEEP_SEEDS: u64 = 3;
    pub const SWEEP_LOADS: [f64; 2] = [0.4, 0.75];
    /// Safety bound of the `UntilDrained` points.  Streams start at a
    /// random offset within one GOP time (~605 k flit cycles) and then
    /// play one GOP, so a point drains after 1.0 to 1.3 M cycles.
    pub const SWEEP_MAX_CYCLES: u64 = 2_000_000;
}

/// Seed of ensemble member `k`; member 0 runs `--seed` itself.
fn member_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn cbr4(seed: u64) -> SimConfig {
    SimConfig {
        workload: WorkloadSpec::cbr(0.8),
        seed,
        warmup_cycles: size::CBR4_WARMUP,
        run: RunLength::Cycles(size::CBR4_WARMUP + size::CBR4_CYCLES),
        ..Default::default()
    }
}

fn wide64(seed: u64) -> SimConfig {
    let mut cfg = SimConfig {
        workload: WorkloadSpec::Mix {
            target_load: 0.8,
            groups: vec![MixGroup {
                class: TrafficClass::CbrHigh,
                rate_bps: 248e6,
                weight: 1.0,
            }],
            ramp: None,
            churn: None,
        },
        seed,
        warmup_cycles: size::WIDE64_WARMUP,
        run: RunLength::Cycles(size::WIDE64_WARMUP + size::WIDE64_CYCLES),
        ..Default::default()
    };
    cfg.router.ports = 64;
    cfg
}

fn mesh16(seed: u64, workers: usize) -> SimConfig {
    SimConfig {
        workload: WorkloadSpec::cbr(0.6),
        seed,
        warmup_cycles: size::MESH_WARMUP,
        run: RunLength::Cycles(size::MESH_BOUND),
        ..Default::default()
    }
    .with_fabric(FabricSpec::new(Topology::Mesh { x: 4, y: 4 }).with_workers(workers))
}

fn vbr4_sweep(seed: u64, loads: &[f64]) -> SweepSpec {
    let base = SimConfig {
        workload: WorkloadSpec::Vbr {
            target_load: 0.5,
            gops: 1,
            injection: InjectionKind::SmoothRate,
            enforce_peak: false,
        },
        seed,
        warmup_cycles: 0,
        run: RunLength::UntilDrained {
            max_cycles: size::SWEEP_MAX_CYCLES,
        },
        ..Default::default()
    };
    SweepSpec {
        seeds: vec![seed],
        base,
        loads: loads.to_vec(),
        arbiters: vec![ArbiterKind::Coa, ArbiterKind::Wfa],
    }
}

/// The single-router configuration behind a workload, long enough for
/// stage shares to settle.  Fabric workloads map to one router under the
/// same traffic spec; the sweep maps to its heaviest COA point.
/// `bench-trace` replays this configuration stage by stage.
pub fn router_config(w: WorkloadId, seed: u64) -> SimConfig {
    let (mut cfg, measured) = match w {
        WorkloadId::Cbr4Sat | WorkloadId::Cbr4Armed => (cbr4(seed), 100_000),
        WorkloadId::Wide64Trunk => (wide64(seed), 15_000),
        WorkloadId::Mesh16W1 | WorkloadId::Mesh16W2 => (mesh16(seed, 1), 100_000),
        WorkloadId::Vbr4Sweep => {
            let mut cfg = vbr4_sweep(seed, &[]).base.with_load(size::SWEEP_LOADS[1]);
            // Streams start anywhere in the first GOP time, so the router
            // is busiest where the last ones start: measure there.
            cfg.warmup_cycles = 550_000;
            (cfg, 50_000)
        }
    };
    cfg.fabric = None;
    cfg.run = RunLength::Cycles(cfg.warmup_cycles + measured);
    cfg
}

/// Host time one ensemble member spent simulating, bracketed by control
/// slices.
#[derive(Debug, Clone, Copy)]
pub struct MemberTiming {
    pub run: Bracketed,
    /// Simulated flit cycles executed (fabric: x routers; sweep: sum of
    /// the points' `executed_cycles`).
    pub sim_cycles: u64,
}

/// What one fixed-work unit produced.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// Config -> ready-to-step simulator for every member, back to back
    /// in one section (each built, then dropped).  A single set-up is a
    /// fraction of a millisecond of cold code, which follows memory
    /// contention the control cannot see; a unit's worth is steadier.
    pub setup: Bracketed,
    /// One entry per ensemble member, in member order.
    pub members: Vec<MemberTiming>,
    /// FNV-1a chain over the members' serialized summaries and RNG
    /// fingerprints.
    pub fingerprint: u64,
    /// Members for which `generated + backlog_at_measure_start ==
    /// delivered + backlog` did not hold.
    pub unconserved: u64,
}

/// One member's contribution to a unit.
struct Member {
    timing: MemberTiming,
    fingerprint: u64,
    conserved: bool,
}

impl UnitOutcome {
    fn absorb(&mut self, m: Member) {
        self.members.push(m.timing);
        self.fingerprint = fnv1a(&[
            &self.fingerprint.to_le_bytes(),
            &m.fingerprint.to_le_bytes(),
        ]);
        self.unconserved += u64::from(!m.conserved);
    }
}

fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        for &b in *p {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fingerprint<T: Serialize>(summary: &T, rng: &[u64]) -> u64 {
    let json = serde_json::to_string(summary).expect("summaries serialize");
    let rng: Vec<u8> = rng.iter().flat_map(|x| x.to_le_bytes()).collect();
    fnv1a(&[json.as_bytes(), &rng])
}

/// Config -> ready-to-step router; the span `setup_s` measures.
fn ready_router(cfg: &SimConfig) -> MmrRouter {
    let workload = build_workload(cfg);
    let mut router = build_router(cfg, workload);
    if let Some(t) = &cfg.telemetry {
        router.set_telemetry(t.to_config());
    }
    router
}

/// Cycle at which a run of `cfg` stops at the latest.
pub fn total_cycles(cfg: &SimConfig) -> u64 {
    match cfg.run {
        RunLength::Cycles(n) | RunLength::UntilDrained { max_cycles: n } => n,
    }
}

/// A router driven through `cfg` by `CycleModel::step` directly.
pub struct DrivenRouter {
    pub router: MmrRouter,
    /// The measured cycles (warm-up is not timed).
    pub run: Bracketed,
    pub measured_cycles: u64,
    pub backlog_at_measure_start: usize,
}

pub fn drive_router(cfg: &SimConfig, control: &mut Control) -> DrivenRouter {
    let mut router = ready_router(cfg);
    for t in 0..cfg.warmup_cycles {
        router.step(FlitCycle(t), false);
    }
    router.on_measurement_start(FlitCycle(cfg.warmup_cycles));
    let backlog_at_measure_start = router.backlog();
    let ((), run) = control.bracket(Shape::Serial, || {
        for t in cfg.warmup_cycles..total_cycles(cfg) {
            router.step(FlitCycle(t), true);
        }
    });
    DrivenRouter {
        router,
        run,
        measured_cycles: total_cycles(cfg) - cfg.warmup_cycles,
        backlog_at_measure_start,
    }
}

fn router_member(cfg: &SimConfig, control: &mut Control) -> Member {
    let d = drive_router(cfg, control);
    let s = d.router.summary();
    Member {
        timing: MemberTiming {
            run: d.run,
            sim_cycles: d.measured_cycles,
        },
        fingerprint: fingerprint(&s, &[d.router.rng_fingerprint()]),
        conserved: s.generated_flits + d.backlog_at_measure_start as u64
            == s.delivered_flits + s.backlog_flits as u64,
    }
}

fn ready_fabric(cfg: &SimConfig) -> Fabric {
    let spec = cfg.fabric.expect("mesh configs carry a fabric spec");
    let workload = build_fabric_workload(cfg, &spec);
    build_fabric(cfg, &spec, workload)
}

/// Per mesh member, the fabric backlog at the end of warm-up (empty for
/// the other workloads).  `run_parallel` opens the measurement window
/// internally, so the conservation check takes this from a twin that
/// stops there.  Run once per process, outside the timed rounds.
pub fn mesh_backlogs(w: WorkloadId, seed: u64) -> Vec<usize> {
    if !matches!(w, WorkloadId::Mesh16W1 | WorkloadId::Mesh16W2) {
        return Vec::new();
    }
    (0..size::MESH_MEMBERS)
        .map(|k| {
            let cfg = mesh16(member_seed(seed, k), 1);
            let mut fabric = ready_fabric(&cfg);
            fabric.run_parallel(0, cfg.warmup_cycles, 1, false);
            fabric.backlog()
        })
        .collect()
}

/// One fabric run; the whole `run_parallel` call is timed, warm-up
/// included.  `backlog0 = None` skips the conservation check.
fn fabric_member(cfg: &SimConfig, backlog0: Option<usize>, control: &mut Control) -> Member {
    let workers = cfg.fabric.expect("fabric config").workers;
    let mut fabric = ready_fabric(cfg);
    let shape = if workers > 1 {
        Shape::Epochs
    } else {
        Shape::Serial
    };
    let (out, run) = control.bracket(shape, || {
        fabric.run_parallel(cfg.warmup_cycles, total_cycles(cfg), workers, false)
    });
    let s = fabric.summary();
    Member {
        timing: MemberTiming {
            run,
            sim_cycles: out.executed * s.nodes as u64,
        },
        fingerprint: fingerprint(&s, &fabric.rng_fingerprints()),
        conserved: backlog0.is_none_or(|b0| {
            s.generated_flits + b0 as u64 == s.delivered_flits + s.backlog_flits as u64
        }),
    }
}

/// One sweep (one load x {COA, WFA} at one seed) as an ensemble member.
fn sweep_member(spec: &SweepSpec, control: &mut Control) -> Member {
    // Sweep workers only meet when the sweep ends.
    let (points, run) = control.bracket_with(Shape::Serial, LONG_SECTION_SLICES, || {
        sweep_with_workers(spec, Some(parallel_workers()))
    });
    let results: Vec<_> = points.iter().flat_map(|p| &p.results).collect();
    let digest: Vec<_> = results
        .iter()
        .map(|r| (&r.summary, r.executed_cycles, r.drained))
        .collect();
    Member {
        timing: MemberTiming {
            run,
            sim_cycles: results.iter().map(|r| r.executed_cycles).sum(),
        },
        fingerprint: fingerprint(&digest, &[]),
        // Warm-up is zero, so nothing is buffered when measurement opens.
        conserved: results.iter().all(|r| {
            let s = &r.summary;
            s.generated_flits == s.delivered_flits + s.backlog_flits as u64
        }),
    }
}

/// What one ensemble member simulates.
enum MemberSpec {
    Router(SimConfig),
    Fabric(SimConfig),
    Sweep(SweepSpec),
}

fn member_specs(w: WorkloadId, seed: u64) -> Vec<MemberSpec> {
    let seeds = |n: u64| (0..n).map(move |k| member_seed(seed, k));
    match w {
        WorkloadId::Cbr4Sat => seeds(size::CBR4_MEMBERS)
            .map(|s| MemberSpec::Router(cbr4(s)))
            .collect(),
        WorkloadId::Cbr4Armed => seeds(size::CBR4_MEMBERS)
            .map(|s| MemberSpec::Router(cbr4(s).with_telemetry(TelemetrySpec::default())))
            .collect(),
        WorkloadId::Wide64Trunk => seeds(size::WIDE64_MEMBERS)
            .map(|s| MemberSpec::Router(wide64(s)))
            .collect(),
        WorkloadId::Mesh16W1 => seeds(size::MESH_MEMBERS)
            .map(|s| MemberSpec::Fabric(mesh16(s, 1)))
            .collect(),
        WorkloadId::Mesh16W2 => seeds(size::MESH_MEMBERS)
            .map(|s| MemberSpec::Fabric(mesh16(s, parallel_workers())))
            .collect(),
        WorkloadId::Vbr4Sweep => seeds(size::SWEEP_SEEDS)
            .flat_map(|s| size::SWEEP_LOADS.map(|load| MemberSpec::Sweep(vbr4_sweep(s, &[load]))))
            .collect(),
    }
}

/// Config -> ready-to-step simulator(s) of one member, dropped at once.
/// The sweep builds its routers inside worker threads, so the same
/// configs are built here, serially.
fn set_up(spec: &MemberSpec) {
    match spec {
        MemberSpec::Router(cfg) => drop(std::hint::black_box(ready_router(cfg))),
        MemberSpec::Fabric(cfg) => drop(std::hint::black_box(ready_fabric(cfg))),
        MemberSpec::Sweep(sweep) => {
            for cfg in sweep.configs() {
                drop(std::hint::black_box(ready_router(&cfg)));
            }
        }
    }
}

/// Run one fixed-work unit of `w`.  `mesh_backlog0` comes from
/// [`mesh_backlogs`].
pub fn run_unit(
    w: WorkloadId,
    seed: u64,
    mesh_backlog0: &[usize],
    control: &mut Control,
) -> UnitOutcome {
    let specs = member_specs(w, seed);
    let ((), setup) = control.bracket(Shape::Serial, || specs.iter().for_each(set_up));
    let mut unit = UnitOutcome {
        setup,
        members: Vec::with_capacity(specs.len()),
        fingerprint: 0,
        unconserved: 0,
    };
    for (k, spec) in specs.iter().enumerate() {
        unit.absorb(match spec {
            MemberSpec::Router(cfg) => router_member(cfg, control),
            MemberSpec::Fabric(cfg) => fabric_member(cfg, mesh_backlog0.get(k).copied(), control),
            MemberSpec::Sweep(sweep) => sweep_member(sweep, control),
        });
    }
    unit
}

/// Unit sizes, for the result file.
pub fn unit_description(w: WorkloadId) -> String {
    match w {
        WorkloadId::Cbr4Sat | WorkloadId::Cbr4Armed => format!(
            "{} seeds x (4x4 paper CBR mix, load 0.8, COA+SIABP, warm-up {} + {} measured cycles)",
            size::CBR4_MEMBERS,
            size::CBR4_WARMUP,
            size::CBR4_CYCLES
        ),
        WorkloadId::Wide64Trunk => format!(
            "{} seeds x (64x64 CbrHigh 248 Mbps, load 0.8, COA, warm-up {} + {} measured cycles)",
            size::WIDE64_MEMBERS,
            size::WIDE64_WARMUP,
            size::WIDE64_CYCLES
        ),
        WorkloadId::Mesh16W1 | WorkloadId::Mesh16W2 => format!(
            "{} seeds x (4x4 mesh, CBR 0.6, run_parallel({}, {}), 16 routers)",
            size::MESH_MEMBERS,
            size::MESH_WARMUP,
            size::MESH_BOUND
        ),
        WorkloadId::Vbr4Sweep => format!(
            "{} seeds x loads {:?} x (sweep over {{COA, WFA}}, MPEG-2 VBR SR, 1 GOP, UntilDrained <= {} cycles)",
            size::SWEEP_SEEDS,
            size::SWEEP_LOADS,
            size::SWEEP_MAX_CYCLES
        ),
    }
}

// ---- probes of the traced pass that need no layer API -------------------

/// One armed/disarmed pair on `cfg`.
pub struct ArmedPair {
    pub plain_s: f64,
    pub armed_s: f64,
    pub iterations_per_matching: f64,
    pub examined_per_matching: f64,
    /// Arming telemetry must not change the simulated result.
    pub same_result: bool,
}

pub fn armed_pair(cfg: &SimConfig, control: &mut Control) -> ArmedPair {
    let plain = drive_router(cfg, control);
    let armed = drive_router(&cfg.with_telemetry(TelemetrySpec::default()), control);
    let kernel = armed.router.telemetry_report().kernel;
    ArmedPair {
        plain_s: plain.run.work_s,
        armed_s: armed.run.work_s,
        iterations_per_matching: kernel.iterations_per_matching(),
        examined_per_matching: kernel.examined_per_matching(),
        same_result: plain.router.summary() == armed.router.summary()
            && plain.router.rng_fingerprint() == armed.router.rng_fingerprint(),
    }
}

/// Fabric layer timings at a reduced bound.
pub struct FabricProbe {
    pub w1_s: f64,
    pub w2_s: f64,
    /// Wall of the same cycles as one-cycle `Fabric::step` epochs.
    pub step_s: f64,
    pub router_cycles: u64,
    /// Epochs `step` ran beyond `run_parallel`'s `link_latency`-cycle ones.
    pub extra_epochs: u64,
    /// Worker count and epoch length must not change the simulated result.
    pub same_result: bool,
}

pub fn fabric_probe(seed: u64, control: &mut Control) -> FabricProbe {
    let cfg = mesh16(seed, 1);
    let spec = cfg.fabric.expect("fabric");
    let bound = total_cycles(&cfg);
    let w1 = fabric_member(&cfg, None, control);
    let w2 = fabric_member(
        &cfg.with_fabric(spec.with_workers(parallel_workers())),
        None,
        control,
    );
    let mut fabric = ready_fabric(&cfg);
    let t0 = Instant::now();
    Runner::new(cfg.warmup_cycles, StopCondition::Cycles(bound)).run(&mut fabric);
    let step_s = t0.elapsed().as_secs_f64();
    let stepped = fingerprint(&fabric.summary(), &fabric.rng_fingerprints());
    FabricProbe {
        w1_s: w1.timing.run.work_s,
        w2_s: w2.timing.run.work_s,
        step_s,
        router_cycles: w1.timing.sim_cycles,
        extra_epochs: bound - bound.div_ceil(spec.link_latency),
        same_result: w1.fingerprint == w2.fingerprint && w1.fingerprint == stepped,
    }
}

/// The sweep's points re-run serially with a span around each public call.
pub struct SweepProbe {
    pub workload_build_s: f64,
    pub build_router_s: f64,
    pub engine_run_s: f64,
    pub executed: u64,
    pub skipped: u64,
    /// `Runner::run` wall on the 0.4-load COA point.
    pub naive_s: f64,
    /// `Runner::run_horizon` wall on the same point.
    pub horizon_s: f64,
    /// Wall of the parallel sweep over the same points.
    pub sweep_wall_s: f64,
    pub workers: usize,
}

pub fn sweep_probe(seed: u64) -> SweepProbe {
    let spec = vbr4_sweep(seed, &size::SWEEP_LOADS);
    let mut p = SweepProbe {
        workload_build_s: 0.0,
        build_router_s: 0.0,
        engine_run_s: 0.0,
        executed: 0,
        skipped: 0,
        naive_s: 0.0,
        horizon_s: 0.0,
        sweep_wall_s: 0.0,
        workers: parallel_workers(),
    };
    for (i, cfg) in spec.configs().iter().enumerate() {
        let runner = Runner::new(
            cfg.warmup_cycles,
            StopCondition::ModelDoneOrCycles(total_cycles(cfg)),
        );
        let t0 = Instant::now();
        let workload = build_workload(cfg);
        let t1 = Instant::now();
        let mut router = build_router(cfg, workload);
        let t2 = Instant::now();
        let out = runner.run_horizon(&mut router);
        let t3 = Instant::now();
        p.workload_build_s += (t1 - t0).as_secs_f64();
        p.build_router_s += (t2 - t1).as_secs_f64();
        p.engine_run_s += (t3 - t2).as_secs_f64();
        p.executed += out.executed;
        p.skipped += out.skipped;
        if i == 0 {
            p.horizon_s = (t3 - t2).as_secs_f64();
            let mut naive = ready_router(cfg);
            let t4 = Instant::now();
            runner.run(&mut naive);
            p.naive_s = t4.elapsed().as_secs_f64();
        }
    }
    let t5 = Instant::now();
    std::hint::black_box(sweep_with_workers(&spec, Some(p.workers)));
    p.sweep_wall_s = t5.elapsed().as_secs_f64();
    p
}
