//! Serializable simulation configuration.

use mmr_arbiter::priority::PriorityKind;
use mmr_arbiter::scheduler::ArbiterKind;
use mmr_router::config::RouterConfig;
use mmr_router::fabric::{FabricConfig, Topology};
use mmr_router::fault::FaultProfile;
use mmr_router::telemetry::TelemetryConfig;
use mmr_sim::fault::FaultPlanConfig;
use serde::{Deserialize, Serialize};

/// Which injection model a VBR workload uses (mirrors
/// [`mmr_traffic::workload::VbrInjection`] but serializable alongside the
/// rest of the config).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectionKind {
    /// Smooth-Rate (Fig. 7b).
    SmoothRate,
    /// Back-to-Back (Fig. 7a).
    BackToBack,
}

impl InjectionKind {
    /// Report label ("SR" / "BB").
    pub fn label(self) -> &'static str {
        match self {
            InjectionKind::SmoothRate => "SR",
            InjectionKind::BackToBack => "BB",
        }
    }
}

/// One connection group of a [`WorkloadSpec::Mix`] workload: a CBR class
/// with an explicit rate and pick weight (the declarative analogue of the
/// paper's fixed three-class mix).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixGroup {
    /// Reporting class the group's connections carry.
    pub class: mmr_traffic::connection::TrafficClass,
    /// Per-connection bandwidth in bits per second.
    pub rate_bps: f64,
    /// Relative pick probability during admission.
    pub weight: f64,
}

/// One breakpoint of a ramp schedule: by `at_cycle`, `fraction` of the
/// admitted connections must be active.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RampStepConfig {
    /// Router cycle of the breakpoint.
    pub at_cycle: u64,
    /// Fraction of admitted connections active from this breakpoint on
    /// (non-decreasing across steps; the last step must reach 1.0).
    pub fraction: f64,
}

/// A ramp schedule: admitted connections activate in admission order so
/// that exactly `round(fraction * total)` are active at each breakpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RampScheduleConfig {
    /// Breakpoints, strictly increasing in `at_cycle`.
    pub steps: Vec<RampStepConfig>,
}

impl RampScheduleConfig {
    /// Number of connections the schedule makes active at `cycle`, out of
    /// `total` admitted — the contract the workload builder implements
    /// and the ramp tests check against.
    pub fn active_at(&self, total: usize, cycle: u64) -> usize {
        let mut active = 0;
        for s in &self.steps {
            if s.at_cycle <= cycle {
                active = (s.fraction * total as f64).round() as usize;
            }
        }
        active.min(total)
    }

    /// Activation cycle of connection `index` (admission order) out of
    /// `total`: the first breakpoint whose fraction covers it.
    pub fn activation_of(&self, total: usize, index: usize) -> u64 {
        for s in &self.steps {
            if index < ((s.fraction * total as f64).round() as usize).min(total) {
                return s.at_cycle;
            }
        }
        self.steps.last().map(|s| s.at_cycle).unwrap_or(0)
    }
}

/// A churn window: a fraction of the base connections depart during the
/// window and a fraction of extra connections arrive, both spread
/// deterministically across `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// First router cycle of the churn window.
    pub start: u64,
    /// One past the last router cycle of the window.
    pub end: u64,
    /// Fraction of the base connections that depart during the window.
    pub departures: f64,
    /// Extra offered load arriving during the window, as a fraction of
    /// the base target load (the arrivals go through the CAC like any
    /// other admission request).
    pub arrivals: f64,
}

/// The traffic side of a simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The paper's CBR mix (64 Kbps / 1.54 Mbps / 55 Mbps, equal pick
    /// probability) at a target offered load.
    Cbr {
        /// Target offered load per input link, fraction of link bandwidth.
        target_load: f64,
    },
    /// MPEG-2 VBR streams at a target generated load.
    Vbr {
        /// Target generated load per input link.
        target_load: f64,
        /// GOPs per connection (paper: 4).
        gops: usize,
        /// Injection model.
        injection: InjectionKind,
        /// Enforce the peak-bandwidth admission test (§2).
        enforce_peak: bool,
    },
    /// A declarative CBR class mix (workload-language packs): arbitrary
    /// `(class, rate, weight)` groups with optional ramp and churn
    /// schedules.
    Mix {
        /// Target offered load per input link.
        target_load: f64,
        /// Connection groups.
        groups: Vec<MixGroup>,
        /// Optional activation ramp.
        ramp: Option<RampScheduleConfig>,
        /// Optional churn window.
        churn: Option<ChurnConfig>,
    },
}

impl WorkloadSpec {
    /// CBR mix at `target_load`.
    pub fn cbr(target_load: f64) -> Self {
        WorkloadSpec::Cbr { target_load }
    }

    /// VBR at `target_load` with the paper's defaults (4 GOPs, SR, no
    /// peak test).
    pub fn vbr(target_load: f64, injection: InjectionKind) -> Self {
        WorkloadSpec::Vbr {
            target_load,
            gops: 4,
            injection,
            enforce_peak: false,
        }
    }

    /// The configured target load.
    pub fn target_load(&self) -> f64 {
        match *self {
            WorkloadSpec::Cbr { target_load }
            | WorkloadSpec::Vbr { target_load, .. }
            | WorkloadSpec::Mix { target_load, .. } => target_load,
        }
    }

    /// With a different target load (for sweeps).
    pub fn with_load(&self, load: f64) -> Self {
        let mut s = self.clone();
        match &mut s {
            WorkloadSpec::Cbr { target_load }
            | WorkloadSpec::Vbr { target_load, .. }
            | WorkloadSpec::Mix { target_load, .. } => *target_load = load,
        }
        s
    }
}

/// How long to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunLength {
    /// Exactly this many flit cycles (CBR experiments).
    Cycles(u64),
    /// Until every finite source is exhausted and all buffers drain, with
    /// a safety bound (VBR experiments: "four complete GOPs from every
    /// connection have been forwarded").
    UntilDrained {
        /// Hard upper bound in flit cycles.
        max_cycles: u64,
    },
}

/// Unreserved best-effort background traffic added on top of the
/// reserved workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BestEffortSpec {
    /// Offered best-effort load per input link (fraction of link
    /// bandwidth, on top of the reserved load).
    pub per_link_load: f64,
    /// Mean message length in flits.
    pub mean_flits: f64,
}

impl Default for BestEffortSpec {
    fn default() -> Self {
        BestEffortSpec {
            per_link_load: 0.1,
            mean_flits: 8.0,
        }
    }
}

/// Fault injection for a simulation: the randomized schedule to generate
/// and the router's detection/recovery policy.
///
/// The concrete [`mmr_sim::fault::FaultPlan`] is derived at build time
/// from the plan config, the router geometry, and a stream split off the
/// master seed — so a `(SimConfig, seed)` pair fully determines the chaos
/// run and it replays bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Randomized fault-schedule parameters.
    pub plan: FaultPlanConfig,
    /// Detection/recovery policy.
    pub profile: FaultProfile,
}

impl FaultSpec {
    /// A copy with every fault rate multiplied by `factor` (the x-axis of
    /// fault-rate sweeps).
    pub fn scaled(&self, factor: f64) -> Self {
        FaultSpec {
            plan: self.plan.scaled(factor),
            profile: self.profile,
        }
    }
}

/// Telemetry for a simulation: arming parameters for the router's
/// counter registry, stage profiler, flight recorder, and snapshot
/// windows.  Mirrors [`TelemetryConfig`] so it serializes alongside the
/// rest of the config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetrySpec {
    /// Flit cycles per snapshot window (0 disables windowing).
    pub snapshot_interval: u64,
    /// Flight-recorder capacity in events (0 disables tracing).
    pub trace_capacity: usize,
    /// Maximum retained snapshot windows.
    pub max_snapshots: usize,
    /// Measure stage wall time with a real clock (sacrifices report
    /// determinism for the wall-time fields only).
    pub wall_clock: bool,
    /// Arm the QoS observatory (per-class/per-connection delay, jitter
    /// and residency histograms plus SLO tracking).
    pub observatory: bool,
    /// Delay bound in router cycles for SLO violation counting
    /// (0 disables the bound; best-effort traffic is always exempt).
    pub slo_delay_bound_rc: u64,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        let d = TelemetryConfig::default();
        TelemetrySpec {
            snapshot_interval: d.snapshot_interval,
            trace_capacity: d.trace_capacity,
            max_snapshots: d.max_snapshots,
            wall_clock: d.wall_clock,
            observatory: d.observatory,
            slo_delay_bound_rc: d.slo_delay_bound_rc,
        }
    }
}

impl TelemetrySpec {
    /// The router-side arming config this spec describes.
    pub fn to_config(self) -> TelemetryConfig {
        TelemetryConfig {
            snapshot_interval: self.snapshot_interval,
            trace_capacity: self.trace_capacity,
            max_snapshots: self.max_snapshots,
            wall_clock: self.wall_clock,
            observatory: self.observatory,
            slo_delay_bound_rc: self.slo_delay_bound_rc,
        }
    }
}

/// Multi-router fabric geometry (the paper-§6 extension at scale).
///
/// When present on a [`SimConfig`], fabric experiments instantiate this
/// topology of MMRs instead of the single router; the workload builders
/// target the fabric's flat host-port space
/// ([`Topology::workload_ports`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricSpec {
    /// Topology to instantiate.
    pub topology: Topology,
    /// Inter-node link latency in flit cycles (also the epoch length of
    /// the sharded executor).
    pub link_latency: u64,
    /// Host (injection/ejection) links per router (ring/mesh/torus).
    pub host_ports: usize,
    /// Chunks the fabric is split into for parallel execution, run on
    /// at most as many threads as the host has CPUs
    /// (`Fabric::thread_count`).  Results are bit-identical for every
    /// value, so this is a performance knob, not a semantic one.
    pub workers: usize,
}

impl FabricSpec {
    /// A spec for `topology` with the fabric defaults (single-cycle line
    /// links, 4-cycle links otherwise, one host port, one worker).
    pub fn new(topology: Topology) -> Self {
        let d = FabricConfig::new(RouterConfig::default(), topology);
        FabricSpec {
            topology,
            link_latency: d.link_latency,
            host_ports: d.host_ports,
            workers: 1,
        }
    }

    /// A copy with a different worker count.
    pub fn with_workers(self, workers: usize) -> Self {
        FabricSpec { workers, ..self }
    }

    /// The router-side fabric config this spec describes.
    pub fn to_config(self, router: RouterConfig) -> FabricConfig {
        FabricConfig {
            router,
            topology: self.topology,
            link_latency: self.link_latency,
            host_ports: self.host_ports,
        }
    }
}

/// Which engine loop drives the simulation.
///
/// Both produce bit-identical results (`ExperimentResult`, RNG stream
/// position, armed telemetry reports) — the horizon loop just covers
/// quiescent stretches in O(1) instead of stepping them.  See DESIGN.md
/// §12 for the contract; cycle-by-cycle exists as the reference loop and
/// as a differential-testing oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineMode {
    /// Event-horizon loop: fast-forward across quiescent cycles (the
    /// default).
    EventHorizon,
    /// Naive reference loop: execute every flit cycle.
    CycleByCycle,
}

/// A complete, reproducible description of one simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Router geometry/timing.
    pub router: RouterConfig,
    /// Traffic.
    pub workload: WorkloadSpec,
    /// Optional best-effort background traffic.
    pub best_effort: Option<BestEffortSpec>,
    /// Switch scheduler under test.
    pub arbiter: ArbiterKind,
    /// Link-priority function.
    pub priority: PriorityKind,
    /// Master seed (workload construction and arbitration tie-breaks).
    pub seed: u64,
    /// Warm-up flit cycles excluded from statistics.
    pub warmup_cycles: u64,
    /// Run length.
    pub run: RunLength,
    /// Optional fault injection (chaos experiments).
    pub fault: Option<FaultSpec>,
    /// Optional telemetry arming (observability; `None` keeps the router
    /// fully disarmed).  Missing in older serialized configs — tolerated
    /// as `None`.
    pub telemetry: Option<TelemetrySpec>,
    /// Engine loop override.  `None` (also what older serialized configs
    /// deserialize to) means [`EngineMode::EventHorizon`]; set
    /// `Some(EngineMode::CycleByCycle)` to force the naive reference
    /// loop.
    pub engine: Option<EngineMode>,
    /// Optional multi-router fabric geometry.  `None` (also what older
    /// serialized configs deserialize to) keeps the single-router model;
    /// `Some` routes fabric experiments through
    /// [`mmr_router::fabric::Fabric`].
    pub fabric: Option<FabricSpec>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            router: RouterConfig::default(),
            workload: WorkloadSpec::cbr(0.5),
            best_effort: None,
            arbiter: ArbiterKind::Coa,
            priority: PriorityKind::Siabp,
            seed: 0xB1ACA,
            warmup_cycles: 2_000,
            run: RunLength::Cycles(50_000),
            fault: None,
            telemetry: None,
            engine: None,
            fabric: None,
        }
    }
}

impl SimConfig {
    /// A copy with a different load.
    pub fn with_load(&self, load: f64) -> Self {
        SimConfig {
            workload: self.workload.with_load(load),
            ..self.clone()
        }
    }

    /// A copy with a different arbiter.
    pub fn with_arbiter(&self, arbiter: ArbiterKind) -> Self {
        SimConfig {
            arbiter,
            ..self.clone()
        }
    }

    /// A copy with a different seed.
    pub fn with_seed(&self, seed: u64) -> Self {
        SimConfig {
            seed,
            ..self.clone()
        }
    }

    /// A copy with fault injection enabled (or reconfigured).
    pub fn with_fault(&self, fault: FaultSpec) -> Self {
        SimConfig {
            fault: Some(fault),
            ..self.clone()
        }
    }

    /// A copy with telemetry armed (or re-armed).
    pub fn with_telemetry(&self, telemetry: TelemetrySpec) -> Self {
        SimConfig {
            telemetry: Some(telemetry),
            ..self.clone()
        }
    }

    /// A copy forcing a particular engine loop.
    pub fn with_engine(&self, engine: EngineMode) -> Self {
        SimConfig {
            engine: Some(engine),
            ..self.clone()
        }
    }

    /// A copy with a multi-router fabric geometry.
    pub fn with_fabric(&self, fabric: FabricSpec) -> Self {
        SimConfig {
            fabric: Some(fabric),
            ..self.clone()
        }
    }

    /// The effective engine mode (`None` defaults to the horizon loop).
    pub fn engine_mode(&self) -> EngineMode {
        self.engine.unwrap_or(EngineMode::EventHorizon)
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
    fn with_load_changes_only_load() {
        let base = SimConfig::default();
        let hot = base.with_load(0.9);
        assert_eq!(hot.workload.target_load(), 0.9);
        assert_eq!(hot.arbiter, base.arbiter);
        assert_eq!(hot.seed, base.seed);
    }

    #[test]
    fn vbr_spec_load_update() {
        let v = WorkloadSpec::vbr(0.5, InjectionKind::BackToBack);
        let v2 = v.with_load(0.8);
        assert_eq!(v2.target_load(), 0.8);
        match v2 {
            WorkloadSpec::Vbr {
                gops,
                injection,
                enforce_peak,
                ..
            } => {
                assert_eq!(gops, 4);
                assert_eq!(injection, InjectionKind::BackToBack);
                assert!(!enforce_peak);
            }
            _ => panic!("kind changed"),
        }
    }

    #[test]
    fn config_roundtrips_through_json() {
        let cfg = SimConfig::default().with_arbiter(ArbiterKind::Islip { iterations: 3 });
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn fault_spec_roundtrips_and_scales() {
        let cfg = SimConfig::default().with_fault(FaultSpec::default());
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        let fs = FaultSpec::default().scaled(3.0);
        assert_eq!(
            fs.plan.corrupt_per_kcycle,
            FaultPlanConfig::default().corrupt_per_kcycle * 3.0
        );
        assert_eq!(fs.profile, FaultProfile::default());
    }

    #[test]
    fn engine_mode_defaults_to_horizon_and_roundtrips() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.engine, None);
        assert_eq!(cfg.engine_mode(), EngineMode::EventHorizon);
        let forced = cfg.with_engine(EngineMode::CycleByCycle);
        assert_eq!(forced.engine_mode(), EngineMode::CycleByCycle);
        let json = serde_json::to_string(&forced).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, forced);
    }

    #[test]
    fn legacy_configs_without_engine_field_deserialize() {
        // Serialized configs from before the engine and fabric fields
        // existed must still load, defaulting to the horizon loop and
        // the single-router model.
        let json = serde_json::to_string(&SimConfig::default()).unwrap();
        let legacy = json
            .replace(",\"engine\":null", "")
            .replace(",\"fabric\":null", "");
        assert_ne!(legacy, json, "fixture must actually drop the fields");
        let back: SimConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.engine, None);
        assert_eq!(back.engine_mode(), EngineMode::EventHorizon);
        assert_eq!(back.fabric, None);
    }

    #[test]
    fn fabric_spec_roundtrips() {
        let spec = FabricSpec::new(Topology::Mesh { x: 4, y: 4 }).with_workers(8);
        assert_eq!(spec.link_latency, 4);
        assert_eq!(spec.host_ports, 1);
        let cfg = SimConfig::default().with_fabric(spec);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        let fc = spec.to_config(cfg.router);
        assert_eq!(fc.topology.node_count(), 16);
        // Line specs keep the historical single-cycle hop latency.
        assert_eq!(
            FabricSpec::new(Topology::Line { stages: 3 }).link_latency,
            1
        );
    }

    #[test]
    fn injection_labels() {
        assert_eq!(InjectionKind::SmoothRate.label(), "SR");
        assert_eq!(InjectionKind::BackToBack.label(), "BB");
    }
}
