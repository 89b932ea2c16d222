//! Serializable simulation configuration.

use mmr_arbiter::priority::PriorityKind;
use mmr_arbiter::scheduler::ArbiterKind;
use mmr_router::config::RouterConfig;
use mmr_router::fabric::{FabricConfig, Topology};
use mmr_router::fault::FaultProfile;
use mmr_router::telemetry::MAX_TRACE_CAPACITY;
pub use mmr_sim::check::ConfigError;
use mmr_sim::check::{within_span, MAX_SPAN};
use mmr_sim::ensure;
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
    /// Check the steps rise in cycle (to [`MAX_SPAN`]) and, within
    /// `(0, 1]`, in fraction, up to a last step of 1.0.
    pub fn check(&self) -> Result<(), ConfigError> {
        let last = self.steps.last().map_or(0.0, |s| s.fraction);
        let mut prev: Option<RampStepConfig> = None;
        for (i, s) in self.steps.iter().enumerate() {
            let field = |name: &str| format!("steps[{i}].{name}");
            let (at, fraction) = (s.at_cycle, s.fraction);
            if let Some(p) = prev {
                ensure!(at > p.at_cycle; &field("at_cycle"),
                    "ramp steps overlap: cycle {at} does not follow {}", p.at_cycle);
            }
            within_span(at, &field("at_cycle"))?;
            ensure!(fraction > 0.0 && fraction <= 1.0; &field("fraction"),
                "ramp fraction {fraction} outside (0, 1]");
            ensure!(prev.is_none_or(|p| fraction >= p.fraction); &field("fraction"),
                "ramp fraction decreases at step {i}");
            prev = Some(*s);
        }
        ensure!((last - 1.0).abs() <= 1e-6; "steps",
            "the last ramp step must reach 1.0, got {last}");
        Ok(())
    }

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

impl ChurnConfig {
    /// Check the window is non-empty and both fractions lie in `[0, 1]`.
    pub fn check(&self) -> Result<(), ConfigError> {
        let (start, end) = (self.start, self.end);
        ensure!(end > start; "end", "churn window {start}..{end} is empty");
        within_span(end, "end")?;
        for (x, field) in [(self.departures, "departures"), (self.arrivals, "arrivals")] {
            ensure!((0.0..=1.0).contains(&x); field,
                "churn {field} {x} must be a fraction in [0, 1]");
        }
        Ok(())
    }
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

    /// Check the workload builders' preconditions on a `link_bps` link:
    /// every source sends within [`MAX_SPAN`] and no faster than the link.
    pub fn check(&self, link_bps: f64) -> Result<(), ConfigError> {
        let load = self.target_load();
        ensure!((0.0..=1.0).contains(&load); "target_load",
            "load {load} must be a fraction in [0, 1]");
        match self {
            WorkloadSpec::Cbr { .. } => Ok(()),
            WorkloadSpec::Vbr { gops, .. } => {
                ensure!(*gops > 0; "gops", "VBR workload needs at least one GOP");
                let budget = vbr_cycle_budget(1).saturating_mul(*gops as u64);
                within_span(budget, "gops")
            }
            WorkloadSpec::Mix {
                groups,
                ramp,
                churn,
                ..
            } => {
                ensure!(!groups.is_empty(); "groups", "mix workload needs at least one group");
                for (i, g) in groups.iter().enumerate() {
                    let field = |name: &str| format!("groups[{i}].{name}");
                    let (rate, weight) = (g.rate_bps, g.weight);
                    // At least one flit per longest span, at most the link.
                    let slowest = link_bps / MAX_SPAN as f64;
                    ensure!(rate >= slowest && rate <= link_bps; &field("rate_bps"),
                        "{rate} bps must lie within {slowest:.3}..={link_bps} bps");
                    ensure!(weight > 0.0 && weight.is_finite(); &field("weight"),
                        "weight {weight} must be positive and finite");
                }
                if let Some(r) = ramp {
                    r.check().map_err(|e| e.within("ramp"))?;
                }
                match churn {
                    Some(c) => c.check().map_err(|e| e.within("churn")),
                    None => Ok(()),
                }
            }
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

impl BestEffortSpec {
    /// Check, over `ports` links, a load fraction and a mean of at least
    /// one flit that each link pair sends within [`MAX_SPAN`].
    pub fn check(&self, ports: usize) -> Result<(), ConfigError> {
        let (load, mean) = (self.per_link_load, self.mean_flits);
        ensure!((0.0..=1.0).contains(&load); "per_link_load",
            "best-effort load {load} must be a fraction in [0, 1]");
        ensure!(mean >= 1.0; "mean_flits",
            "best-effort messages need a mean of at least one flit, not {mean}");
        let gap = mean * ports as f64 / load;
        ensure!(load == 0.0 || gap <= MAX_SPAN as f64; "mean_flits",
            "{mean}-flit messages at load {load} are {gap:.0} cycles apart on a pair");
        Ok(())
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
/// windows — the router's own config, serialized with the rest.
pub use mmr_router::telemetry::TelemetryConfig as TelemetrySpec;

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

    /// A copy with a multi-router fabric geometry.
    pub fn with_fabric(&self, fabric: FabricSpec) -> Self {
        SimConfig {
            fabric: Some(fabric),
            ..self.clone()
        }
    }

    /// The one validator (workload packs call it on every point): check
    /// everything a run would panic on or silently ignore — router,
    /// fabric, arbiter, a measured window, workload, best effort, faults
    /// and telemetry — naming the first bad field by its path.
    pub fn check(&self) -> Result<(), ConfigError> {
        self.router.check().map_err(|e| e.within("router"))?;
        if let Some(fabric) = self.fabric {
            ensure!(fabric.workers > 0; "fabric.workers", "a fabric needs at least one worker");
            let geometry = fabric.to_config(self.router).check();
            geometry.map_err(|e| e.within("fabric"))?;
            // Faults and telemetry arm the single router only.
            ensure!(self.fault.is_none(); "fault", "a fabric runs no fault plan");
            ensure!(self.telemetry.is_none(); "telemetry",
                "telemetry arms the single router only, not a fabric");
        }
        check_arbiter(self.arbiter).map_err(|e| e.within("arbiter"))?;
        // The workload first: a VBR run's length derives from its GOP
        // count, so a bad `gops` would otherwise surface as a bad run.
        self.workload
            .check(self.router.time.link_bits_per_sec)
            .map_err(|e| e.within("workload"))?;
        let (RunLength::Cycles(last) | RunLength::UntilDrained { max_cycles: last }) = self.run;
        let warmup = self.warmup_cycles;
        ensure!(last > warmup; "run",
            "a {last}-cycle run ends inside its {warmup}-cycle warm-up (warmup_cycles): nothing is measured");
        within_span(last, "run")?;
        if let Some(be) = &self.best_effort {
            let ports = self.fabric.map_or(self.router.ports, |f| {
                f.topology.workload_ports(self.router.ports, f.host_ports)
            });
            be.check(ports).map_err(|e| e.within("best_effort"))?;
        }
        if let Some(fault) = &self.fault {
            let plan = &fault.plan;
            plan.check().map_err(|e| e.within("fault.plan"))?;
            let end = plan.window_start + plan.window_len;
            ensure!(end <= last; "fault.plan.window_len",
                "the window ends at cycle {end}, past the run's last cycle {last}");
            let p = &fault.profile;
            within_span(p.watchdog_period, "fault.profile.watchdog_period")?;
            within_span(p.rate_window, "fault.profile.rate_window")?;
            let bound = p.delay_bound_flit_cycles.unwrap_or(0);
            within_span(bound, "fault.profile.delay_bound_flit_cycles")?;
            let t = p.rogue_threshold;
            ensure!(t > 0.0 && t.is_finite(); "fault.profile.rogue_threshold",
                "rogue threshold {t} must be finite and positive");
        }
        if let Some(t) = &self.telemetry {
            let n = t.trace_capacity;
            ensure!(n <= MAX_TRACE_CAPACITY; "telemetry.trace_capacity",
                "{n} events exceed the flight recorder's {MAX_TRACE_CAPACITY}");
        }
        Ok(())
    }
}

/// An arbiter's parameters: iSLIP and PIM passes, a frame's cycles and
/// a crosspoint buffer's slots number at least one.
fn check_arbiter(arbiter: ArbiterKind) -> Result<(), ConfigError> {
    let (n, field) = match arbiter {
        ArbiterKind::Islip { iterations } | ArbiterKind::Pim { iterations } => {
            (iterations, "iterations")
        }
        ArbiterKind::FrameFair { frame } => (frame as usize, "frame"),
        ArbiterKind::CrosspointQueued { cap } => (cap as usize, "cap"),
        _ => return Ok(()),
    };
    ensure!(n > 0; field, "must be at least 1, not 0");
    Ok(())
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
    fn legacy_configs_without_engine_field_deserialize() {
        // Serialized configs from before the fabric field existed must
        // still load as the single-router model, and so must configs
        // that still carry the retired `engine` field (`--json` output of
        // older builds fed back through `--config`).
        let json = serde_json::to_string(&SimConfig::default()).unwrap();
        assert!(!json.contains("\"engine\""), "the field is retired");
        let legacy = json.replace(",\"fabric\":null", "");
        assert_ne!(legacy, json, "fixture must actually drop the field");
        let back: SimConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, SimConfig::default());
        let with_engine = json.replace(
            ",\"fabric\":null",
            ",\"engine\":\"CycleByCycle\",\"fabric\":null",
        );
        assert_ne!(with_engine, json, "fixture must actually add the field");
        let back: SimConfig = serde_json::from_str(&with_engine).unwrap();
        assert_eq!(back, SimConfig::default());
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

    #[test]
    fn check_names_each_bad_workload_field() {
        use mmr_traffic::connection::TrafficClass;
        let group = |rate_bps, weight| MixGroup {
            class: TrafficClass::CbrMedium,
            rate_bps,
            weight,
        };
        let churn = |start, end, departures, arrivals| ChurnConfig {
            start,
            end,
            departures,
            arrivals,
        };
        let ramp = |steps: &[(u64, f64)]| RampScheduleConfig {
            steps: steps
                .iter()
                .map(|&(at_cycle, fraction)| RampStepConfig { at_cycle, fraction })
                .collect(),
        };
        let mix = |groups, ramp, churn| WorkloadSpec::Mix {
            target_load: 0.5,
            groups,
            ramp,
            churn,
        };
        let good = || vec![group(1.54e6, 1.0)];
        let vbr = WorkloadSpec::Vbr {
            target_load: 0.5,
            gops: 0,
            injection: InjectionKind::SmoothRate,
            enforce_peak: false,
        };
        let d = SimConfig::default();
        assert_eq!(d.check(), Ok(()));
        assert_eq!(d.with_load(1.0).check(), Ok(()));
        let be = |per_link_load, mean_flits| SimConfig {
            best_effort: Some(BestEffortSpec {
                per_link_load,
                mean_flits,
            }),
            ..d.clone()
        };
        assert_eq!(
            be(1.0, 8.0).check(),
            Ok(()),
            "best-effort load is in [0, 1]"
        );
        let with = |workload| SimConfig {
            workload,
            ..d.clone()
        };
        let run = |warmup_cycles, run| SimConfig {
            warmup_cycles,
            run,
            ..d.clone()
        };
        let mut flit_bits = d.clone();
        flit_bits.router.time.flit_bits = 1_000;
        let mut rate = d.clone();
        rate.router.time.link_bits_per_sec = f64::INFINITY;
        let mesh = d.with_fabric(FabricSpec::new(Topology::Mesh { x: 2, y: 2 }));
        let window = |window_start, window_len| FaultSpec {
            plan: FaultPlanConfig {
                window_start,
                window_len,
                ..FaultPlanConfig::default()
            },
            profile: FaultProfile::default(),
        };
        for (cfg, field, expected) in [
            (d.with_load(1.5), "workload.target_load", "load 1.5"),
            (d.with_load(-0.2), "workload.target_load", "load -0.2"),
            (d.with_load(f64::NAN), "workload.target_load", "load NaN"),
            (with(vbr), "workload.gops", "GOP"),
            (
                with(mix(vec![], None, None)),
                "workload.groups",
                "at least one group",
            ),
            (
                with(mix(vec![group(0.0, 1.0)], None, None)),
                "workload.groups[0].rate_bps",
                "0 bps must lie within",
            ),
            (
                with(mix(vec![group(2e9, 1.0)], None, None)),
                "workload.groups[0].rate_bps",
                "..=1240000000 bps",
            ),
            (
                with(mix(vec![group(1.54e6, -1.0)], None, None)),
                "workload.groups[0].weight",
                "weight -1",
            ),
            (
                with(mix(good(), Some(ramp(&[])), None)),
                "workload.ramp.steps",
                "reach 1.0",
            ),
            (
                with(mix(good(), Some(ramp(&[(0, 2.0), (9, 1.0)])), None)),
                "workload.ramp.steps[0].fraction",
                "fraction 2 outside",
            ),
            (
                with(mix(good(), Some(ramp(&[(9, 0.5), (3, 1.0)])), None)),
                "workload.ramp.steps[1].at_cycle",
                "overlap",
            ),
            (
                with(mix(good(), Some(ramp(&[(0, 0.8), (9, 0.5)])), None)),
                "workload.ramp.steps[1].fraction",
                "decreases",
            ),
            (
                with(mix(good(), None, Some(churn(9, 9, 0.1, 0.1)))),
                "workload.churn.end",
                "churn window 9..9",
            ),
            (
                with(mix(good(), None, Some(churn(0, 9, 1.5, 0.1)))),
                "workload.churn.departures",
                "departures 1.5",
            ),
            (
                with(mix(good(), None, Some(churn(0, 9, 0.1, -1.0)))),
                "workload.churn.arrivals",
                "arrivals -1",
            ),
            (
                with(mix(good(), None, Some(churn(0, 9, 0.1, 1.5)))),
                "workload.churn.arrivals",
                "arrivals 1.5",
            ),
            (
                be(1.2, 8.0),
                "best_effort.per_link_load",
                "best-effort load 1.2",
            ),
            (be(0.1, 0.5), "best_effort.mean_flits", "at least one flit"),
            (
                d.with_arbiter(ArbiterKind::Islip { iterations: 0 }),
                "arbiter.iterations",
                "at least 1",
            ),
            (
                d.with_arbiter(ArbiterKind::Pim { iterations: 0 }),
                "arbiter.iterations",
                "at least 1",
            ),
            (
                d.with_arbiter(ArbiterKind::FrameFair { frame: 0 }),
                "arbiter.frame",
                "at least 1",
            ),
            (
                d.with_arbiter(ArbiterKind::CrosspointQueued { cap: 0 }),
                "arbiter.cap",
                "at least 1",
            ),
            (run(5_000, RunLength::Cycles(100)), "run", "warm-up"),
            (run(2_000, RunLength::Cycles(0)), "run", "warm-up"),
            (
                run(7, RunLength::UntilDrained { max_cycles: 7 }),
                "run",
                "warm-up",
            ),
            (flit_bits, "router.time.flit_bits", "multiple"),
            (rate, "router.time.link_bits_per_sec", "at most"),
            (
                mesh.with_fabric(FabricSpec::new(Topology::Mesh { x: 2, y: 2 }).with_workers(0)),
                "fabric.workers",
                "worker",
            ),
            (mesh.with_fault(FaultSpec::default()), "fault", "fabric"),
            (
                mesh.with_telemetry(TelemetrySpec::default()),
                "telemetry",
                "single router",
            ),
            (
                d.with_fault(window(49_000, 1_001)),
                "fault.plan.window_len",
                "last cycle 50000",
            ),
            (
                d.with_fault(window(5_000, 0)),
                "fault.plan.window_len",
                "positive",
            ),
        ] {
            let err = cfg.check().expect_err(expected);
            assert_eq!(err.field, field, "{err}");
            assert!(err.reason.contains(expected), "{expected}: {err}");
        }
        assert_eq!(d.with_fault(window(49_000, 1_000)).check(), Ok(()));
    }
}
