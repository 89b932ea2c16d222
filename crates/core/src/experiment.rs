//! Build-and-run for one simulation point: one run function and one
//! result type for the single router and the multi-router fabric alike.

use crate::config::{FabricSpec, RunLength, SimConfig, WorkloadSpec};
use mmr_router::fabric::{Fabric, FabricSummary};
use mmr_router::router::{MmrRouter, RouterSummary};
use mmr_router::telemetry::TelemetryReport;
use mmr_sim::engine::{Runner, StopCondition};
use mmr_sim::rng::SimRng;
use mmr_sim::telemetry::recorder::TraceEvent;
use mmr_traffic::workload::{
    AdmissionTally, CbrMixBuilder, MixWorkloadBuilder, VbrMixBuilder, Workload,
};
use serde::{Deserialize, Serialize};

/// Result of one simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// The configuration that produced this result.
    pub config: SimConfig,
    /// Offered/generated load actually achieved by admission (mean over
    /// input links) — the x-axis value of the paper's plots.
    pub achieved_load: f64,
    /// Connections admitted.
    pub connections: usize,
    /// CAC accept/reject counts from workload construction.
    pub admission: AdmissionTally,
    /// Flit cycles executed.
    pub executed_cycles: u64,
    /// True if the workload drained completely (finite workloads only).
    pub drained: bool,
    /// End-to-end results, for a fabric as for the single router
    /// ([`Fabric::end_to_end_summary`]).
    pub summary: RouterSummary,
    /// Telemetry observations (`None` unless the config armed telemetry
    /// on a single router).
    pub telemetry: Option<TelemetryReport>,
    /// The flight recorder's retained events, oldest first (`None`
    /// unless the config armed telemetry on a single router).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace: Option<Vec<TraceEvent>>,
    /// Per-node fabric results, present only when the config's fabric
    /// has more than one node.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fabric: Option<FabricSummary>,
}

impl ExperimentResult {
    /// Prometheus text exposition (format 0.0.4) of this result's
    /// telemetry: counters, stage figures, kernel stats, the QoS
    /// observatory's per-class histograms/SLO counters, and the CAC
    /// admission tally.  Empty when telemetry was not armed.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        self.prometheus_into(&mut out);
        out
    }

    /// As [`Self::prometheus`], appending into a caller-owned buffer.
    /// Performs no heap allocation once `out` has grown to its working
    /// size, so a scrape loop can reuse one buffer.
    pub fn prometheus_into(&self, out: &mut String) {
        let Some(t) = &self.telemetry else { return };
        t.write_prometheus(out, self.config.router.time.router_cycle_secs());
        mmr_sim::telemetry::expose::write_counters(
            out,
            "mmr_admission",
            [
                ("accepted_total", self.admission.accepted),
                ("rejected_total", self.admission.rejected),
            ]
            .into_iter(),
        );
    }
}

/// Construct the workload a config describes.
pub fn build_workload(cfg: &SimConfig) -> Workload {
    build_workload_for_ports(cfg, cfg.router.ports)
}

/// As [`build_workload`], but targeting an explicit port count — fabric
/// experiments pass the topology's flat host-port space.
pub fn build_workload_for_ports(cfg: &SimConfig, ports: usize) -> Workload {
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let mut workload = match &cfg.workload {
        WorkloadSpec::Cbr { target_load } => {
            CbrMixBuilder::new(ports, cfg.router.time, cfg.router.round)
                .target_load(*target_load)
                .build(&mut rng)
        }
        WorkloadSpec::Vbr {
            target_load,
            gops,
            injection,
            enforce_peak,
        } => VbrMixBuilder::new(ports, cfg.router.time, cfg.router.round)
            .target_load(*target_load)
            .gops(*gops)
            .injection(*injection)
            .enforce_peak(*enforce_peak)
            .build(&mut rng),
        WorkloadSpec::Mix {
            target_load,
            groups,
            ramp,
            churn,
        } => {
            let classes = groups
                .iter()
                .map(|g| {
                    (
                        g.class,
                        mmr_sim::units::Bandwidth::bps(g.rate_bps),
                        g.weight,
                    )
                })
                .collect();
            let mut b = MixWorkloadBuilder::new(ports, cfg.router.time, cfg.router.round)
                .target_load(*target_load)
                .classes(classes);
            if let Some(ramp) = ramp {
                b = b.ramp(ramp.steps.clone());
            }
            if let Some(churn) = churn {
                b = b.churn(*churn);
            }
            b.build(&mut rng)
        }
    };
    if let Some(be) = &cfg.best_effort {
        workload.append_best_effort(
            ports,
            be.per_link_load,
            be.mean_flits,
            &cfg.router.time,
            &mut rng,
        );
    }
    workload
}

/// Build the router for a config and workload.
pub fn build_router(cfg: &SimConfig, workload: Workload) -> MmrRouter {
    MmrRouter::new(
        cfg.router,
        workload,
        cfg.arbiter.instantiate(cfg.router.ports),
        cfg.priority.instantiate(),
        cfg.seed,
    )
}

/// The fabric workload a config describes: the usual builders, targeting
/// the topology's flat host-port space.
pub fn build_fabric_workload(cfg: &SimConfig, spec: &FabricSpec) -> Workload {
    let ports = spec
        .topology
        .workload_ports(cfg.router.ports, spec.host_ports);
    build_workload_for_ports(cfg, ports)
}

/// Build the fabric for a config and workload.
pub fn build_fabric(cfg: &SimConfig, spec: &FabricSpec, workload: Workload) -> Fabric {
    Fabric::new(
        *spec,
        cfg.router,
        workload,
        cfg.arbiter,
        cfg.priority,
        cfg.seed,
    )
}

/// Run one experiment to completion.
///
/// A config with a fabric runs on `fabric.workers` worker threads
/// through [`Fabric::run_parallel`], up to its cycle bound (a drained
/// fabric idles out the rest), and its results are bit-identical for
/// every worker count.  Fault injection and telemetry arm the single
/// router only ([`SimConfig::check`] refuses a fabric's).
pub fn run_experiment(cfg: &SimConfig) -> ExperimentResult {
    let workload = match &cfg.fabric {
        Some(spec) => build_fabric_workload(cfg, spec),
        None => build_workload(cfg),
    };
    let achieved_load = workload.mean_load();
    let connections = workload.len();
    let admission = workload.admission;
    let result = |executed_cycles, drained, summary, telemetry, trace, fabric| ExperimentResult {
        config: cfg.clone(),
        achieved_load,
        connections,
        admission,
        executed_cycles,
        drained,
        summary,
        telemetry,
        trace,
        fabric,
    };
    if let Some(spec) = &cfg.fabric {
        let mut fabric = build_fabric(cfg, spec, workload);
        let (RunLength::Cycles(bound) | RunLength::UntilDrained { max_cycles: bound }) = cfg.run;
        let outcome = fabric.run_parallel(cfg.warmup_cycles, bound, spec.workers, false);
        let nodes = (fabric.node_count() > 1).then(|| fabric.summary());
        return result(
            outcome.executed,
            fabric.drained(),
            fabric.end_to_end_summary(),
            None,
            None,
            nodes,
        );
    }
    let mut router = build_router(cfg, workload);
    if let Some(fault) = &cfg.fault {
        // The fault schedule draws from its own stream split off the
        // master seed, so enabling faults never perturbs workload
        // construction or arbitration randomness.
        let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0xFA17).split(71);
        let plan = fault.plan.generate(cfg.router.ports, connections, &mut rng);
        router.set_faults(plan, fault.delay_bound_flit_cycles);
    }
    if let Some(t) = &cfg.telemetry {
        router.set_telemetry(t.to_config());
    }
    let stop = match cfg.run {
        RunLength::Cycles(n) => StopCondition::Cycles(n),
        RunLength::UntilDrained { max_cycles } => StopCondition::ModelDoneOrCycles(max_cycles),
    };
    let outcome = Runner::new(cfg.warmup_cycles, stop).run(&mut router);
    result(
        outcome.executed,
        router.drained(),
        router.summary(),
        cfg.telemetry.map(|_| router.telemetry_report()),
        router.telemetry().recorder().map(|r| r.events().collect()),
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InjectionKind;
    use mmr_arbiter::scheduler::ArbiterKind;
    use mmr_router::fabric::Topology;
    use mmr_traffic::connection::TrafficClass;

    #[test]
    fn cbr_experiment_runs() {
        let cfg = SimConfig {
            workload: WorkloadSpec::cbr(0.4),
            warmup_cycles: 200,
            run: RunLength::Cycles(3_000),
            ..Default::default()
        };
        let r = run_experiment(&cfg);
        assert!(r.connections > 0);
        assert!(
            (r.achieved_load - 0.4).abs() < 0.08,
            "load {}",
            r.achieved_load
        );
        assert_eq!(r.executed_cycles, 3_000);
        assert!(r.summary.delivered_flits > 0);
        assert!(!r.drained, "CBR sources are infinite");
    }

    #[test]
    fn vbr_experiment_drains() {
        let cfg = SimConfig {
            workload: WorkloadSpec::Vbr {
                target_load: 0.3,
                gops: 1,
                injection: InjectionKind::SmoothRate,
                enforce_peak: false,
            },
            warmup_cycles: 0,
            run: RunLength::UntilDrained {
                max_cycles: 2_000_000,
            },
            ..Default::default()
        };
        let r = run_experiment(&cfg);
        assert!(r.drained, "low-load VBR must drain");
        assert!(r.summary.metrics.frames_delivered > 0);
        let vbr = r.summary.metrics.class(TrafficClass::Vbr).unwrap();
        assert_eq!(vbr.delivered, vbr.generated, "all flits delivered");
    }

    #[test]
    fn same_config_same_result() {
        let cfg = SimConfig {
            workload: WorkloadSpec::cbr(0.6),
            warmup_cycles: 100,
            run: RunLength::Cycles(2_000),
            ..Default::default()
        };
        assert_eq!(run_experiment(&cfg), run_experiment(&cfg));
    }

    #[test]
    fn chaos_experiment_fires_faults_without_perturbing_the_workload() {
        use crate::config::FaultSpec;
        let faulty_cfg = SimConfig {
            workload: WorkloadSpec::cbr(0.5),
            warmup_cycles: 0,
            run: RunLength::Cycles(16_000),
            fault: Some(FaultSpec::default()),
            ..Default::default()
        };
        let clean_cfg = SimConfig {
            fault: None,
            ..faulty_cfg.clone()
        };
        let faulty = run_experiment(&faulty_cfg);
        let clean = run_experiment(&clean_cfg);
        assert!(faulty.summary.faults.events_fired > 0);
        assert!(faulty.summary.faults.lost_flits() > 0);
        assert_eq!(
            clean.summary.faults,
            mmr_router::fault::FaultReport::default()
        );
        // Fault randomness is split off: the admitted workload and its
        // achieved load are identical with and without injection.
        assert_eq!(faulty.achieved_load, clean.achieved_load);
        assert_eq!(faulty.connections, clean.connections);
        // Determinism holds for chaos runs too.
        assert_eq!(faulty, run_experiment(&faulty_cfg));
    }

    #[test]
    fn fabric_experiment_runs_and_is_worker_invariant() {
        let cfg = SimConfig {
            workload: WorkloadSpec::cbr(0.4),
            warmup_cycles: 300,
            run: RunLength::Cycles(4_000),
            ..Default::default()
        }
        .with_fabric(FabricSpec::new(Topology::Mesh { x: 3, y: 3 }));
        let one = run_experiment(&cfg);
        assert!(one.connections > 0);
        assert!(one.summary.delivered_flits > 0);
        let nodes = one
            .fabric
            .as_ref()
            .expect("a 9-node fabric reports its nodes");
        assert_eq!(nodes.nodes, 9);
        assert_eq!(nodes.delivered_flits, one.summary.delivered_flits);
        assert_eq!(one.executed_cycles, 4_000);
        let spec = cfg.fabric.unwrap().with_workers(4);
        let four = run_experiment(&cfg.with_fabric(spec));
        // Worker count is a pure performance knob.
        assert_eq!(one.summary, four.summary);
        assert_eq!(one.fabric, four.fabric);
        assert_eq!(one.achieved_load, four.achieved_load);
    }

    #[test]
    fn arbiter_choice_respected() {
        let cfg = SimConfig {
            workload: WorkloadSpec::cbr(0.3),
            run: RunLength::Cycles(500),
            warmup_cycles: 0,
            ..Default::default()
        };
        let coa = run_experiment(&cfg);
        let wfa = run_experiment(&cfg.with_arbiter(ArbiterKind::Wfa));
        assert_eq!(coa.summary.arbiter, "Candidate-Order Arbiter");
        assert_eq!(wfa.summary.arbiter, "Wave Front Arbiter");
        // Same seed -> same workload -> same admitted load either way.
        assert_eq!(coa.achieved_load, wfa.achieved_load);
    }
}
