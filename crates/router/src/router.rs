//! The top-level single-router model (paper Fig. 4).
//!
//! [`MmrRouter`] is the one-node [`Fabric`]: a single-stage line, which
//! has no links and steps on one chunk with no thread and no lock.  The
//! node adapter ([`crate::fabric`]) runs the shared [`SwitchCore`]
//! stages ([`crate::pipeline`] has the stage list and the intra-cycle
//! timing) with the fault hooks and telemetry brackets around them, and
//! the fabric's ledger keeps the end-to-end accounts.  This module adds
//! only the single-router surface: arming telemetry and faults on the
//! one node, and reading its results.
//!
//! [`SwitchCore`]: crate::pipeline::SwitchCore

use crate::config::RouterConfig;
use crate::fabric::{Fabric, FabricNode, FabricSpec, Topology};
use crate::fault::{FaultReport, FaultState, RATE_WINDOW};
use crate::metrics::MetricsReport;
use crate::telemetry::{RouterTelemetry, TelemetryConfig, TelemetryReport};
use mmr_arbiter::priority::LinkPriority;
use mmr_arbiter::scheduler::SwitchScheduler;
use mmr_sim::engine::CycleModel;
use mmr_sim::time::FlitCycle;
use mmr_traffic::connection::ConnectionSpec;
use mmr_traffic::workload::Workload;
use serde::{Deserialize, Serialize};

/// The Multimedia Router with its NICs and traffic sources.
pub struct MmrRouter {
    fabric: Fabric,
}

impl MmrRouter {
    /// Build a router running `workload` under the given switch scheduler
    /// and link-priority function.  `seed` drives only arbitration
    /// tie-breaks (workload randomness is fixed at build time).
    pub fn new(
        cfg: RouterConfig,
        workload: Workload,
        arbiter: Box<dyn SwitchScheduler>,
        priority_fn: Box<dyn LinkPriority>,
        seed: u64,
    ) -> Self {
        let mut switch = Some((arbiter, priority_fn));
        let line = FabricSpec::new(Topology::Line { stages: 1 });
        let fabric = Fabric::build(line, cfg, workload, seed, || {
            switch.take().expect("a one-node fabric builds one switch")
        });
        MmrRouter { fabric }
    }

    fn node(&self) -> &FabricNode {
        &self.fabric.nodes[0]
    }

    fn node_mut(&mut self) -> &mut FabricNode {
        &mut self.fabric.nodes[0]
    }

    /// Arm telemetry per `cfg`.  All buffers are sized here; the
    /// per-cycle path stays allocation-free.  Reports stay
    /// bit-deterministic unless `cfg.wall_clock` opts into real stage
    /// timing.  Arm before the first step: the report's kernel work
    /// counts from the arbiter's construction.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        let classes: Vec<_> = self.connections().iter().map(|s| s.class).collect();
        self.node_mut().telemetry = RouterTelemetry::armed(cfg, &classes);
    }

    /// Telemetry state (unarmed by default).
    pub fn telemetry(&self) -> &RouterTelemetry {
        &self.node().telemetry
    }

    /// Snapshot everything telemetry observed, including the arbitration
    /// kernel's work counters.
    pub fn telemetry_report(&self) -> TelemetryReport {
        let node = self.node();
        node.telemetry.report(node.core.arbiter.kernel_stats())
    }

    /// Fingerprint of the arbiter RNG's stream position: equal
    /// fingerprints mean the two routers consumed identical draw
    /// sequences.  Used by determinism tests to prove telemetry never
    /// touches the RNG.
    pub fn rng_fingerprint(&self) -> u64 {
        self.node().core.rng_fingerprint()
    }

    /// Install a fault plan (chaos experiments).
    ///
    /// The delay bound (flit cycles), when given, is handed to the
    /// metrics collector so QoS violations are counted per connection.
    /// Only a
    /// non-empty plan arms the fault machinery: an empty one (a chaos
    /// pack scaled by 0.0) leaves the router with no fault state, so no
    /// watchdog runs and no connection is policed.  Per-connection
    /// contract rates for the rogue-source policing are derived from the
    /// admitted QoS parameters.
    pub fn set_faults(
        &mut self,
        plan: mmr_sim::fault::FaultPlan,
        delay_bound_flit_cycles: Option<u64>,
    ) {
        let rc_per_flit = self.config().router_cycles_per_flit();
        let window_rc = (RATE_WINDOW * rc_per_flit) as f64;
        let ports = self.config().ports;
        self.fabric
            .ledger
            .metrics
            .set_delay_bound(delay_bound_flit_cycles.map(|b| b * rc_per_flit));
        let node = self.node_mut();
        if plan.is_empty() {
            node.faults = None;
            return;
        }
        let qos = &node.core.qos;
        let contract = qos
            .iter()
            .map(|q| match q.iat_rc > 0.0 {
                true => window_rc / q.iat_rc,
                false => 0.0,
            })
            .collect();
        let guaranteed = qos.iter().map(|q| q.reserved_slots > 0).collect();
        let faults = FaultState::new(ports, plan, contract, guaranteed);
        node.faults = Some(Box::new(faults));
    }

    /// Fault-subsystem counters (all zero when no plan is installed).
    pub fn fault_report(&self) -> FaultReport {
        self.node().fault_report()
    }

    /// Per-connection quarantine flags (empty when no plan is
    /// installed).
    pub fn quarantined(&self) -> &[bool] {
        self.node().faults.as_ref().map_or(&[], |f| f.quarantined())
    }

    /// True if every connection's NIC credit counters agree with its VC
    /// occupancy (call between cycles; the watchdog restores this after
    /// credit-path faults).
    pub fn credits_consistent(&self) -> bool {
        let core = &self.node().core;
        (0..self.connections().len()).all(|c| core.credits.consistent(c, core.mem.len(c)))
    }

    /// Delay-bound violations per connection in the current measurement
    /// window (all zero unless `set_faults` set a bound).
    pub fn violations_per_connection(&self) -> &[u64] {
        self.fabric.ledger.metrics.violations_per_connection()
    }

    /// Flits delivered per connection in the current measurement window.
    pub fn delivered_per_connection(&self) -> &[u64] {
        self.fabric.ledger.metrics.delivered_per_connection()
    }

    /// Router configuration.
    pub fn config(&self) -> &RouterConfig {
        self.fabric.router_config()
    }

    /// Connection specs (index = connection id).
    pub fn connections(&self) -> &[ConnectionSpec] {
        &self.fabric.ledger.specs
    }

    /// Aggregate run summary.
    pub fn summary(&self) -> RouterSummary {
        self.fabric.end_to_end_summary()
    }

    /// Flits currently buffered anywhere (NICs + VC memory).
    pub fn backlog(&self) -> usize {
        self.fabric.backlog()
    }

    /// True when all finite sources are exhausted and every buffer is
    /// empty.
    pub fn drained(&self) -> bool {
        self.fabric.drained()
    }
}

impl CycleModel for MmrRouter {
    fn step(&mut self, now: FlitCycle, measuring: bool) {
        self.fabric.step(now, measuring);
    }

    fn on_measurement_start(&mut self, now: FlitCycle) {
        self.fabric.on_measurement_start(now);
    }

    fn is_done(&self, now: FlitCycle) -> bool {
        self.fabric.is_done(now)
    }
}

/// Aggregate results of one router run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterSummary {
    /// Switch-scheduler name.
    pub arbiter: String,
    /// Link-priority function name.
    pub priority_fn: String,
    /// Jain fairness of throughput normalized by reservations (1.0 =
    /// service proportional to reserved slots).
    pub reservation_fairness: f64,
    /// QoS metrics.
    pub metrics: MetricsReport,
    /// Mean crossbar utilization over measured cycles.
    pub crossbar_utilization: f64,
    /// Fraction of measured cycles with ≥1 transfer.
    pub crossbar_busy_fraction: f64,
    /// Input VC switches (arbitration/reconfiguration events).
    pub reconfigurations: u64,
    /// Cycles counted toward statistics.
    pub measured_cycles: u64,
    /// Flits generated (whole run, reset at measurement start).
    pub generated_flits: u64,
    /// Flits delivered (whole run, reset at measurement start).
    pub delivered_flits: u64,
    /// Deliveries per output port.
    pub delivered_per_output: Vec<u64>,
    /// High-water mark of any NIC's total queue depth.
    pub peak_nic_depth: usize,
    /// High-water mark of total VC-memory occupancy.
    pub peak_vc_occupancy: usize,
    /// Flits still buffered at snapshot time.
    pub backlog_flits: usize,
    /// Flit cycle (from run start) at which all finite sources were
    /// exhausted; `None` while any source can still generate.
    pub generation_window_cycles: Option<u64>,
    /// Flits delivered during the generation window.
    pub delivered_in_window: u64,
    /// Fault-subsystem counters (all zero when no faults were injected).
    pub faults: FaultReport,
}

impl RouterSummary {
    /// Delivered throughput as a fraction of generated traffic.
    pub fn throughput_ratio(&self) -> f64 {
        if self.generated_flits == 0 {
            1.0
        } else {
            self.delivered_flits as f64 / self.generated_flits as f64
        }
    }

    /// Crossbar utilization measured over the *generation window* only:
    /// flits delivered while sources were active / (ports × window).
    /// Deliveries that slip past the window — the backlog a saturated
    /// scheduler accumulates — do not count, which is what makes this the
    /// Fig. 8 metric: it degrades exactly where QoS does.  Falls back to
    /// the whole-run utilization for infinite workloads.
    pub fn generation_window_utilization(&self) -> f64 {
        let ports = self.delivered_per_output.len().max(1) as f64;
        match self.generation_window_cycles {
            Some(window) if window > 0 => self.delivered_in_window as f64 / (ports * window as f64),
            _ => self.crossbar_utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_arbiter::priority::Siabp;
    use mmr_arbiter::scheduler::ArbiterKind;
    use mmr_sim::engine::{Runner, StopCondition};
    use mmr_sim::rng::SimRng;
    use mmr_sim::units::Bandwidth;
    use mmr_traffic::admission::RoundConfig;
    use mmr_traffic::connection::TrafficClass;
    use mmr_traffic::workload::CbrMixBuilder;

    fn small_cbr_router(load: f64, kind: ArbiterKind, seed: u64) -> MmrRouter {
        let cfg = RouterConfig::default();
        let mut rng = SimRng::seed_from_u64(seed);
        let w = CbrMixBuilder::new(cfg.ports, cfg.time, RoundConfig::default())
            .target_load(load)
            .build(&mut rng);
        MmrRouter::new(cfg, w, kind.instantiate(4), Box::new(Siabp), seed)
    }

    /// Step a CBR router at load 0.8, let `plant` desync an occupancy
    /// index as soon as it can, and step on: the audit in
    /// `SwitchCore::forward` must trip on the next cycle that moves a flit.
    fn step_past_a_planted_desync(plant: fn(&mut crate::pipeline::SwitchCore) -> bool) {
        let mut r = small_cbr_router(0.8, ArbiterKind::Coa, 3);
        let mut planted = false;
        for t in 0..2_000 {
            r.step(FlitCycle(t), false);
            planted = planted || plant(&mut r.node_mut().core);
        }
        panic!("planted: {planted}, but the audit never tripped");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "occupancy index out of sync")]
    fn a_planted_nic_index_desync_trips_the_audit() {
        step_past_a_planted_desync(|core| core.nics.iter_mut().any(crate::nic::tests::hide_one));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "occupancy index out of sync")]
    fn a_planted_vc_index_desync_trips_the_audit() {
        step_past_a_planted_desync(|core| crate::vcmem::tests::hide_one(&mut core.mem));
    }

    #[test]
    fn low_load_delivers_everything_quickly() {
        let mut r = small_cbr_router(0.3, ArbiterKind::Coa, 1);
        let out = Runner::new(500, StopCondition::Cycles(5_000)).run(&mut r);
        assert_eq!(out.executed, 5_000);
        let s = r.summary();
        assert!(s.generated_flits > 0, "sources must generate");
        // At 30% load the router keeps up: backlog stays tiny.
        assert!(
            s.backlog_flits < 20,
            "backlog {} too large for 30% load",
            s.backlog_flits
        );
        let ratio = s.throughput_ratio();
        assert!(ratio > 0.99, "throughput ratio {ratio}");
        // Mean delay should be a few flit cycles (µs scale).
        let m = s.metrics.class(TrafficClass::CbrHigh).unwrap();
        assert!(m.mean_delay_us < 20.0, "mean delay {} µs", m.mean_delay_us);
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let mut r = small_cbr_router(0.5, ArbiterKind::Coa, 2);
        Runner::new(1_000, StopCondition::Cycles(10_000)).run(&mut r);
        let s = r.summary();
        // Crossbar utilization ≈ offered load (each flit crosses once).
        assert!(
            (s.crossbar_utilization - 0.5).abs() < 0.08,
            "utilization {} vs load 0.5",
            s.crossbar_utilization
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut r = small_cbr_router(0.6, ArbiterKind::Coa, seed);
            Runner::new(200, StopCondition::Cycles(3_000)).run(&mut r);
            r.summary()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_arbiters_share_workload() {
        // Same seed -> identical workload; arbiters may differ in results
        // but both must deliver traffic without violating invariants.
        for kind in [
            ArbiterKind::Coa,
            ArbiterKind::Wfa,
            ArbiterKind::Islip { iterations: 2 },
        ] {
            let mut r = small_cbr_router(0.5, kind, 3);
            Runner::new(200, StopCondition::Cycles(3_000)).run(&mut r);
            let s = r.summary();
            assert!(s.delivered_flits > 0, "{} delivered nothing", s.arbiter);
            assert!(s.peak_vc_occupancy <= r.connections().len() * 4);
        }
    }

    #[test]
    fn flit_delay_floor_is_two_flit_cycles() {
        // NIC link (1 cycle) + crossbar/output (1 cycle) is the minimum
        // path; no delivery may undercut it.
        let mut r = small_cbr_router(0.2, ArbiterKind::Coa, 4);
        Runner::new(100, StopCondition::Cycles(2_000)).run(&mut r);
        let s = r.summary();
        let flit_us = 1024.0 / 1.24e9 * 1e6;
        for c in &s.metrics.classes {
            if c.delivered > 0 {
                // mean >= 2 flit cycles minus rounding slack
                assert!(
                    c.mean_delay_us >= 2.0 * flit_us * 0.9,
                    "{:?} mean {} µs under floor",
                    c.class,
                    c.mean_delay_us
                );
            }
        }
    }

    #[test]
    fn generation_window_tracked_for_finite_workloads() {
        use mmr_traffic::workload::VbrMixBuilder;
        let cfg = RouterConfig::default();
        let mut rng = SimRng::seed_from_u64(21);
        let w = VbrMixBuilder::new(cfg.ports, cfg.time, RoundConfig::default())
            .target_load(0.3)
            .gops(1)
            .build(&mut rng);
        let mut r = MmrRouter::new(cfg, w, ArbiterKind::Coa.instantiate(4), Box::new(Siabp), 21);
        let out = Runner::new(0, StopCondition::ModelDoneOrCycles(3_000_000)).run(&mut r);
        assert!(out.model_finished);
        let s = r.summary();
        let window = s
            .generation_window_cycles
            .expect("finite sources must close the window");
        assert!(window > 0 && window <= out.executed);
        assert!(s.delivered_in_window <= s.delivered_flits);
        // At 30% load nearly everything is delivered inside the window.
        assert!(s.delivered_in_window as f64 / s.delivered_flits as f64 > 0.99);
        let wu = s.generation_window_utilization();
        assert!(wu > 0.0 && wu <= 1.0, "window utilization {wu}");
    }

    #[test]
    fn infinite_workload_window_falls_back_to_run_utilization() {
        let mut r = small_cbr_router(0.4, ArbiterKind::Coa, 6);
        Runner::new(100, StopCondition::Cycles(2_000)).run(&mut r);
        let s = r.summary();
        assert_eq!(s.generation_window_cycles, None);
        assert_eq!(s.generation_window_utilization(), s.crossbar_utilization);
    }

    #[test]
    fn empty_workload_router_is_trivially_done() {
        let cfg = RouterConfig::default();
        let w = Workload {
            connections: vec![],
            sources: vec![],
            windows: vec![],
            per_input_load: vec![0.0; 4],
            admission: Default::default(),
        };
        let mut r = MmrRouter::new(cfg, w, ArbiterKind::Coa.instantiate(4), Box::new(Siabp), 0);
        assert!(r.drained());
        let out = Runner::new(0, StopCondition::ModelDoneOrCycles(100)).run(&mut r);
        assert!(out.model_finished);
        assert_eq!(r.summary().generated_flits, 0);
    }

    #[test]
    fn faults_are_detected_and_credits_recover() {
        use mmr_sim::fault::{FaultEvent, FaultKind, FaultPlan};
        let mut r = small_cbr_router(0.5, ArbiterKind::Coa, 11);
        let conns = r.connections().len();
        let mut events = Vec::new();
        for c in 0..conns.min(8) {
            events.push(FaultEvent {
                at: 100 + c as u64 * 7,
                kind: FaultKind::DropCredit { conn: c },
            });
            events.push(FaultEvent {
                at: 130 + c as u64 * 7,
                kind: FaultKind::DuplicateCredit { conn: c },
            });
        }
        for input in 0..4 {
            events.push(FaultEvent {
                at: 200 + input as u64,
                kind: FaultKind::CorruptFlit { input },
            });
            events.push(FaultEvent {
                at: 300 + input as u64,
                kind: FaultKind::DropFlit { input },
            });
        }
        r.set_faults(FaultPlan::from_events(events), None);
        Runner::new(0, StopCondition::Cycles(3_000)).run(&mut r);
        let rep = r.fault_report();
        assert!(rep.events_fired > 0);
        assert_eq!(rep.corrupted_flits, 4, "every corruption must be caught");
        assert!(rep.dropped_flits >= 4);
        assert!(rep.credits_lost > 0);
        assert!(rep.credit_resyncs > 0, "watchdog must fix the drift");
        assert!(
            r.credits_consistent(),
            "credits must be consistent after recovery"
        );
        // The router keeps delivering traffic through the faults.
        assert!(r.summary().delivered_flits > 0);
    }

    #[test]
    fn stalled_output_receives_nothing_during_the_stall() {
        use mmr_sim::fault::{FaultEvent, FaultKind, FaultPlan};
        let mut r = small_cbr_router(0.6, ArbiterKind::Coa, 12);
        r.set_faults(
            FaultPlan::from_events(vec![FaultEvent {
                at: 500,
                kind: FaultKind::StallOutput {
                    output: 2,
                    flit_cycles: 200,
                },
            }]),
            None,
        );
        let mut during_stall = 0;
        let mut after_stall = 0;
        for t in 0..1_500u64 {
            let prev = r.summary().delivered_per_output[2];
            r.step(FlitCycle(t), true);
            let delta = r.summary().delivered_per_output[2] - prev;
            if (500..700).contains(&t) {
                during_stall += delta;
            } else if t >= 700 {
                after_stall += delta;
            }
        }
        assert_eq!(r.fault_report().stall_cycles, 200);
        assert_eq!(during_stall, 0, "stalled port must accept nothing");
        assert!(after_stall > 0, "port must resume after the stall");
        assert!(r.summary().delivered_flits > 0);
    }

    #[test]
    fn rogue_source_is_quarantined_and_loses_priority() {
        use mmr_sim::fault::{FaultEvent, FaultKind, FaultPlan};
        let mut r = small_cbr_router(0.5, ArbiterKind::Coa, 13);
        let victim = 0usize;
        r.set_faults(
            FaultPlan::from_events(vec![FaultEvent {
                at: 100,
                kind: FaultKind::RogueSource {
                    conn: victim,
                    flit_cycles: 3_000,
                    extra_flits_per_cycle: 2,
                },
            }]),
            None,
        );
        Runner::new(0, StopCondition::Cycles(4_000)).run(&mut r);
        let rep = r.fault_report();
        assert!(rep.rogue_flits > 1_000);
        assert_eq!(rep.quarantined_connections, 1);
        assert!(r.quarantined()[victim]);
        for (c, q) in r.quarantined().iter().enumerate() {
            assert_eq!(*q, c == victim, "only the violator is quarantined");
        }
    }

    #[test]
    fn fault_runs_are_deterministic() {
        use mmr_sim::fault::FaultPlanConfig;
        let run = || {
            let mut r = small_cbr_router(0.6, ArbiterKind::Wfa, 17);
            let cfg = FaultPlanConfig {
                window_start: 200,
                window_len: 2_000,
                ..Default::default()
            };
            let conns = r.connections().len();
            let plan = cfg.generate(4, conns, &mut SimRng::seed_from_u64(99));
            r.set_faults(plan, None);
            Runner::new(0, StopCondition::Cycles(4_000)).run(&mut r);
            r.summary()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical seed + plan must replay bit-for-bit");
        assert!(a.faults.events_fired > 0);
    }

    #[test]
    fn single_connection_end_to_end() {
        // One 55 Mbps connection 0 -> 2: every flit arrives, in order,
        // with constant low delay.
        let cfg = RouterConfig::default();
        let mut rng = SimRng::seed_from_u64(9);
        let w = CbrMixBuilder::new(cfg.ports, cfg.time, RoundConfig::default())
            .classes(vec![(TrafficClass::CbrHigh, Bandwidth::mbps(55.0), 1.0)])
            .target_load(0.05)
            .build(&mut rng);
        let n = w.len();
        assert!(n >= 1);
        let mut r = MmrRouter::new(cfg, w, ArbiterKind::Coa.instantiate(4), Box::new(Siabp), 9);
        Runner::new(0, StopCondition::Cycles(20_000)).run(&mut r);
        let s = r.summary();
        let m = s.metrics.class(TrafficClass::CbrHigh).unwrap();
        assert!(m.delivered > 500);
        // Uncontended: delay pinned at the 2-flit-cycle floor.
        let flit_us = 1024.0 / 1.24e9 * 1e6;
        assert!(
            m.mean_delay_us < 3.0 * flit_us,
            "uncontended delay {} µs",
            m.mean_delay_us
        );
    }
}
