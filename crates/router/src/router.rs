//! The top-level single-router model (paper Fig. 4).
//!
//! [`MmrRouter`] is the single-switch adapter over the shared
//! [`SwitchCore`] ([`crate::pipeline`] has the stage list and the
//! intra-cycle timing).  This module adds what only the one-router
//! model has: output sinks and QoS metrics behind the crossbar, fault
//! injection and recovery hooked into the stages, and the telemetry
//! brackets around them.

use crate::config::RouterConfig;
use crate::fault::{FaultProfile, FaultReport, FaultState, LinkFate};
use crate::link_scheduler::VcQosInfo;
use crate::metrics::{MetricsCollector, MetricsReport};
use crate::nic::Nic;
use crate::output::{Delivery, OutputPorts};
use crate::pipeline::{Ingress, SwitchCore, Wiring};
use crate::telemetry::{RouterTelemetry, TelemetryConfig, TelemetryReport};
use mmr_arbiter::priority::LinkPriority;
use mmr_arbiter::scheduler::SwitchScheduler;
use mmr_sim::engine::CycleModel;
use mmr_sim::rng::SimRng;
use mmr_sim::time::{FlitCycle, RouterCycle};
use mmr_traffic::calendar;
use mmr_traffic::connection::ConnectionSpec;
use mmr_traffic::flit::Flit;
use mmr_traffic::workload::Workload;
use serde::{Deserialize, Serialize};

/// The Multimedia Router with its NICs and traffic sources.
pub struct MmrRouter {
    cfg: RouterConfig,
    specs: Vec<ConnectionSpec>,
    /// The switch pipeline; VC and source indices are connection ids.
    core: SwitchCore,
    outputs: OutputPorts,
    metrics: MetricsCollector,
    rc_per_flit: u64,
    crossing_rc: u64,
    generated_total: u64,
    delivered_total: u64,
    /// Flit cycle at which every finite source had been exhausted, if
    /// that has happened (the end of the generation window).
    generation_ended_at: Option<u64>,
    /// Flits delivered while sources were still generating.
    delivered_in_window: u64,
    /// Fault injection + detection/recovery; inert unless a plan is
    /// installed with [`MmrRouter::set_faults`].
    faults: FaultState,
    /// Observability hooks; the disarmed default costs one branch per
    /// probe point (see [`MmrRouter::set_telemetry`]).
    telemetry: RouterTelemetry,
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
        cfg.validate();
        let Workload {
            connections: specs,
            sources,
            ..
        } = workload;
        let n_conns = specs.len();
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.id.idx(), i, "connection ids must be dense");
            assert!(
                s.input < cfg.ports && s.output < cfg.ports,
                "ports out of range"
            );
        }
        let qos: Vec<VcQosInfo> = specs
            .iter()
            .map(|s| VcQosInfo {
                output: s.output,
                reserved_slots: s.reserved_slots,
                iat_rc: s.iat_router_cycles(&cfg.time),
            })
            .collect();
        // Histograms before the core ("Allocation order", pipeline docs).
        let metrics = MetricsCollector::new(n_conns, cfg.time);
        let core = SwitchCore::new(
            &cfg,
            qos,
            sources,
            Wiring {
                input_of_vc: |vc: usize| specs[vc].input,
                vc_of_source: |i| i,
            },
            arbiter,
            priority_fn,
            SimRng::seed_from_u64(seed ^ 0x4D4D_5221),
        );
        let rc_per_flit = cfg.router_cycles_per_flit();
        MmrRouter {
            core,
            outputs: OutputPorts::new(cfg.ports),
            metrics,
            rc_per_flit,
            crossing_rc: cfg.crossing_latency_flits * rc_per_flit,
            generated_total: 0,
            delivered_total: 0,
            generation_ended_at: None,
            delivered_in_window: 0,
            faults: FaultState::inactive(cfg.ports, n_conns),
            telemetry: RouterTelemetry::disabled(),
            specs,
            cfg,
        }
    }

    /// Arm telemetry per `cfg` and the arbiter's work-count probe.  All
    /// buffers are sized here; the per-cycle path stays allocation-free.
    /// Reports stay bit-deterministic unless `cfg.wall_clock` opts into
    /// real stage timing.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        let classes: Vec<_> = self.specs.iter().map(|s| s.class).collect();
        self.telemetry = RouterTelemetry::armed(cfg, &classes);
        self.core.arbiter.set_probe_enabled(true);
    }

    /// Telemetry state (disarmed by default).
    pub fn telemetry(&self) -> &RouterTelemetry {
        &self.telemetry
    }

    /// Mutable telemetry state (e.g. to reach the flight recorder).
    pub fn telemetry_mut(&mut self) -> &mut RouterTelemetry {
        &mut self.telemetry
    }

    /// Snapshot everything telemetry observed, including the arbitration
    /// kernel's work counters.
    pub fn telemetry_report(&self) -> TelemetryReport {
        self.telemetry.report(self.core.arbiter.kernel_stats())
    }

    /// Append a Prometheus text exposition of the live telemetry state
    /// (counters, stage profile, kernel probe, observatory histograms)
    /// to `out`.  Histogram values are exposed in seconds.  Performs no
    /// heap allocation once `out` has grown to its working size, so a
    /// scrape loop can reuse one buffer.
    pub fn prometheus_into(&self, out: &mut String) {
        self.telemetry.write_prometheus(
            out,
            &self.core.arbiter.kernel_stats(),
            self.cfg.time.router_cycle_secs(),
        );
    }

    /// Fingerprint of the arbiter RNG's stream position: equal
    /// fingerprints mean the two routers consumed identical draw
    /// sequences.  Used by determinism tests to prove telemetry never
    /// touches the RNG.
    pub fn rng_fingerprint(&self) -> u64 {
        self.core.rng_fingerprint()
    }

    /// Install a fault plan and recovery profile (chaos experiments).
    ///
    /// Per-connection contract rates for the rogue-source policing are
    /// derived from the admitted QoS parameters; the profile's delay
    /// bound (flit cycles) is handed to the metrics collector so QoS
    /// violations are counted per connection.
    pub fn set_faults(&mut self, plan: mmr_sim::fault::FaultPlan, profile: FaultProfile) {
        let window_rc = (profile.rate_window * self.rc_per_flit) as f64;
        let contract: Vec<f64> = self
            .core
            .qos
            .iter()
            .map(|q| {
                if q.iat_rc > 0.0 {
                    window_rc / q.iat_rc
                } else {
                    0.0
                }
            })
            .collect();
        let guaranteed: Vec<bool> = self.core.qos.iter().map(|q| q.reserved_slots > 0).collect();
        self.metrics.set_delay_bound(
            profile
                .delay_bound_flit_cycles
                .map(|b| b * self.rc_per_flit),
        );
        self.faults.install(plan, profile, contract, guaranteed);
    }

    /// Fault-subsystem counters (all zero when no plan is installed).
    pub fn fault_report(&self) -> FaultReport {
        self.faults.report()
    }

    /// Per-connection quarantine flags.
    pub fn quarantined(&self) -> &[bool] {
        self.faults.quarantined()
    }

    /// True if every connection's NIC credit counters agree with its VC
    /// occupancy (call between cycles; the watchdog restores this after
    /// credit-path faults).
    pub fn credits_consistent(&self) -> bool {
        (0..self.specs.len()).all(|c| self.core.credits.consistent(c, self.core.mem.len(c)))
    }

    /// Delay-bound violations per connection in the current measurement
    /// window (all zero unless a fault profile set a bound).
    pub fn violations_per_connection(&self) -> &[u64] {
        self.metrics.violations_per_connection()
    }

    /// Flits delivered per connection in the current measurement window.
    pub fn delivered_per_connection(&self) -> &[u64] {
        self.metrics.delivered_per_connection()
    }

    /// Router configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Connection specs (index = connection id).
    pub fn connections(&self) -> &[ConnectionSpec] {
        &self.specs
    }

    /// Live metrics snapshot.
    pub fn metrics_report(&self) -> MetricsReport {
        self.metrics.report()
    }

    /// Jain fairness of delivered throughput normalized by reservations
    /// (best-effort connections, with zero reservation, are excluded).
    pub fn reservation_fairness(&self) -> f64 {
        let weights: Vec<f64> = self.specs.iter().map(|s| s.reserved_slots as f64).collect();
        self.metrics.jain_fairness(&weights)
    }

    /// Aggregate run summary.
    pub fn summary(&self) -> RouterSummary {
        let core = &self.core;
        RouterSummary {
            arbiter: core.arbiter.name().to_string(),
            priority_fn: core.priority_fn.name().to_string(),
            reservation_fairness: self.reservation_fairness(),
            metrics: self.metrics.report(),
            crossbar_utilization: core.crossbar.mean_utilization(),
            crossbar_busy_fraction: core.crossbar.busy_fraction(),
            reconfigurations: core.crossbar.reconfigurations(),
            measured_cycles: core.crossbar.cycles(),
            generated_flits: self.generated_total,
            delivered_flits: self.delivered_total,
            delivered_per_output: self.outputs.per_port().to_vec(),
            peak_nic_depth: core.nics.iter().map(Nic::peak_depth).max().unwrap_or(0),
            peak_vc_occupancy: core.mem.peak_occupancy(),
            backlog_flits: self.backlog(),
            generation_window_cycles: self.generation_ended_at,
            delivered_in_window: self.delivered_in_window,
            faults: self.faults.report(),
        }
    }

    /// Flits currently buffered anywhere (NICs + VC memory).
    pub fn backlog(&self) -> usize {
        self.core.backlog()
    }

    /// True when all finite sources are exhausted and every buffer is
    /// empty.
    pub fn drained(&self) -> bool {
        self.core.next_injection_rc() == calendar::NEVER && self.backlog() == 0
    }
}

impl CycleModel for MmrRouter {
    fn step(&mut self, now: FlitCycle, measuring: bool) {
        let now_rc = RouterCycle(now.0 * self.rc_per_flit);

        // 0. Fault events due this cycle fire before anything moves.
        let faults_active = self.faults.is_active();
        if faults_active {
            self.faults.begin_cycle(now.0);
            for conn in self.faults.take_pending_dups() {
                // A phantom credit return materializes on the return path.
                self.core.credits.queue_return(conn);
            }
        }

        // 1. Source generation into NIC queues.
        let t_gen = self.telemetry.stage_begin();
        let mut gen_count = 0u64;
        self.core.inject(now_rc, |i| {
            let class = self.specs[i].class;
            self.generated_total += 1;
            gen_count += 1;
            self.telemetry.on_generated(class);
            if measuring {
                self.metrics.record_generated(class);
            }
            if faults_active {
                self.faults.note_generated(i);
            }
        });
        // 1b. Rogue sources inject beyond their admitted contract; the
        // rate meter sees the excess and may quarantine the connection.
        if faults_active {
            for i in 0..self.specs.len() {
                if let Some((seq0, n)) = self.faults.rogue_take(i, now.0) {
                    let class = self.specs[i].class;
                    for k in 0..n as u64 {
                        let flit = Flit::cbr(self.specs[i].id, seq0 + k, now_rc);
                        self.core.enqueue(i, flit);
                        self.generated_total += 1;
                        gen_count += 1;
                        self.telemetry.on_generated(class);
                        if measuring {
                            self.metrics.record_generated(class);
                        }
                        self.faults.note_generated(i);
                    }
                }
            }
            self.faults.poll_contracts(now.0);
            for idx in 0..self.faults.newly_quarantined().len() {
                // Degradation policy: the violator loses its reservation,
                // so the link schedulers treat it as best-effort and its
                // slots return to the best-effort pool.
                let conn = self.faults.newly_quarantined()[idx];
                self.core.qos[conn].reserved_slots = 0;
                self.telemetry.on_quarantine(now.0, conn);
            }
            self.faults.clear_newly_quarantined();
        }
        self.telemetry.end_source_gen(t_gen, gen_count);

        // 2. Link scheduling.  VCs routed to a stalled output are
        // ineligible — offering them would waste crossbar grants on a
        // port that cannot accept.
        let t_ls = self.telemetry.stage_begin();
        let cand_count = if faults_active && self.faults.any_stall(now.0) {
            let faults = &self.faults;
            self.core
                .select(now_rc, |_, q| !faults.output_stalled(q.output, now.0))
        } else {
            self.core.select(now_rc, |_, _| true)
        };
        self.telemetry.end_link_schedule(t_ls, cand_count);

        // 3. Switch scheduling.
        let t_arb = self.telemetry.stage_begin();
        let matched = self.core.arbitrate();
        self.telemetry.end_arbitration(t_arb, matched as u64);
        if self.telemetry.is_enabled() {
            // Trace grants, and inputs that offered a head candidate but
            // went unmatched (VC stalled for at least this cycle).
            for g in self.core.matching.grants() {
                self.telemetry.on_grant(now.0, g.input, g.output, g.vc);
            }
            for input in 0..self.cfg.ports {
                if !self.core.matching.input_matched(input) {
                    if let Some(c) = self.core.candidates.get(input, 0) {
                        self.telemetry.on_vc_stall(now.0, input, c.output, c.vc);
                    }
                }
            }
        }

        // 4. Crossbar traversal + delivery + credit returns.
        let t_xbar = self.telemetry.stage_begin();
        let crossed = self.core.cross(measuring);
        self.telemetry.end_crossbar(t_xbar, crossed.len() as u64);
        let t_dlv = self.telemetry.stage_begin();
        let mut returns_queued = 0u64;
        for cf in &crossed {
            self.outputs.record(cf.output);
            self.delivered_total += 1;
            if self.generation_ended_at.is_none() {
                self.delivered_in_window += 1;
            }
            let delivery = Delivery {
                flit: cf.buffered.flit,
                output: cf.output,
                delivered_at: RouterCycle(now_rc.0 + self.crossing_rc),
            };
            if measuring {
                self.metrics
                    .record_delivery(&delivery, self.specs[cf.vc].class);
            }
            self.telemetry.on_delivered(
                self.specs[cf.vc].class,
                cf.vc,
                delivery.delay().0,
                delivery.delivered_at.0 - cf.buffered.entered_at.0,
            );
            // A credit return stolen on the return path leaves the NIC's
            // counter low until the watchdog resynchronizes.
            if !(faults_active && self.faults.steal_return(cf.vc)) {
                self.core.queue_credit_return(cf.vc);
                returns_queued += 1;
            }
        }
        self.telemetry.end_delivery(t_dlv, crossed.len() as u64);
        self.core.recycle(crossed);

        // 5. NIC link controllers forward one flit per input link.
        let t_fwd = self.telemetry.stage_begin();
        let mut forwarded = 0u64;
        let arrival = RouterCycle(now_rc.0 + self.rc_per_flit);
        self.core.forward(arrival, |mem, input, conn, flit| {
            forwarded += 1;
            self.telemetry.on_credit_consumed(now.0, conn);
            if !faults_active {
                return Ingress::Admit;
            }
            if self.faults.on_link_flit(input, flit) == LinkFate::Dropped {
                // Silent loss: the spent credit vanishes with the flit;
                // only the watchdog can recover it.
                return Ingress::Discard;
            }
            if !flit.integrity_ok() {
                // Ingress checksum catch: discard the damaged flit and
                // return its credit immediately (the buffer slot was
                // never consumed).
                self.faults.note_corrupt_detected();
                self.telemetry.on_fault_detected(now.0, 0);
                returns_queued += 1;
                return Ingress::DiscardAndReturnCredit;
            }
            if mem.free_space(conn) == 0 {
                // Phantom-credit guard: a duplicated credit let the NIC
                // send into a full buffer.  Discarding the flit without a
                // credit return annihilates the phantom.
                self.faults.note_phantom_drop();
                self.telemetry.on_fault_detected(now.0, 1);
                return Ingress::Discard;
            }
            Ingress::Admit
        });
        self.telemetry.end_nic_forward(t_fwd, forwarded);

        // 6. Credit returns become visible next cycle.  Under fault
        // injection the counters saturate instead of panicking, and the
        // watchdog periodically audits them against VC occupancy.
        let t_cr = self.telemetry.stage_begin();
        if faults_active {
            let excess = self.core.credits.apply_returns_clamped();
            if excess > 0 {
                self.faults.note_excess_credits(excess);
            }
            if self.faults.watchdog_due(now.0) {
                for conn in 0..self.specs.len() {
                    let occupancy = self.core.mem.len(conn);
                    if !self.core.credits.consistent(conn, occupancy) {
                        let expected = self.core.credits.capacity() - occupancy as u32;
                        self.core.credits.resync(conn, expected);
                        self.faults.note_resync();
                        self.telemetry.on_fault_detected(now.0, 2);
                    }
                }
            }
        } else {
            self.core.return_credits();
        }
        self.telemetry.end_credit_return(t_cr, returns_queued);

        // Track the end of the generation window (finite workloads only):
        // the injection bound reaches NEVER on exactly the cycle the last
        // source drains.
        if self.generation_ended_at.is_none() && self.core.next_injection_rc() == calendar::NEVER {
            self.generation_ended_at = Some(now.0 + 1);
        }

        // Close the telemetry cycle (gauges + snapshot-window roll); the
        // backlog scan runs only when armed.
        if self.telemetry.is_enabled() {
            let backlog = self.backlog() as u64;
            self.telemetry.end_cycle(now.0, backlog);
        }
    }

    fn on_measurement_start(&mut self, _now: FlitCycle) {
        self.metrics.reset();
        self.core.crossbar.reset_stats();
        self.outputs.reset();
        self.generated_total = 0;
        self.delivered_total = 0;
        self.delivered_in_window = 0;
        self.generation_ended_at = None;
        self.faults.reset_stats();
    }

    fn is_done(&self, _now: FlitCycle) -> bool {
        self.drained()
    }

    fn next_event(&self, now: FlitCycle) -> FlitCycle {
        // Any buffered flit means credits, queues and metrics can move
        // next cycle: no skipping.
        if self.backlog() > 0 {
            return FlitCycle(now.0 + 1);
        }
        // Quiescent.  The next state change is the earliest of: the next
        // injection, the next armed fault activity, and — if credit
        // counters drifted under faults — the next watchdog audit (its
        // resync must execute on the same cycle as in the naive loop).
        let mut horizon = match self.core.next_injection_rc() {
            calendar::NEVER => u64::MAX,
            rc => rc.div_ceil(self.rc_per_flit),
        };
        if self.faults.is_active() {
            horizon = horizon.min(self.faults.horizon(now.0));
            let period = self.faults.profile().watchdog_period;
            if period > 0 && !self.core.credits.all_at_capacity() {
                horizon = horizon.min((now.0 / period + 1) * period);
            }
        }
        FlitCycle(horizon.max(now.0 + 1))
    }

    fn skip_quiescent(&mut self, from: FlitCycle, n: u64, measuring: bool) {
        // Measured-cycle counts and TDM table phase live in the core;
        // telemetry epochs here.  Nothing else can move while quiescent.
        self.core.skip_quiescent(n, measuring);
        if self.telemetry.is_enabled() {
            self.telemetry.skip_quiescent(from.0, n);
        }
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
        use crate::fault::FaultProfile;
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
        r.set_faults(FaultPlan::from_events(events), FaultProfile::default());
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
        use crate::fault::FaultProfile;
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
            FaultProfile::default(),
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
        use crate::fault::FaultProfile;
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
            FaultProfile {
                rate_window: 512,
                ..Default::default()
            },
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
        use crate::fault::FaultProfile;
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
            r.set_faults(plan, FaultProfile::default());
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
