//! Router-side telemetry: wiring the `mmr_sim::telemetry` substrate into
//! the `MmrRouter` pipeline.
//!
//! A [`RouterTelemetry`] bundles the four observability pieces for one
//! router instance:
//!
//! * a counter [`Registry`] (grants, stalls, credits, faults …);
//! * a [`StageProfiler`] bracketing every stage `FabricNode::step_cycle`
//!   runs on its `SwitchCore` (source generation, link scheduling,
//!   arbitration, crossbar traversal, delivery, NIC forwarding, credit
//!   return);
//! * a [`FlightRecorder`] ring of binary [`TraceEvent`]s (grants, VC
//!   stalls, credit consumption, fault detections, quarantines);
//! * periodic per-class window accumulators feeding a report of
//!   occupancy/throughput/delay snapshots.
//!
//! The disabled default costs one well-predicted branch per hook; the
//! armed path allocates nothing per cycle (all buffers are pre-sized).
//! Timing uses the injected [`Clock`] — the deterministic `NullClock`
//! unless [`TelemetryConfig::wall_clock`] opts into real time — so arming
//! telemetry can never perturb simulation results, only observe them.

use crate::metrics::{class_index, ALL_CLASSES, CLASS_COUNT};
use crate::observatory::{ClassObservation, Observatory, ObservatoryReport};
use mmr_arbiter::scheduler::KernelStats;
use mmr_sim::stats::LogHistogram;
use mmr_sim::telemetry::{
    expose, Clock, CounterId, CounterSample, FlightRecorder, MonotonicClock, NullClock, Registry,
    SnapshotRing, StageId, StageProfiler, StageSample, TraceEvent,
};
use mmr_traffic::connection::TrafficClass;
use serde::{Deserialize, Serialize};

/// Snapshot windows an armed router retains; later windows are counted
/// as dropped.
const MAX_SNAPSHOTS: usize = 512;

/// How a router's telemetry should be armed (serialized in a
/// `SimConfig` as `mmr_core::config::TelemetrySpec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Flit cycles per snapshot window (0 disables windowing).
    pub snapshot_interval: u64,
    /// Flight-recorder capacity in events (0 disables tracing).
    pub trace_capacity: usize,
    /// Measure stage wall time with a real monotonic clock.  Off by
    /// default: the `NullClock` keeps reports bit-deterministic.
    pub wall_clock: bool,
    /// Arm the QoS observatory: per-class and per-connection histograms
    /// for delay/jitter/queue residency plus SLO tracking.
    pub observatory: bool,
    /// Delay SLO bound in router cycles, applied to guaranteed classes
    /// (CBR/VBR; best-effort is exempt).  0 disables violation counting.
    /// The default (4096 rc) sits a few multiples above the Fig. 5 mean
    /// delays at 0.7 load, so violations flag genuine tail excursions.
    pub slo_delay_bound_rc: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            snapshot_interval: 1000,
            trace_capacity: 4096,
            wall_clock: false,
            observatory: true,
            slo_delay_bound_rc: 4096,
        }
    }
}

/// Most events a flight recorder may hold: its ring is allocated whole.
pub const MAX_TRACE_CAPACITY: usize = 1 << 20;

impl TelemetryConfig {
    /// Identity, kept only for the benchmark's pinned surface
    /// (`benchmark/src/sut.rs`), which arms routers through
    /// `TelemetrySpec::to_config`.
    pub fn to_config(self) -> TelemetryConfig {
        self
    }
}

/// Pipeline stages of `FabricNode::step_cycle`, in execution order.
struct StageIds {
    source_gen: StageId,
    link_schedule: StageId,
    arbitration: StageId,
    crossbar: StageId,
    delivery: StageId,
    nic_forward: StageId,
    credit_return: StageId,
}

impl StageIds {
    fn register(p: &mut StageProfiler) -> Self {
        StageIds {
            source_gen: p.stage("source-gen"),
            link_schedule: p.stage("link-schedule"),
            arbitration: p.stage("arbitration"),
            crossbar: p.stage("crossbar"),
            delivery: p.stage("delivery"),
            nic_forward: p.stage("nic-forward"),
            credit_return: p.stage("credit-return"),
        }
    }
}

/// Registry slots for the router's counters.
struct CounterIds {
    cycles: CounterId,
    grants: CounterId,
    vc_stalls: CounterId,
    credits_consumed: CounterId,
    credits_returned: CounterId,
    faults_detected: CounterId,
    quarantines: CounterId,
    backlog_peak: CounterId,
}

impl CounterIds {
    fn register(r: &mut Registry) -> Self {
        CounterIds {
            cycles: r.register("cycles"),
            grants: r.register("grants_issued"),
            vc_stalls: r.register("vc_stalls"),
            credits_consumed: r.register("credits_consumed"),
            credits_returned: r.register("credits_returned"),
            faults_detected: r.register("faults_detected"),
            quarantines: r.register("connections_quarantined"),
            backlog_peak: r.register("backlog_peak_flits"),
        }
    }
}

/// Per-window accumulator (lives in pre-sized buffers — must stay `Copy`
/// and fixed-size; converted to the `Vec`-based [`WindowSnapshot`] only
/// at report time).
#[derive(Debug, Clone, Copy)]
struct WindowAccum {
    index: u64,
    start_cycle: u64,
    end_cycle: u64,
    generated: [u64; CLASS_COUNT],
    delivered: [u64; CLASS_COUNT],
    delay_sum_rc: [u64; CLASS_COUNT],
    slo_violations: [u64; CLASS_COUNT],
    grants: u64,
    vc_stalls: u64,
    backlog_end: u64,
}

impl WindowAccum {
    fn fresh(index: u64, start_cycle: u64) -> Self {
        WindowAccum {
            index,
            start_cycle,
            end_cycle: start_cycle,
            generated: [0; CLASS_COUNT],
            delivered: [0; CLASS_COUNT],
            delay_sum_rc: [0; CLASS_COUNT],
            slo_violations: [0; CLASS_COUNT],
            grants: 0,
            vc_stalls: 0,
            backlog_end: 0,
        }
    }

    fn snapshot(&self) -> WindowSnapshot {
        WindowSnapshot {
            index: self.index,
            start_cycle: self.start_cycle,
            end_cycle: self.end_cycle,
            grants: self.grants,
            vc_stalls: self.vc_stalls,
            backlog_end: self.backlog_end,
            classes: ALL_CLASSES
                .iter()
                .map(|&class| {
                    let i = class_index(class);
                    WindowClass {
                        class,
                        generated: self.generated[i],
                        delivered: self.delivered[i],
                        mean_delay_rc: if self.delivered[i] == 0 {
                            0.0
                        } else {
                            self.delay_sum_rc[i] as f64 / self.delivered[i] as f64
                        },
                        slo_violations: self.slo_violations[i],
                    }
                })
                .collect(),
        }
    }
}

/// One traffic class inside a [`WindowSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowClass {
    /// The traffic class.
    pub class: TrafficClass,
    /// Flits generated in the window.
    pub generated: u64,
    /// Flits delivered in the window.
    pub delivered: u64,
    /// Mean delivery delay in router cycles (0 when nothing delivered).
    pub mean_delay_rc: f64,
    /// Deliveries in the window that broke the observatory's delay bound
    /// (0 when the observatory is disarmed).
    pub slo_violations: u64,
}

/// One closed snapshot window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowSnapshot {
    /// Zero-based window number.
    pub index: u64,
    /// First flit cycle of the window.
    pub start_cycle: u64,
    /// Last flit cycle of the window (inclusive).
    pub end_cycle: u64,
    /// Crossbar grants issued during the window.
    pub grants: u64,
    /// Cycles × inputs where a head flit waited but the input went
    /// unmatched.
    pub vc_stalls: u64,
    /// Flits buffered (NICs + VC memory) at the end of the window.
    pub backlog_end: u64,
    /// Per-class throughput and delay for the window.
    pub classes: Vec<WindowClass>,
}

/// Everything telemetry observed over a run, in serializable form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Counter registry dump in registration order.
    pub counters: Vec<CounterSample>,
    /// Per-stage profiler dump in pipeline order.
    pub stages: Vec<StageSample>,
    /// Arbitration-kernel work counters (all zero for schedulers without
    /// a probe).
    pub kernel: KernelStats,
    /// Closed snapshot windows in order.
    pub windows: Vec<WindowSnapshot>,
    /// Windows lost to the snapshot-buffer cap.
    pub windows_dropped: u64,
    /// Trace events the flight recorder saw (including overwritten ones).
    pub trace_events_recorded: u64,
    /// Trace events still in the ring.
    pub trace_events_retained: u64,
    /// QoS observatory snapshot (`None` when the observatory is
    /// disarmed).
    pub observatory: Option<ObservatoryReport>,
}

impl TelemetryReport {
    /// Render this report as a Prometheus text exposition: counters,
    /// stage profile, kernel probe and observatory histograms.  `scale`
    /// converts router cycles to the exposed unit — pass the time base's
    /// `router_cycle_secs()` to expose seconds.  Performs no heap
    /// allocation once `out` has grown to its working size.
    pub fn write_prometheus(&self, out: &mut String, scale: f64) {
        expose::write_counters(
            out,
            "mmr",
            self.counters.iter().map(|c| (c.name.as_str(), c.value)),
        );
        expose::write_stages(
            out,
            "mmr",
            self.stages
                .iter()
                .map(|s| (s.name.as_str(), s.calls, s.work, s.wall_ns)),
        );
        expose::write_counters(
            out,
            "mmr_kernel",
            [
                ("matchings", self.kernel.matchings),
                ("grants", self.kernel.grants),
                ("candidates_examined", self.kernel.candidates_examined),
                ("conflicts_retired", self.kernel.conflicts_retired),
                ("iterations", self.kernel.iterations),
            ]
            .into_iter(),
        );
        if let Some(obs) = &self.observatory {
            write_observatory_prometheus(out, scale, obs);
        }
    }
}

/// One observatory histogram channel of a [`ClassObservation`].
type Channel = fn(&ClassObservation) -> &LogHistogram;

/// Observatory families: per-class histograms and SLO counters.
fn write_observatory_prometheus(out: &mut String, scale: f64, obs: &ObservatoryReport) {
    let channels: [(&str, &str, Channel); 3] = [
        (
            "mmr_delay_seconds",
            "End-to-end flit delay per traffic class.",
            |c| &c.delay,
        ),
        (
            "mmr_jitter_seconds",
            "Delay difference between consecutive deliveries of a connection.",
            |c| &c.jitter,
        ),
        (
            "mmr_residency_seconds",
            "VC-queue residency (router entry to crossbar exit).",
            |c| &c.residency,
        ),
    ];
    for (name, help, channel) in channels {
        expose::write_header(out, name, help, "histogram");
        for c in &obs.classes {
            expose::write_histogram(out, name, &[("class", c.class.label())], channel(c), scale);
        }
    }
    expose::write_header(
        out,
        "mmr_slo_violations_total",
        "Deliveries that broke the delay bound, per class.",
        "counter",
    );
    for c in &obs.classes {
        expose::write_sample(
            out,
            "mmr_slo_violations_total",
            &[("class", c.class.label())],
            c.slo_violations,
        );
    }
    expose::write_header(
        out,
        "mmr_slo_delay_bound_seconds",
        "The armed delay bound (0 = violation counting disabled).",
        "gauge",
    );
    let slo = &obs.slo;
    expose::write_sample_f64(
        out,
        "mmr_slo_delay_bound_seconds",
        &[],
        slo.delay_bound_rc as f64 * scale,
    );
    expose::write_counters(
        out,
        "mmr_slo",
        [
            ("violations_all_classes", slo.violations_total),
            (
                "best_effort_starved_windows",
                slo.best_effort_starved_windows,
            ),
            ("best_effort_starved_cycles", slo.best_effort_starved_cycles),
            ("windows_observed", slo.windows_observed),
        ]
        .into_iter(),
    );
}

/// Telemetry state owned by one fabric node (the single router's, when
/// armed).
///
/// All hooks early-return when disabled; the armed path touches only
/// pre-sized buffers.
#[derive(Debug)]
pub struct RouterTelemetry {
    enabled: bool,
    registry: Registry,
    counters: CounterIds,
    profiler: StageProfiler,
    stages: StageIds,
    recorder: FlightRecorder,
    windows: SnapshotRing<WindowAccum>,
    current: WindowAccum,
    interval: u64,
    observatory: Observatory,
}

impl std::fmt::Debug for CounterIds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CounterIds")
    }
}

impl std::fmt::Debug for StageIds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StageIds")
    }
}

impl RouterTelemetry {
    /// The default, disarmed state: every hook is a single branch.
    pub fn disabled() -> Self {
        let mut registry = Registry::disabled();
        let counters = CounterIds::register(&mut registry);
        let mut profiler = StageProfiler::disabled();
        let stages = StageIds::register(&mut profiler);
        RouterTelemetry {
            enabled: false,
            registry,
            counters,
            profiler,
            stages,
            recorder: FlightRecorder::disabled(),
            windows: SnapshotRing::with_capacity(0),
            current: WindowAccum::fresh(0, 0),
            interval: 0,
            observatory: Observatory::disabled(),
        }
    }

    /// An armed instance per `cfg` observing the given per-connection
    /// traffic classes.  All buffers are sized here; the per-cycle path
    /// never allocates.
    pub fn armed(cfg: TelemetryConfig, conn_classes: &[TrafficClass]) -> Self {
        let mut registry = Registry::new();
        let counters = CounterIds::register(&mut registry);
        let clock: Box<dyn Clock> = if cfg.wall_clock {
            Box::new(MonotonicClock::new())
        } else {
            Box::new(NullClock)
        };
        let mut profiler = StageProfiler::new(clock);
        let stages = StageIds::register(&mut profiler);
        RouterTelemetry {
            enabled: true,
            registry,
            counters,
            profiler,
            stages,
            recorder: FlightRecorder::new(cfg.trace_capacity),
            windows: SnapshotRing::with_capacity(MAX_SNAPSHOTS),
            current: WindowAccum::fresh(0, 0),
            interval: cfg.snapshot_interval,
            observatory: if cfg.observatory {
                Observatory::armed(cfg.slo_delay_bound_rc, conn_classes)
            } else {
                Observatory::disabled()
            },
        }
    }

    /// Whether the hooks record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The flight recorder (for dumping traces).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    // ---- step() hooks ----------------------------------------------------

    /// Timestamp for a stage about to run (0 when disarmed).
    #[inline]
    pub(crate) fn stage_begin(&self) -> u64 {
        self.profiler.begin()
    }

    #[inline]
    fn stage_end(&mut self, stage: StageId, t0: u64, work: u64) {
        if self.enabled {
            self.profiler.end(stage, t0, work);
        }
    }

    #[inline]
    pub(crate) fn end_source_gen(&mut self, t0: u64, flits: u64) {
        let s = self.stages.source_gen;
        self.stage_end(s, t0, flits);
    }

    #[inline]
    pub(crate) fn end_link_schedule(&mut self, t0: u64, candidates: u64) {
        let s = self.stages.link_schedule;
        self.stage_end(s, t0, candidates);
    }

    #[inline]
    pub(crate) fn end_arbitration(&mut self, t0: u64, grants: u64) {
        let s = self.stages.arbitration;
        self.stage_end(s, t0, grants);
    }

    #[inline]
    pub(crate) fn end_crossbar(&mut self, t0: u64, crossed: u64) {
        let s = self.stages.crossbar;
        self.stage_end(s, t0, crossed);
    }

    #[inline]
    pub(crate) fn end_delivery(&mut self, t0: u64, delivered: u64) {
        let s = self.stages.delivery;
        self.stage_end(s, t0, delivered);
    }

    #[inline]
    pub(crate) fn end_nic_forward(&mut self, t0: u64, forwarded: u64) {
        let s = self.stages.nic_forward;
        self.stage_end(s, t0, forwarded);
    }

    #[inline]
    pub(crate) fn end_credit_return(&mut self, t0: u64, returns: u64) {
        let s = self.stages.credit_return;
        self.stage_end(s, t0, returns);
        self.registry.add(self.counters.credits_returned, returns);
    }

    /// A crossbar grant was issued this cycle.
    #[inline]
    pub(crate) fn on_grant(&mut self, cycle: u64, input: usize, output: usize, vc: usize) {
        if !self.enabled {
            return;
        }
        self.registry.incr(self.counters.grants);
        self.current.grants += 1;
        self.recorder
            .record(TraceEvent::grant(cycle, input, output, vc));
    }

    /// An input had a head flit to offer but went unmatched.
    #[inline]
    pub(crate) fn on_vc_stall(&mut self, cycle: u64, input: usize, output: usize, vc: usize) {
        if !self.enabled {
            return;
        }
        self.registry.incr(self.counters.vc_stalls);
        self.current.vc_stalls += 1;
        self.recorder
            .record(TraceEvent::vc_stalled(cycle, input, output, vc));
    }

    /// A NIC spent a credit forwarding a flit onto its input link.
    #[inline]
    pub(crate) fn on_credit_consumed(&mut self, cycle: u64, conn: usize) {
        if !self.enabled {
            return;
        }
        self.registry.incr(self.counters.credits_consumed);
        self.recorder
            .record(TraceEvent::credit_consumed(cycle, conn));
    }

    /// A fault was caught (`detector`: 0 = ingress checksum, 1 =
    /// phantom-credit guard, 2 = watchdog resync).
    #[inline]
    pub(crate) fn on_fault_detected(&mut self, cycle: u64, detector: u32) {
        if !self.enabled {
            return;
        }
        self.registry.incr(self.counters.faults_detected);
        self.recorder
            .record(TraceEvent::fault_detected(cycle, detector));
    }

    /// A connection was quarantined by contract policing.
    #[inline]
    pub(crate) fn on_quarantine(&mut self, cycle: u64, conn: usize) {
        if !self.enabled {
            return;
        }
        self.registry.incr(self.counters.quarantines);
        self.recorder.record(TraceEvent::quarantined(cycle, conn));
    }

    /// A flit entered the system (source generation).
    #[inline]
    pub(crate) fn on_generated(&mut self, class: TrafficClass) {
        if !self.enabled {
            return;
        }
        self.current.generated[class_index(class)] += 1;
    }

    /// A flit on connection `conn` was delivered after `delay_rc` router
    /// cycles, having sat `residency_rc` router cycles in the VC queue.
    #[inline]
    pub(crate) fn on_delivered(
        &mut self,
        class: TrafficClass,
        conn: usize,
        delay_rc: u64,
        residency_rc: u64,
    ) {
        if !self.enabled {
            return;
        }
        let i = class_index(class);
        self.current.delivered[i] += 1;
        self.current.delay_sum_rc[i] += delay_rc;
        if self
            .observatory
            .on_delivered(conn, class, delay_rc, residency_rc)
        {
            self.current.slo_violations[i] += 1;
        }
    }

    /// Close the cycle: update gauges and roll the snapshot window when
    /// its interval elapses, accounting the closed window to the
    /// observatory's SLO tracker.
    #[inline]
    pub(crate) fn end_cycle(&mut self, cycle: u64, backlog: u64) {
        if !self.enabled {
            return;
        }
        self.registry.incr(self.counters.cycles);
        if backlog > self.registry.get(self.counters.backlog_peak) {
            self.registry.set_gauge(self.counters.backlog_peak, backlog);
        }
        self.current.end_cycle = cycle;
        if self.interval > 0 && (cycle + 1).is_multiple_of(self.interval) {
            self.current.backlog_end = backlog;
            let closed = self.current;
            let be = class_index(TrafficClass::BestEffort);
            self.observatory.on_window_close(
                closed.generated[be],
                closed.delivered[be],
                closed.end_cycle - closed.start_cycle + 1,
            );
            self.windows.push(closed);
            self.current = WindowAccum::fresh(closed.index + 1, cycle + 1);
        }
    }

    // ---- reporting -------------------------------------------------------

    /// Snapshot everything observed so far.  `kernel` comes from the
    /// scheduler's probe.  Allocates — report-time only.
    pub fn report(&self, kernel: KernelStats) -> TelemetryReport {
        TelemetryReport {
            counters: self.registry.samples(),
            stages: self.profiler.samples(),
            kernel,
            windows: self
                .windows
                .as_slice()
                .iter()
                .map(|w| w.snapshot())
                .collect(),
            windows_dropped: self.windows.dropped(),
            trace_events_recorded: self.recorder.recorded(),
            trace_events_retained: self.recorder.len() as u64,
            observatory: self.observatory.report(),
        }
    }
}

impl Default for RouterTelemetry {
    fn default() -> Self {
        RouterTelemetry::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_record_nothing() {
        let mut t = RouterTelemetry::disabled();
        t.on_grant(1, 0, 1, 2);
        t.on_generated(TrafficClass::Vbr);
        t.on_delivered(TrafficClass::Vbr, 0, 10, 4);
        t.end_cycle(0, 5);
        let rep = t.report(KernelStats::default());
        assert!(rep.counters.iter().all(|c| c.value == 0));
        assert!(rep.windows.is_empty());
        assert_eq!(rep.trace_events_recorded, 0);
        assert!(rep.observatory.is_none());
    }

    #[test]
    fn windows_roll_on_interval() {
        let mut t = RouterTelemetry::armed(
            TelemetryConfig {
                snapshot_interval: 10,
                ..Default::default()
            },
            &[TrafficClass::CbrHigh],
        );
        for cycle in 0..25u64 {
            t.on_grant(cycle, 0, 1, 0);
            t.on_generated(TrafficClass::CbrHigh);
            t.on_delivered(TrafficClass::CbrHigh, 0, 4, 2);
            t.end_cycle(cycle, 3);
        }
        let rep = t.report(KernelStats::default());
        assert_eq!(rep.windows.len(), 2, "cycles 0..19 close two windows");
        let w0 = &rep.windows[0];
        assert_eq!(w0.start_cycle, 0);
        assert_eq!(w0.end_cycle, 9);
        assert_eq!(w0.grants, 10);
        assert_eq!(w0.backlog_end, 3);
        let high = w0
            .classes
            .iter()
            .find(|c| c.class == TrafficClass::CbrHigh)
            .unwrap();
        assert_eq!(high.generated, 10);
        assert_eq!(high.delivered, 10);
        assert!((high.mean_delay_rc - 4.0).abs() < 1e-12);
        assert_eq!(rep.windows[1].start_cycle, 10);
    }

    #[test]
    fn counters_and_trace_accumulate() {
        let mut t = RouterTelemetry::armed(TelemetryConfig::default(), &[]);
        t.on_grant(5, 1, 2, 3);
        t.on_vc_stall(5, 0, 2, 1);
        t.on_credit_consumed(6, 9);
        t.on_fault_detected(7, 2);
        t.on_quarantine(8, 4);
        let rep = t.report(KernelStats::default());
        let get = |name: &str| {
            rep.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap()
        };
        assert_eq!(get("grants_issued"), 1);
        assert_eq!(get("vc_stalls"), 1);
        assert_eq!(get("credits_consumed"), 1);
        assert_eq!(get("faults_detected"), 1);
        assert_eq!(get("connections_quarantined"), 1);
        assert_eq!(rep.trace_events_recorded, 5);
        assert_eq!(rep.trace_events_retained, 5);
    }

    #[test]
    fn observatory_violations_land_in_windows() {
        let mut t = RouterTelemetry::armed(
            TelemetryConfig {
                snapshot_interval: 10,
                slo_delay_bound_rc: 100,
                ..Default::default()
            },
            &[TrafficClass::CbrHigh, TrafficClass::BestEffort],
        );
        for cycle in 0..10u64 {
            t.on_generated(TrafficClass::BestEffort);
            // One compliant and one violating delivery, plus starving BE.
            t.on_delivered(TrafficClass::CbrHigh, 0, 50, 10);
            t.on_delivered(TrafficClass::CbrHigh, 0, 500, 10);
            t.end_cycle(cycle, 1);
        }
        let rep = t.report(KernelStats::default());
        let w = &rep.windows[0];
        let high = w
            .classes
            .iter()
            .find(|c| c.class == TrafficClass::CbrHigh)
            .unwrap();
        assert_eq!(high.slo_violations, 10);
        let obs = rep.observatory.expect("observatory armed by default");
        assert_eq!(obs.slo.violations_total, 10);
        assert_eq!(obs.slo.best_effort_starved_windows, 1);
        assert_eq!(obs.slo.best_effort_starved_cycles, 10);
        assert_eq!(obs.slo.windows_observed, 1);
        let high_obs = obs
            .classes
            .iter()
            .find(|c| c.class == TrafficClass::CbrHigh)
            .unwrap();
        assert_eq!(high_obs.delay.count(), 20);
        assert_eq!(high_obs.residency.count(), 20);
        assert_eq!(high_obs.jitter.count(), 19);
    }

    #[test]
    fn observatory_opt_out_leaves_reports_bare() {
        let mut t = RouterTelemetry::armed(
            TelemetryConfig {
                observatory: false,
                ..Default::default()
            },
            &[TrafficClass::Vbr],
        );
        t.on_delivered(TrafficClass::Vbr, 0, 10_000, 5);
        let rep = t.report(KernelStats::default());
        assert!(rep.observatory.is_none());
    }

    #[test]
    fn report_exposition_validates_and_covers_the_observatory() {
        let mut t = RouterTelemetry::armed(
            TelemetryConfig {
                snapshot_interval: 10,
                slo_delay_bound_rc: 100,
                ..Default::default()
            },
            &[TrafficClass::CbrHigh, TrafficClass::BestEffort],
        );
        for cycle in 0..30u64 {
            t.on_generated(TrafficClass::CbrHigh);
            t.on_delivered(TrafficClass::CbrHigh, 0, 40 + cycle * 7, 9);
            t.on_delivered(TrafficClass::BestEffort, 1, 300, 250);
            t.end_cycle(cycle, 2);
        }
        let kernel = KernelStats {
            matchings: 30,
            grants: 60,
            candidates_examined: 90,
            conflicts_retired: 10,
            iterations: 30,
        };
        let mut prom = String::new();
        t.report(kernel).write_prometheus(&mut prom, 1e-6);
        let stats =
            mmr_sim::telemetry::validate_exposition(&prom).expect("generated exposition validates");
        assert!(stats.families > 10);
        assert!(prom.contains("mmr_delay_seconds_bucket{class=\"cbr-high\""));
        assert!(prom.contains("mmr_slo_violations_total{class=\"cbr-high\"}"));
        assert!(prom.contains("mmr_kernel_grants 60"));
    }
}
