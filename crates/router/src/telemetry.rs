//! Router-side telemetry: what an armed `MmrRouter` observes.
//!
//! An armed [`RouterTelemetry`] holds, for one router instance, plain
//! fixed-size state indexed at compile time:
//!
//! * eight counters (grants, stalls, credits, faults …), one `u64` slot
//!   per `Counter`, reported under the names in `COUNTER_NAMES`;
//! * calls, work and wall time per `Stage` `FabricNode::step_cycle`
//!   runs on its `SwitchCore` (source generation, link scheduling,
//!   arbitration, crossbar traversal, delivery, NIC forwarding, credit
//!   return);
//! * a [`FlightRecorder`] ring of binary [`TraceEvent`]s (grants, VC
//!   stalls, credit consumption, fault detections, quarantines);
//! * per-class window accumulators closed every [`SNAPSHOT_INTERVAL`]
//!   flit cycles into a buffer of 512 (`MAX_SNAPSHOTS`), feeding a report
//!   of occupancy/throughput/delay snapshots (later windows are counted
//!   as dropped);
//! * the QoS [`Observatory`], tracking delay against
//!   [`SLO_DELAY_BOUND_RC`].
//!
//! Arming is the only switch: an unarmed router's telemetry is an empty
//! `Option` and holds none of these pieces, so each hook costs it one
//! well-predicted branch; the armed path allocates nothing per cycle
//! (all buffers are pre-sized).
//! No hook touches the RNG, so arming telemetry can never perturb
//! simulation results, only observe them; stage wall time stays zero
//! unless [`TelemetryConfig::wall_clock`] opts into real time, so its
//! reports replay bit for bit.

use crate::metrics::{class_index, ALL_CLASSES, CLASS_COUNT};
use crate::observatory::{ClassObservation, Observatory, ObservatoryReport};
use mmr_arbiter::scheduler::KernelStats;
use mmr_sim::stats::LogHistogram;
use mmr_sim::telemetry::{expose, FlightRecorder, TraceEvent};
use mmr_traffic::connection::TrafficClass;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Snapshot windows an armed router retains; later windows are counted
/// as dropped.
const MAX_SNAPSHOTS: usize = 512;

/// Flit cycles per snapshot window.
pub const SNAPSHOT_INTERVAL: u64 = 1_000;

/// Events the flight recorder retains.
pub const TRACE_CAPACITY: usize = 4_096;

/// Delay SLO bound in router cycles, applied to guaranteed classes
/// (CBR/VBR; best-effort is exempt).  It sits a few multiples above the
/// Fig. 5 mean delays at 0.7 load, so violations flag genuine tail
/// excursions.
pub const SLO_DELAY_BOUND_RC: u64 = 4_096;

/// How a router's telemetry should be armed (serialized in a
/// `SimConfig` as `mmr_core::config::TelemetrySpec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Measure stage wall time with a real monotonic clock.  Off by
    /// default: every stage then reports zero wall time, keeping reports
    /// bit-deterministic.
    pub wall_clock: bool,
}

impl TelemetryConfig {
    /// Identity, kept only for the benchmark's pinned surface
    /// (`benchmark/src/sut.rs`), which arms routers through
    /// `TelemetrySpec::to_config`.
    pub fn to_config(self) -> TelemetryConfig {
        self
    }
}

/// Pipeline stages of `FabricNode::step_cycle`, in execution order
/// (the order the report lists them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    SourceGen,
    LinkSchedule,
    Arbitration,
    Crossbar,
    Delivery,
    NicForward,
    CreditReturn,
}

/// Report names of the [`Stage`]s, indexed by discriminant.
const STAGE_NAMES: [&str; 7] = [
    "source-gen",
    "link-schedule",
    "arbitration",
    "crossbar",
    "delivery",
    "nic-forward",
    "credit-return",
];

/// The router's counters, in report order.
enum Counter {
    Cycles,
    Grants,
    VcStalls,
    CreditsConsumed,
    CreditsReturned,
    FaultsDetected,
    Quarantines,
    /// A gauge: the largest backlog seen at the end of a cycle.
    BacklogPeak,
}

/// Report names of the [`Counter`]s, indexed by discriminant.
const COUNTER_NAMES: [&str; 8] = [
    "cycles",
    "grants_issued",
    "vc_stalls",
    "credits_consumed",
    "credits_returned",
    "faults_detected",
    "connections_quarantined",
    "backlog_peak_flits",
];

/// One named counter value in a report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Accumulated figures for one pipeline stage, as reported.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSample {
    /// Stage name.
    pub name: String,
    /// Times the stage executed.
    pub calls: u64,
    /// Logical work units accumulated across calls (candidates offered,
    /// flits moved, credits returned …).
    pub work: u64,
    /// Wall nanoseconds accumulated across calls (zero unless armed with
    /// [`TelemetryConfig::wall_clock`]).
    pub wall_ns: u64,
}

/// One stage's running figures (see [`StageSample`]).
#[derive(Debug, Clone, Copy, Default)]
struct StageAcc {
    calls: u64,
    work: u64,
    wall_ns: u64,
}

/// Report samples of the counter values, in [`COUNTER_NAMES`] order.
fn counter_samples(values: &[u64; COUNTER_NAMES.len()]) -> Vec<CounterSample> {
    COUNTER_NAMES
        .iter()
        .zip(values)
        .map(|(name, &value)| CounterSample {
            name: name.to_string(),
            value,
        })
        .collect()
}

/// Report samples of the stage figures, in [`STAGE_NAMES`] order.
fn stage_samples(stages: &[StageAcc; STAGE_NAMES.len()]) -> Vec<StageSample> {
    STAGE_NAMES
        .iter()
        .zip(stages)
        .map(|(name, s)| StageSample {
            name: name.to_string(),
            calls: s.calls,
            work: s.work,
            wall_ns: s.wall_ns,
        })
        .collect()
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
    /// Deliveries in the window that broke the observatory's delay
    /// bound.
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
    /// Counters in a fixed order (cycles first, the backlog gauge last).
    pub counters: Vec<CounterSample>,
    /// Per-stage figures in pipeline order.
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
    /// QoS observatory snapshot (`None` for an unarmed router).
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
        expose::write_header_parts(out, &[name], help, "histogram");
        for c in &obs.classes {
            expose::write_histogram(out, name, &[("class", c.class.label())], channel(c), scale);
        }
    }
    expose::write_header_parts(
        out,
        &["mmr_slo_violations_total"],
        "Deliveries that broke the delay bound, per class.",
        "counter",
    );
    for c in &obs.classes {
        expose::write_sample_parts(
            out,
            &["mmr_slo_violations_total"],
            &[("class", c.class.label())],
            c.slo_violations,
        );
    }
    expose::write_header_parts(
        out,
        &["mmr_slo_delay_bound_seconds"],
        "The armed delay bound (0 = violation counting disabled).",
        "gauge",
    );
    let slo = &obs.slo;
    expose::write_sample_f64_parts(
        out,
        &["mmr_slo_delay_bound_seconds"],
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

/// Telemetry of one fabric node: nothing unless armed (only the single
/// router arms it).  Every hook is one test of the `Option`; the armed
/// path touches only pre-sized buffers.
#[derive(Debug, Default)]
pub struct RouterTelemetry(Option<Box<Armed>>);

/// Everything an armed router observes with.
#[derive(Debug)]
struct Armed {
    counters: [u64; COUNTER_NAMES.len()],
    stages: [StageAcc; STAGE_NAMES.len()],
    /// Origin of stage timestamps; `None` unless armed with
    /// [`TelemetryConfig::wall_clock`], and then every timestamp is 0.
    origin: Option<Instant>,
    recorder: FlightRecorder,
    /// Closed windows, at most [`MAX_SNAPSHOTS`] (reserved at arm time).
    windows: Vec<WindowAccum>,
    /// Closed windows that found the buffer full.
    windows_dropped: u64,
    current: WindowAccum,
    observatory: Observatory,
}

impl RouterTelemetry {
    /// An armed instance per `cfg` observing the given per-connection
    /// traffic classes.  All buffers are sized here; the per-cycle path
    /// never allocates.
    pub fn armed(cfg: TelemetryConfig, conn_classes: &[TrafficClass]) -> Self {
        RouterTelemetry(Some(Box::new(Armed {
            counters: [0; COUNTER_NAMES.len()],
            stages: [StageAcc::default(); STAGE_NAMES.len()],
            origin: cfg.wall_clock.then(Instant::now),
            recorder: FlightRecorder::new(TRACE_CAPACITY),
            windows: Vec::with_capacity(MAX_SNAPSHOTS),
            windows_dropped: 0,
            current: WindowAccum::fresh(0, 0),
            observatory: Observatory::armed(SLO_DELAY_BOUND_RC, conn_classes),
        })))
    }

    /// Whether the router is armed (the hooks record anything).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The flight recorder (for dumping traces); `None` when unarmed.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.0.as_ref().map(|a| &a.recorder)
    }

    // ---- step() hooks ----------------------------------------------------

    /// Timestamp for a stage about to run: nanoseconds since arming, or 0
    /// when unarmed or armed without a wall clock.
    #[inline]
    pub(crate) fn stage_begin(&self) -> u64 {
        self.0.as_ref().map_or(0, |a| elapsed_ns(a.origin))
    }

    /// Close `stage`, opened at `t0`, crediting it `work` units (the
    /// credit-return stage also counts its returns as
    /// `credits_returned`).
    #[inline]
    pub(crate) fn stage_end(&mut self, stage: Stage, t0: u64, work: u64) {
        if let Some(a) = &mut self.0 {
            let s = &mut a.stages[stage as usize];
            s.calls += 1;
            s.work += work;
            s.wall_ns += elapsed_ns(a.origin).saturating_sub(t0);
            if stage == Stage::CreditReturn {
                a.counters[Counter::CreditsReturned as usize] += work;
            }
        }
    }

    /// A crossbar grant was issued this cycle.
    #[inline]
    pub(crate) fn on_grant(&mut self, cycle: u64, input: usize, output: usize, vc: usize) {
        if let Some(a) = &mut self.0 {
            a.counters[Counter::Grants as usize] += 1;
            a.current.grants += 1;
            a.recorder
                .record(TraceEvent::grant(cycle, input, output, vc));
        }
    }

    /// An input had a head flit to offer but went unmatched.
    #[inline]
    pub(crate) fn on_vc_stall(&mut self, cycle: u64, input: usize, output: usize, vc: usize) {
        if let Some(a) = &mut self.0 {
            a.counters[Counter::VcStalls as usize] += 1;
            a.current.vc_stalls += 1;
            a.recorder
                .record(TraceEvent::vc_stalled(cycle, input, output, vc));
        }
    }

    /// A NIC spent a credit forwarding a flit onto its input link.
    #[inline]
    pub(crate) fn on_credit_consumed(&mut self, cycle: u64, conn: usize) {
        if let Some(a) = &mut self.0 {
            a.counters[Counter::CreditsConsumed as usize] += 1;
            a.recorder.record(TraceEvent::credit_consumed(cycle, conn));
        }
    }

    /// A fault was caught (`detector`: 0 = ingress checksum, 1 =
    /// phantom-credit guard, 2 = watchdog resync).
    #[inline]
    pub(crate) fn on_fault_detected(&mut self, cycle: u64, detector: u32) {
        if let Some(a) = &mut self.0 {
            a.counters[Counter::FaultsDetected as usize] += 1;
            a.recorder
                .record(TraceEvent::fault_detected(cycle, detector));
        }
    }

    /// A connection was quarantined by contract policing.
    #[inline]
    pub(crate) fn on_quarantine(&mut self, cycle: u64, conn: usize) {
        if let Some(a) = &mut self.0 {
            a.counters[Counter::Quarantines as usize] += 1;
            a.recorder.record(TraceEvent::quarantined(cycle, conn));
        }
    }

    /// A flit entered the system (source generation).
    #[inline]
    pub(crate) fn on_generated(&mut self, class: TrafficClass) {
        if let Some(a) = &mut self.0 {
            a.current.generated[class_index(class)] += 1;
        }
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
        let Some(a) = &mut self.0 else {
            return;
        };
        let i = class_index(class);
        a.current.delivered[i] += 1;
        a.current.delay_sum_rc[i] += delay_rc;
        if a.observatory
            .on_delivered(conn, class, delay_rc, residency_rc)
        {
            a.current.slo_violations[i] += 1;
        }
    }

    /// Close the cycle: update gauges and roll the snapshot window when
    /// its interval elapses, accounting the closed window to the
    /// observatory's SLO tracker.
    #[inline]
    pub(crate) fn end_cycle(&mut self, cycle: u64, backlog: u64) {
        let Some(a) = &mut self.0 else {
            return;
        };
        a.counters[Counter::Cycles as usize] += 1;
        let peak = &mut a.counters[Counter::BacklogPeak as usize];
        *peak = (*peak).max(backlog);
        a.current.end_cycle = cycle;
        if (cycle + 1).is_multiple_of(SNAPSHOT_INTERVAL) {
            a.current.backlog_end = backlog;
            let closed = a.current;
            let be = class_index(TrafficClass::BestEffort);
            a.observatory.on_window_close(
                closed.generated[be],
                closed.delivered[be],
                closed.end_cycle - closed.start_cycle + 1,
            );
            if a.windows.len() < MAX_SNAPSHOTS {
                a.windows.push(closed);
            } else {
                a.windows_dropped += 1;
            }
            a.current = WindowAccum::fresh(closed.index + 1, cycle + 1);
        }
    }

    // ---- reporting -------------------------------------------------------

    /// Snapshot everything observed so far.  `kernel` comes from the
    /// scheduler's probe.  An unarmed router reports what a freshly armed
    /// one would before its first cycle: every counter and stage at zero,
    /// no kernel work, no trace and no observatory.  Allocates —
    /// report-time only.
    pub fn report(&self, kernel: KernelStats) -> TelemetryReport {
        let Some(a) = &self.0 else {
            return TelemetryReport {
                counters: counter_samples(&[0; COUNTER_NAMES.len()]),
                stages: stage_samples(&[StageAcc::default(); STAGE_NAMES.len()]),
                kernel: KernelStats::default(),
                windows: Vec::new(),
                windows_dropped: 0,
                trace_events_recorded: 0,
                trace_events_retained: 0,
                observatory: None,
            };
        };
        TelemetryReport {
            counters: counter_samples(&a.counters),
            stages: stage_samples(&a.stages),
            kernel,
            windows: a.windows.iter().map(WindowAccum::snapshot).collect(),
            windows_dropped: a.windows_dropped,
            trace_events_recorded: a.recorder.recorded(),
            trace_events_retained: a.recorder.len() as u64,
            observatory: Some(a.observatory.report()),
        }
    }
}

/// Nanoseconds since `origin`, or 0 without one.
#[inline]
fn elapsed_ns(origin: Option<Instant>) -> u64 {
    origin.map_or(0, |o| o.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_record_nothing() {
        let mut t = RouterTelemetry::default();
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
    fn stage_brackets_accumulate_calls_and_work() {
        let mut t = RouterTelemetry::armed(TelemetryConfig::default(), &[]);
        for _ in 0..3 {
            let t0 = t.stage_begin();
            t.stage_end(Stage::Arbitration, t0, 4);
        }
        let t0 = t.stage_begin();
        assert_eq!(t0, 0, "no wall clock: timestamps are zero");
        t.stage_end(Stage::CreditReturn, t0, 5);
        let rep = t.report(KernelStats::default());
        let names: Vec<&str> = rep.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, STAGE_NAMES);
        let stage = |name: &str| rep.stages.iter().find(|s| s.name == name).unwrap();
        assert_eq!(
            (stage("arbitration").calls, stage("arbitration").work),
            (3, 12)
        );
        assert_eq!(
            (stage("credit-return").calls, stage("credit-return").work),
            (1, 5)
        );
        assert_eq!(stage("crossbar").calls, 0);
        assert!(rep.stages.iter().all(|s| s.wall_ns == 0));
        let returned = rep.counters.iter().find(|c| c.name == "credits_returned");
        assert_eq!(returned.unwrap().value, 5, "credit returns are counted too");
    }

    #[test]
    fn windows_roll_on_interval() {
        let mut t = RouterTelemetry::armed(TelemetryConfig::default(), &[TrafficClass::CbrHigh]);
        for cycle in 0..2_500u64 {
            t.on_grant(cycle, 0, 1, 0);
            t.on_generated(TrafficClass::CbrHigh);
            t.on_delivered(TrafficClass::CbrHigh, 0, 4, 2);
            t.end_cycle(cycle, 3);
        }
        let rep = t.report(KernelStats::default());
        assert_eq!(rep.windows.len(), 2, "cycles 0..1999 close two windows");
        let w0 = &rep.windows[0];
        assert_eq!(w0.start_cycle, 0);
        assert_eq!(w0.end_cycle, 999);
        assert_eq!(w0.grants, 1_000);
        assert_eq!(w0.backlog_end, 3);
        let high = w0
            .classes
            .iter()
            .find(|c| c.class == TrafficClass::CbrHigh)
            .unwrap();
        assert_eq!(high.generated, 1_000);
        assert_eq!(high.delivered, 1_000);
        assert!((high.mean_delay_rc - 4.0).abs() < 1e-12);
        assert_eq!(rep.windows[1].start_cycle, 1_000);
    }

    #[test]
    fn counters_and_trace_accumulate() {
        let mut t = RouterTelemetry::armed(TelemetryConfig::default(), &[]);
        t.on_grant(5, 1, 2, 3);
        t.on_vc_stall(5, 0, 2, 1);
        t.on_credit_consumed(6, 9);
        t.on_fault_detected(7, 2);
        t.on_quarantine(8, 4);
        t.end_cycle(8, 7);
        t.end_cycle(9, 3);
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
        assert_eq!(get("cycles"), 2);
        assert_eq!(get("backlog_peak_flits"), 7, "the gauge keeps the peak");
        assert_eq!(get("credits_returned"), 0);
        let names: Vec<&str> = rep.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, COUNTER_NAMES);
        assert_eq!(rep.trace_events_recorded, 5);
        assert_eq!(rep.trace_events_retained, 5);
    }

    #[test]
    fn observatory_violations_land_in_windows() {
        let mut t = RouterTelemetry::armed(
            TelemetryConfig::default(),
            &[TrafficClass::CbrHigh, TrafficClass::BestEffort],
        );
        for cycle in 0..SNAPSHOT_INTERVAL {
            t.on_generated(TrafficClass::BestEffort);
            // One compliant and one violating delivery, plus starving BE.
            t.on_delivered(TrafficClass::CbrHigh, 0, 50, 10);
            t.on_delivered(TrafficClass::CbrHigh, 0, SLO_DELAY_BOUND_RC + 1, 10);
            t.end_cycle(cycle, 1);
        }
        let rep = t.report(KernelStats::default());
        let w = &rep.windows[0];
        let high = w
            .classes
            .iter()
            .find(|c| c.class == TrafficClass::CbrHigh)
            .unwrap();
        assert_eq!(high.slo_violations, 1_000);
        let obs = rep
            .observatory
            .expect("an armed router keeps an observatory");
        assert_eq!(obs.slo.violations_total, 1_000);
        assert_eq!(obs.slo.best_effort_starved_windows, 1);
        assert_eq!(obs.slo.best_effort_starved_cycles, 1_000);
        assert_eq!(obs.slo.windows_observed, 1);
        let high_obs = obs
            .classes
            .iter()
            .find(|c| c.class == TrafficClass::CbrHigh)
            .unwrap();
        assert_eq!(high_obs.delay.count(), 2_000);
        assert_eq!(high_obs.residency.count(), 2_000);
        assert_eq!(high_obs.jitter.count(), 1_999);
    }

    #[test]
    fn report_exposition_validates_and_covers_the_observatory() {
        let mut t = RouterTelemetry::armed(
            TelemetryConfig::default(),
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
