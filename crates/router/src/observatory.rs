//! The QoS observatory: distribution-grade telemetry for one router.
//!
//! The paper's argument is distributional — Figs. 5/9 compare average
//! *and worst-case* delay per traffic class — so scalar counters are not
//! enough.  The observatory records three [`LogHistogram`] channels per
//! traffic class (end-to-end delay, inter-flit jitter, VC-queue
//! residency) plus a per-connection delay histogram (one
//! [`LogHistogramBank`] row per connection), and tracks SLO
//! compliance against a delay bound:
//!
//! * **Delay-bound violations** — deliveries of guaranteed-class flits
//!   (CBR/VBR; best-effort carries no bound) later than
//!   `delay_bound_rc`, counted per class, per connection, and per
//!   telemetry window.
//! * **Best-effort starvation** — telemetry windows in which best-effort
//!   flits were generated but none were delivered, accumulated in
//!   windows and cycles.
//!
//! Every armed router has one observatory, bound by
//! `telemetry::SLO_DELAY_BOUND_RC`; it has no "off" mode.  Everything is
//! sized at arm time and the per-delivery path touches only
//! pre-allocated buffers (histogram slot adds and a few compares), so it
//! is allocation-free and perturbation-free.

use crate::metrics::{class_index, ALL_CLASSES, CLASS_COUNT};
use mmr_sim::stats::{LogHistogram, LogHistogramBank};
use mmr_traffic::connection::TrafficClass;
use serde::{Deserialize, Serialize};

/// Sentinel for "no previous delay recorded on this connection".
const NO_DELAY: u64 = u64::MAX;

/// Distribution channels and SLO counters for one traffic class, as
/// reported.  Histogram values are router cycles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassObservation {
    /// The traffic class.
    pub class: TrafficClass,
    /// End-to-end delay (generation to delivery), router cycles.
    pub delay: LogHistogram,
    /// Absolute delay difference between consecutive deliveries of the
    /// same connection, router cycles.
    pub jitter: LogHistogram,
    /// VC-queue residency (router entry to crossbar exit), router cycles.
    pub residency: LogHistogram,
    /// Deliveries that broke the delay bound (always 0 for best-effort).
    pub slo_violations: u64,
}

/// Per-connection delay summary, distilled from the connection's delay
/// histogram at report time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnectionObservation {
    /// Global connection index.
    pub connection: u32,
    /// The connection's traffic class.
    pub class: TrafficClass,
    /// Flits delivered.
    pub delivered: u64,
    /// Exact mean delay, router cycles.
    pub mean_delay_rc: f64,
    /// Median delay (bucket midpoint), router cycles.
    pub p50_delay_rc: u64,
    /// 99th-percentile delay (bucket midpoint), router cycles.
    pub p99_delay_rc: u64,
    /// Worst delay, router cycles (exact).
    pub max_delay_rc: u64,
    /// Deliveries that broke the delay bound.
    pub slo_violations: u64,
}

/// Aggregate SLO figures for a run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloSummary {
    /// The armed delay bound in router cycles.
    pub delay_bound_rc: u64,
    /// Total delay-bound violations across guaranteed classes.
    pub violations_total: u64,
    /// Telemetry windows in which best-effort generated flits but
    /// delivered none.
    pub best_effort_starved_windows: u64,
    /// Cycles spent inside those starved windows.
    pub best_effort_starved_cycles: u64,
    /// Telemetry windows the observatory has seen close.
    pub windows_observed: u64,
}

/// Everything the observatory saw, in serializable form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservatoryReport {
    /// Per-class channels, in [`ALL_CLASSES`] order.
    pub classes: Vec<ClassObservation>,
    /// Per-connection summaries for connections that delivered at least
    /// one flit, in connection order.
    pub connections: Vec<ConnectionObservation>,
    /// Aggregate SLO figures.
    pub slo: SloSummary,
}

/// Live observatory state owned by a [`crate::telemetry::RouterTelemetry`].
#[derive(Debug)]
pub struct Observatory {
    delay_bound_rc: u64,
    // Per-class channels, indexed by `class_index`.
    class_delay: Vec<LogHistogram>,
    class_jitter: Vec<LogHistogram>,
    class_residency: Vec<LogHistogram>,
    class_violations: [u64; CLASS_COUNT],
    // Per-connection state, indexed by global connection index.
    conn_class: Vec<TrafficClass>,
    conn_delay: LogHistogramBank,
    conn_last_delay: Vec<u64>,
    conn_violations: Vec<u64>,
    // SLO window tracking.
    be_starved_windows: u64,
    be_starved_cycles: u64,
    windows_observed: u64,
}

impl Observatory {
    /// Arm for `conn_classes.len()` connections.  Every buffer — one
    /// histogram per class channel, one bank row per connection — is
    /// allocated here; the record path never allocates.
    pub fn armed(delay_bound_rc: u64, conn_classes: &[TrafficClass]) -> Self {
        let n = conn_classes.len();
        Observatory {
            delay_bound_rc,
            class_delay: (0..CLASS_COUNT).map(|_| LogHistogram::default()).collect(),
            class_jitter: (0..CLASS_COUNT).map(|_| LogHistogram::default()).collect(),
            class_residency: (0..CLASS_COUNT).map(|_| LogHistogram::default()).collect(),
            class_violations: [0; CLASS_COUNT],
            conn_class: conn_classes.to_vec(),
            conn_delay: LogHistogramBank::new(n),
            conn_last_delay: vec![NO_DELAY; n],
            conn_violations: vec![0; n],
            be_starved_windows: 0,
            be_starved_cycles: 0,
            windows_observed: 0,
        }
    }

    /// Record one delivery.  Returns `true` when it violated the delay
    /// bound (guaranteed classes only), so the caller can account it in
    /// the current telemetry window.
    #[inline]
    pub fn on_delivered(
        &mut self,
        conn: usize,
        class: TrafficClass,
        delay_rc: u64,
        residency_rc: u64,
    ) -> bool {
        let i = class_index(class);
        self.class_delay[i].record(delay_rc);
        self.class_residency[i].record(residency_rc);
        self.conn_delay.record(conn, delay_rc);
        let last = self.conn_last_delay[conn];
        if last != NO_DELAY {
            self.class_jitter[i].record(delay_rc.abs_diff(last));
        }
        self.conn_last_delay[conn] = delay_rc;
        let violated = class != TrafficClass::BestEffort && delay_rc > self.delay_bound_rc;
        if violated {
            self.class_violations[i] += 1;
            self.conn_violations[conn] += 1;
        }
        violated
    }

    /// A telemetry window closed with the given best-effort per-window
    /// throughput.  `window_cycles` is the window length in flit cycles.
    #[inline]
    pub fn on_window_close(&mut self, be_generated: u64, be_delivered: u64, window_cycles: u64) {
        self.windows_observed += 1;
        if be_generated > 0 && be_delivered == 0 {
            self.be_starved_windows += 1;
            self.be_starved_cycles += window_cycles;
        }
    }

    /// Aggregate SLO figures so far.
    pub fn slo_summary(&self) -> SloSummary {
        SloSummary {
            delay_bound_rc: self.delay_bound_rc,
            violations_total: self.class_violations.iter().sum(),
            best_effort_starved_windows: self.be_starved_windows,
            best_effort_starved_cycles: self.be_starved_cycles,
            windows_observed: self.windows_observed,
        }
    }

    /// Snapshot everything observed.  Allocates — report-time only.
    pub fn report(&self) -> ObservatoryReport {
        let classes = ALL_CLASSES
            .iter()
            .map(|&class| {
                let i = class_index(class);
                ClassObservation {
                    class,
                    delay: self.class_delay[i].clone(),
                    jitter: self.class_jitter[i].clone(),
                    residency: self.class_residency[i].clone(),
                    slo_violations: self.class_violations[i],
                }
            })
            .collect();
        let connections = (0..self.conn_delay.rows())
            .filter(|&conn| self.conn_delay.count(conn) > 0)
            .map(|conn| {
                let h = self.conn_delay.row(conn);
                ConnectionObservation {
                    connection: conn as u32,
                    class: self.conn_class[conn],
                    delivered: h.count(),
                    mean_delay_rc: h.mean(),
                    p50_delay_rc: h.quantile(0.5).unwrap_or(0),
                    p99_delay_rc: h.quantile(0.99).unwrap_or(0),
                    max_delay_rc: h.max(),
                    slo_violations: self.conn_violations[conn],
                }
            })
            .collect();
        ObservatoryReport {
            classes,
            connections,
            slo: self.slo_summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: TrafficClass = TrafficClass::CbrHigh;

    #[test]
    fn delay_jitter_and_residency_channels_fill() {
        let mut o = Observatory::armed(1_000, &[C, TrafficClass::BestEffort]);
        o.on_delivered(0, C, 100, 40);
        o.on_delivered(0, C, 130, 45);
        o.on_delivered(1, TrafficClass::BestEffort, 900, 800);
        let rep = o.report();
        let high = rep.classes.iter().find(|c| c.class == C).unwrap();
        assert_eq!(high.delay.count(), 2);
        assert_eq!(high.residency.count(), 2);
        assert_eq!(
            high.jitter.count(),
            1,
            "second delivery yields one jitter sample"
        );
        assert_eq!(high.jitter.max(), 30);
        assert_eq!(rep.connections.len(), 2);
        assert_eq!(rep.connections[0].delivered, 2);
        assert_eq!(rep.connections[0].max_delay_rc, 130);
    }

    #[test]
    fn jitter_chains_are_per_connection() {
        // Two connections of the same class interleaved: jitter must
        // compare each delivery with the same connection's previous one,
        // not the class's.
        let mut o = Observatory::armed(1_000, &[C, C]);
        o.on_delivered(0, C, 100, 0);
        o.on_delivered(1, C, 500, 0);
        o.on_delivered(0, C, 110, 0);
        o.on_delivered(1, C, 480, 0);
        let rep = o.report();
        let high = rep.classes.iter().find(|c| c.class == C).unwrap();
        assert_eq!(high.jitter.count(), 2);
        assert_eq!(high.jitter.max(), 20, "chains are |110-100| and |480-500|");
    }

    #[test]
    fn delay_bound_violations_spare_best_effort() {
        let mut o = Observatory::armed(200, &[C, TrafficClass::BestEffort]);
        assert!(!o.on_delivered(0, C, 200, 0), "at the bound is compliant");
        assert!(o.on_delivered(0, C, 201, 0));
        assert!(
            !o.on_delivered(1, TrafficClass::BestEffort, 10_000, 0),
            "best-effort carries no delay bound"
        );
        let slo = o.slo_summary();
        assert_eq!(slo.violations_total, 1);
        let rep = o.report();
        assert_eq!(rep.connections[0].slo_violations, 1);
        assert_eq!(rep.connections[1].slo_violations, 0);
    }

    #[test]
    fn best_effort_starvation_counts_windows_and_cycles() {
        let mut o = Observatory::armed(1_000, &[TrafficClass::BestEffort]);
        o.on_window_close(10, 0, 1000); // starved
        o.on_window_close(10, 3, 1000); // served
        o.on_window_close(0, 0, 1000); // idle — not starved
        let slo = o.slo_summary();
        assert_eq!(slo.windows_observed, 3);
        assert_eq!(slo.best_effort_starved_windows, 1);
        assert_eq!(slo.best_effort_starved_cycles, 1000);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut o = Observatory::armed(500, &[C, TrafficClass::Vbr]);
        o.on_delivered(0, C, 100, 10);
        o.on_delivered(0, C, 900, 12);
        o.on_delivered(1, TrafficClass::Vbr, 300, 200);
        o.on_window_close(0, 0, 1000);
        let rep = o.report();
        let json = serde_json::to_string(&rep).unwrap();
        let back: ObservatoryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(rep, back);
    }
}
