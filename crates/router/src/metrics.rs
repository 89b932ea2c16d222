//! Metrics collection: the paper's QoS measures.
//!
//! * **Flit delay since generation** (Fig. 5) — per traffic class.
//! * **Frame delay since generation** (Fig. 9) — the delay of the *last*
//!   flit of each video frame, independent of injection model.
//! * **Frame jitter** (§5.2) — delay variation between adjacent frames of
//!   the same connection, reported in aggregate over connections as the
//!   paper does: each connection keeps its last frame delay and a
//!   running sum, and all of them share one histogram.
//! * Throughput per class and aggregate (generated vs delivered flits).

use crate::output::Delivery;
use mmr_sim::stats::{JitterTracker, LogHistogram, Running};
use mmr_sim::time::TimeBase;
use mmr_traffic::connection::TrafficClass;
use serde::{Deserialize, Serialize};

/// Number of traffic classes (the length of [`ALL_CLASSES`]).
pub const CLASS_COUNT: usize = 5;

/// Dense index of `class` within [`ALL_CLASSES`].
pub fn class_index(class: TrafficClass) -> usize {
    match class {
        TrafficClass::CbrLow => 0,
        TrafficClass::CbrMedium => 1,
        TrafficClass::CbrHigh => 2,
        TrafficClass::Vbr => 3,
        TrafficClass::BestEffort => 4,
    }
}

/// All traffic classes in index order.
pub const ALL_CLASSES: [TrafficClass; CLASS_COUNT] = [
    TrafficClass::CbrLow,
    TrafficClass::CbrMedium,
    TrafficClass::CbrHigh,
    TrafficClass::Vbr,
    TrafficClass::BestEffort,
];

#[derive(Debug, Clone)]
struct ClassAccumulator {
    delay: Running,
    hist: LogHistogram,
    generated: u64,
    delivered: u64,
}

impl ClassAccumulator {
    fn new() -> Self {
        ClassAccumulator {
            delay: Running::new(),
            hist: LogHistogram::default(),
            generated: 0,
            delivered: 0,
        }
    }
}

/// Live metrics accumulator owned by the router.
#[derive(Debug)]
pub struct MetricsCollector {
    tb: TimeBase,
    classes: Vec<ClassAccumulator>,
    frame_delay: Running,
    frame_hist: LogHistogram,
    frames_delivered: u64,
    jitter_per_conn: Vec<JitterTracker>,
    /// Every connection's frame-jitter samples, in whole router cycles.
    jitter_hist: LogHistogram,
    delivered_per_conn: Vec<u64>,
    /// Per-connection QoS delay bound (router cycles); deliveries slower
    /// than this count as violations.  `None` disables the accounting.
    delay_bound_rc: Option<u64>,
    violations_per_conn: Vec<u64>,
}

impl MetricsCollector {
    /// Collector for `connections` connections.  Its allocations do not
    /// grow in number with `connections`.
    pub fn new(connections: usize, tb: TimeBase) -> Self {
        MetricsCollector {
            tb,
            classes: (0..CLASS_COUNT).map(|_| ClassAccumulator::new()).collect(),
            frame_delay: Running::new(),
            frame_hist: LogHistogram::default(),
            frames_delivered: 0,
            jitter_per_conn: vec![JitterTracker::new(); connections],
            jitter_hist: LogHistogram::default(),
            delivered_per_conn: vec![0; connections],
            delay_bound_rc: None,
            violations_per_conn: vec![0; connections],
        }
    }

    /// Set (or clear) the per-connection QoS delay bound, in router
    /// cycles.  Survives [`MetricsCollector::reset`].
    pub fn set_delay_bound(&mut self, bound_rc: Option<u64>) {
        self.delay_bound_rc = bound_rc;
    }

    /// Record a generated flit.
    pub fn record_generated(&mut self, class: TrafficClass) {
        self.record_generated_n(class, 1);
    }

    /// Record `n` generated flits of one class.
    pub fn record_generated_n(&mut self, class: TrafficClass, n: u64) {
        self.classes[class_index(class)].generated += n;
    }

    /// Record a delivered flit (and, for frame-closing flits, the frame
    /// delay and jitter sample).
    pub fn record_delivery(&mut self, delivery: &Delivery, class: TrafficClass) {
        let delay_rc = delivery.delay().0;
        let acc = &mut self.classes[class_index(class)];
        acc.delivered += 1;
        acc.delay.push(delay_rc as f64);
        acc.hist.record(delay_rc);
        let conn_idx = delivery.flit.connection.idx();
        self.delivered_per_conn[conn_idx] += 1;
        if self.delay_bound_rc.is_some_and(|b| delay_rc > b) {
            self.violations_per_conn[conn_idx] += 1;
        }
        if delivery.flit.is_frame_end() {
            self.frame_delay.push(delay_rc as f64);
            self.frame_hist.record(delay_rc);
            self.frames_delivered += 1;
            if let Some(jitter) = self.jitter_per_conn[conn_idx].record_delay(delay_rc as f64) {
                self.jitter_hist.record(jitter.round() as u64);
            }
        }
    }

    /// Reset all statistics (start of measurement window), **in place**:
    /// every accumulator returns to the state [`MetricsCollector::new`]
    /// builds and the delay bound is kept.  Nothing is allocated or
    /// freed, and a histogram nothing was recorded into is not swept,
    /// because the call sits inside every timed run — on the fabric in
    /// the leader's serial phase, while the helpers wait (DESIGN.md §17).
    pub fn reset(&mut self) {
        for acc in &mut self.classes {
            acc.delay = Running::new();
            acc.hist.reset();
            acc.generated = 0;
            acc.delivered = 0;
        }
        self.frame_delay = Running::new();
        self.frame_hist.reset();
        self.frames_delivered = 0;
        self.jitter_per_conn.fill(JitterTracker::new());
        self.jitter_hist.reset();
        self.delivered_per_conn.fill(0);
        self.violations_per_conn.fill(0);
    }

    /// Flits delivered per connection during measurement.
    pub fn delivered_per_connection(&self) -> &[u64] {
        &self.delivered_per_conn
    }

    /// Delay-bound violations per connection during measurement (all
    /// zero unless a bound was set with
    /// [`MetricsCollector::set_delay_bound`]).
    pub fn violations_per_connection(&self) -> &[u64] {
        &self.violations_per_conn
    }

    /// Jain's fairness index over per-connection throughput normalized by
    /// `weights` (e.g. reserved slots): `(Σ x)² / (n · Σ x²)` with
    /// `x_i = delivered_i / weight_i`.  1.0 = perfectly
    /// reservation-proportional service; → 1/n as service concentrates on
    /// one connection.  Connections with zero weight are skipped.
    pub fn jain_fairness(&self, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.delivered_per_conn.len());
        let xs: Vec<f64> = self
            .delivered_per_conn
            .iter()
            .zip(weights)
            .filter(|(_, &w)| w > 0.0)
            .map(|(&d, &w)| d as f64 / w)
            .collect();
        if xs.is_empty() {
            return 1.0;
        }
        let sum: f64 = xs.iter().sum();
        let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
        if sum_sq == 0.0 {
            return 1.0;
        }
        sum * sum / (xs.len() as f64 * sum_sq)
    }

    /// Snapshot the accumulated statistics.
    pub fn report(&self) -> MetricsReport {
        let to_us = |rc: f64| rc * self.tb.router_cycle_secs() * 1e6;
        let classes = ALL_CLASSES
            .iter()
            .zip(&self.classes)
            .filter(|(_, acc)| acc.generated > 0 || acc.delivered > 0)
            .map(|(&class, acc)| ClassStats {
                class,
                generated: acc.generated,
                delivered: acc.delivered,
                mean_delay_us: to_us(acc.delay.mean()),
                p99_delay_us: acc
                    .hist
                    .quantile(0.99)
                    .map(|v| to_us(v as f64))
                    .unwrap_or(0.0),
                max_delay_us: acc.delay.max().map(to_us).unwrap_or(0.0),
            })
            .collect();
        // Aggregate jitter, merged in connection order.
        let mut jitter = Running::new();
        for t in &self.jitter_per_conn {
            jitter.merge(t.stats());
        }
        MetricsReport {
            classes,
            qos_violations: self.violations_per_conn.iter().sum(),
            frames_delivered: self.frames_delivered,
            mean_frame_delay_us: to_us(self.frame_delay.mean()),
            max_frame_delay_us: self.frame_delay.max().map(to_us).unwrap_or(0.0),
            p99_frame_delay_us: self
                .frame_hist
                .quantile(0.99)
                .map(|v| to_us(v as f64))
                .unwrap_or(0.0),
            mean_frame_jitter_us: to_us(jitter.mean()),
            p99_frame_jitter_us: self
                .jitter_hist
                .quantile(0.99)
                .map(|v| to_us(v as f64))
                .unwrap_or(0.0),
            max_frame_jitter_us: jitter.max().map(to_us).unwrap_or(0.0),
        }
    }
}

/// Per-class delay/throughput statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// Traffic class.
    pub class: TrafficClass,
    /// Flits generated during measurement.
    pub generated: u64,
    /// Flits delivered during measurement.
    pub delivered: u64,
    /// Mean flit delay since generation, microseconds.
    pub mean_delay_us: f64,
    /// 99th-percentile flit delay, microseconds.
    pub p99_delay_us: f64,
    /// Maximum flit delay, microseconds.
    pub max_delay_us: f64,
}

/// Snapshot of all QoS metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Per-class statistics (classes with traffic only).
    pub classes: Vec<ClassStats>,
    /// Deliveries that exceeded the configured QoS delay bound (0 when no
    /// bound is set; see [`MetricsCollector::set_delay_bound`]).
    pub qos_violations: u64,
    /// Video frames fully delivered.
    pub frames_delivered: u64,
    /// Mean frame delay since generation, microseconds.
    pub mean_frame_delay_us: f64,
    /// Maximum frame delay, microseconds.
    pub max_frame_delay_us: f64,
    /// 99th-percentile frame delay, microseconds.
    pub p99_frame_delay_us: f64,
    /// Mean frame jitter, microseconds.
    pub mean_frame_jitter_us: f64,
    /// 99th-percentile frame jitter, microseconds (histogram-backed).
    pub p99_frame_jitter_us: f64,
    /// Maximum frame jitter, microseconds.
    pub max_frame_jitter_us: f64,
}

impl MetricsReport {
    /// Statistics for one class, if present.
    pub fn class(&self, class: TrafficClass) -> Option<&ClassStats> {
        self.classes.iter().find(|c| c.class == class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_sim::time::RouterCycle;
    use mmr_traffic::connection::ConnectionId;
    use mmr_traffic::flit::Flit;

    fn delivery(conn: u32, gen: u64, del: u64, frame_end: Option<u32>) -> Delivery {
        let flit = match frame_end {
            Some(idx) => Flit::vbr(ConnectionId(conn), 0, RouterCycle(gen), idx, true),
            None => Flit::cbr(ConnectionId(conn), 0, RouterCycle(gen)),
        };
        Delivery {
            flit,
            output: 0,
            delivered_at: RouterCycle(del),
        }
    }

    #[test]
    fn per_class_separation() {
        let mut m = MetricsCollector::new(4, TimeBase::default());
        m.record_generated(TrafficClass::CbrLow);
        m.record_generated(TrafficClass::CbrHigh);
        m.record_delivery(&delivery(0, 0, 64, None), TrafficClass::CbrLow);
        m.record_delivery(&delivery(1, 0, 128, None), TrafficClass::CbrHigh);
        let r = m.report();
        assert_eq!(r.classes.len(), 2);
        let low = r.class(TrafficClass::CbrLow).unwrap();
        let high = r.class(TrafficClass::CbrHigh).unwrap();
        assert!((low.mean_delay_us - 0.8258).abs() < 0.01);
        assert!((high.mean_delay_us - 2.0 * low.mean_delay_us).abs() < 0.01);
        assert!(r.class(TrafficClass::Vbr).is_none());
    }

    #[test]
    fn frame_metrics_only_from_frame_ends() {
        let mut m = MetricsCollector::new(2, TimeBase::default());
        m.record_delivery(&delivery(0, 0, 100, None), TrafficClass::Vbr);
        assert_eq!(m.report().frames_delivered, 0);
        m.record_delivery(&delivery(0, 0, 100, Some(0)), TrafficClass::Vbr);
        m.record_delivery(&delivery(0, 50, 250, Some(1)), TrafficClass::Vbr);
        let r = m.report();
        assert_eq!(r.frames_delivered, 2);
        // Frame delays: 100 and 200 rc -> jitter sample |200 - 100| = 100.
        let us = |rc: f64| rc * TimeBase::default().router_cycle_secs() * 1e6;
        assert!((r.mean_frame_delay_us - us(150.0)).abs() < 1e-9);
        assert!((r.mean_frame_jitter_us - us(100.0)).abs() < 1e-9);
    }

    #[test]
    fn jitter_is_per_connection() {
        let mut m = MetricsCollector::new(2, TimeBase::default());
        // Connection 0 delivers two frames with equal delay -> jitter 0.
        m.record_delivery(&delivery(0, 0, 100, Some(0)), TrafficClass::Vbr);
        m.record_delivery(&delivery(0, 10, 110, Some(1)), TrafficClass::Vbr);
        // Connection 1 delivers one frame -> no jitter sample.
        m.record_delivery(&delivery(1, 0, 999, Some(0)), TrafficClass::Vbr);
        let r = m.report();
        assert_eq!(
            r.mean_frame_jitter_us, 0.0,
            "cross-connection deltas must not leak"
        );
    }

    #[test]
    fn delivery_ratio() {
        let mut m = MetricsCollector::new(1, TimeBase::default());
        m.record_generated_n(TrafficClass::CbrLow, 10);
        for _ in 0..7 {
            m.record_delivery(&delivery(0, 0, 64, None), TrafficClass::CbrLow);
        }
        let r = m.report();
        let low = r.class(TrafficClass::CbrLow).unwrap();
        assert_eq!((low.generated, low.delivered), (10, 7));
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = MetricsCollector::new(1, TimeBase::default());
        m.record_generated(TrafficClass::CbrLow);
        m.record_delivery(&delivery(0, 0, 64, Some(0)), TrafficClass::Vbr);
        m.reset();
        let r = m.report();
        assert!(r.classes.is_empty());
        assert_eq!(r.frames_delivered, 0);
    }

    /// One recorded event: `(is_delivery, connection, class index,
    /// generation cycle, delay, frame index when the flit closes a frame)`.
    type Op = (bool, u32, usize, u64, u64, Option<u32>);

    fn replay(m: &mut MetricsCollector, ops: &[Op]) {
        for &(is_delivery, conn, class, gen, delay, frame_end) in ops {
            if is_delivery {
                m.record_delivery(
                    &delivery(conn, gen, gen + delay, frame_end),
                    ALL_CLASSES[class],
                );
            } else {
                m.record_generated(ALL_CLASSES[class]);
            }
        }
    }

    /// Everything a caller can read out of a collector, plus its whole
    /// state as `Debug` prints it (histogram buckets, running moments and
    /// the jitter trackers' last delays included).
    fn observe(m: &MetricsCollector) -> (MetricsReport, Vec<u64>, Vec<u64>, String) {
        (
            m.report(),
            m.delivered_per_connection().to_vec(),
            m.violations_per_connection().to_vec(),
            format!("{m:?}"),
        )
    }

    const CONNS: u32 = 6;

    fn ops() -> impl proptest::strategy::Strategy<Value = Vec<Op>> {
        use proptest::prelude::*;
        proptest::collection::vec(
            (
                (0u8..4, 0..CONNS, 0usize..CLASS_COUNT),
                (0u64..1_000_000, 0u64..5_000_000, 0u32..6),
            )
                .prop_map(|((kind, conn, class), (gen, delay, frame))| {
                    // Three in four are deliveries; half of those close a
                    // frame, so the jitter trackers fill too.
                    (
                        kind != 0,
                        conn,
                        class,
                        gen,
                        delay,
                        (frame < 3).then_some(frame),
                    )
                }),
            0..200,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn reset_equals_a_fresh_collector(
            before in ops(),
            after in ops(),
            bound in 0u64..3,
        ) {
            use proptest::prelude::*;
            let bound = (bound > 0).then_some(bound * 1_000_000);
            let mut used = MetricsCollector::new(CONNS as usize, TimeBase::default());
            used.set_delay_bound(bound);
            replay(&mut used, &before);
            used.reset();
            let mut fresh = MetricsCollector::new(CONNS as usize, TimeBase::default());
            fresh.set_delay_bound(bound);
            prop_assert_eq!(observe(&used), observe(&fresh));
            // And it keeps behaving like one (the bound included).
            replay(&mut used, &after);
            replay(&mut fresh, &after);
            prop_assert_eq!(observe(&used), observe(&fresh));
        }
    }

    #[test]
    fn per_connection_accounting() {
        let mut m = MetricsCollector::new(3, TimeBase::default());
        m.record_delivery(&delivery(0, 0, 64, None), TrafficClass::CbrLow);
        m.record_delivery(&delivery(0, 0, 128, None), TrafficClass::CbrLow);
        m.record_delivery(&delivery(2, 0, 64, None), TrafficClass::CbrHigh);
        assert_eq!(m.delivered_per_connection(), &[2, 0, 1]);
    }

    #[test]
    fn delay_bound_violations_counted_per_connection() {
        let mut m = MetricsCollector::new(2, TimeBase::default());
        m.set_delay_bound(Some(100));
        m.record_delivery(&delivery(0, 0, 64, None), TrafficClass::CbrLow); // within
        m.record_delivery(&delivery(0, 0, 150, None), TrafficClass::CbrLow); // violation
        m.record_delivery(&delivery(1, 0, 101, None), TrafficClass::CbrHigh); // violation
        assert_eq!(m.violations_per_connection(), &[1, 1]);
        assert_eq!(m.report().qos_violations, 2);
        // The bound survives a measurement reset.
        m.reset();
        assert_eq!(m.report().qos_violations, 0);
        m.record_delivery(&delivery(1, 0, 500, None), TrafficClass::CbrHigh);
        assert_eq!(m.report().qos_violations, 1);
    }

    #[test]
    fn no_bound_means_no_violations() {
        let mut m = MetricsCollector::new(1, TimeBase::default());
        m.record_delivery(&delivery(0, 0, 1_000_000, None), TrafficClass::CbrLow);
        assert_eq!(m.report().qos_violations, 0);
    }

    #[test]
    fn jain_index_bounds() {
        let mut m = MetricsCollector::new(4, TimeBase::default());
        // Proportional service: delivered_i == weight_i -> index 1.
        for (conn, n) in [(0u32, 1), (1, 2), (2, 3), (3, 4)] {
            for _ in 0..n {
                m.record_delivery(&delivery(conn, 0, 64, None), TrafficClass::CbrLow);
            }
        }
        let fair = m.jain_fairness(&[1.0, 2.0, 3.0, 4.0]);
        assert!(
            (fair - 1.0).abs() < 1e-12,
            "proportional -> 1.0, got {fair}"
        );
        // All service to one of four equal-weight connections -> 1/4.
        let skewed = m.jain_fairness(&[0.0, 0.0, 3.0, 0.0]);
        assert_eq!(skewed, 1.0, "single weighted connection is trivially fair");
        let mut m2 = MetricsCollector::new(4, TimeBase::default());
        for _ in 0..8 {
            m2.record_delivery(&delivery(0, 0, 64, None), TrafficClass::CbrLow);
        }
        let idx = m2.jain_fairness(&[1.0, 1.0, 1.0, 1.0]);
        assert!((idx - 0.25).abs() < 1e-12, "fully skewed -> 1/n, got {idx}");
    }

    #[test]
    fn jain_index_empty_is_one() {
        let m = MetricsCollector::new(2, TimeBase::default());
        assert_eq!(m.jain_fairness(&[1.0, 1.0]), 1.0);
        let m0 = MetricsCollector::new(0, TimeBase::default());
        assert_eq!(m0.jain_fairness(&[]), 1.0);
    }

    #[test]
    fn aggregate_jitter_equals_a_per_connection_merge() {
        // Reference: what the collector computed while every connection
        // kept its own jitter histogram — per-connection trackers and
        // histograms, merged in connection order at report time.
        const N: usize = 5;
        let tb = TimeBase::default();
        let us = |rc: f64| rc * tb.router_cycle_secs() * 1e6;
        let mut m = MetricsCollector::new(N, tb);
        let mut trackers = vec![JitterTracker::new(); N];
        let mut hists = vec![LogHistogram::default(); N];
        for i in 0..400u64 {
            let conn = (i * 3 % N as u64) as usize;
            let (gen, delay) = (i * 11, 40 + i * 37 % 700);
            // Connection 4 never closes a frame; the others close one
            // with two flits in three.
            let frame_end = (conn != 4 && i % 3 != 0).then_some(i as u32);
            m.record_delivery(
                &delivery(conn as u32, gen, gen + delay, frame_end),
                TrafficClass::Vbr,
            );
            if frame_end.is_some() {
                if let Some(j) = trackers[conn].record_delay(delay as f64) {
                    hists[conn].record(j.round() as u64);
                }
            }
        }
        let (mut running, mut hist) = (Running::new(), LogHistogram::default());
        for (t, h) in trackers.iter().zip(&hists) {
            running.merge(t.stats());
            hist.merge(h);
        }
        let r = m.report();
        assert!(hist.count() > 100 && r.max_frame_jitter_us > 0.0);
        assert_eq!(
            r.mean_frame_jitter_us.to_bits(),
            us(running.mean()).to_bits()
        );
        assert_eq!(
            r.p99_frame_jitter_us.to_bits(),
            us(hist.quantile(0.99).unwrap() as f64).to_bits()
        );
        assert_eq!(
            r.max_frame_jitter_us.to_bits(),
            us(running.max().unwrap()).to_bits()
        );
    }

    #[test]
    fn empty_report_is_sane() {
        let m = MetricsCollector::new(0, TimeBase::default());
        let r = m.report();
        assert!(r.classes.is_empty());
        assert_eq!(r.mean_frame_delay_us, 0.0);
        assert_eq!(r.max_frame_jitter_us, 0.0);
    }
}
