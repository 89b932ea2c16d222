//! Metrics collection: the paper's QoS measures.
//!
//! * **Flit delay since generation** (Fig. 5) — per traffic class.
//! * **Frame delay since generation** (Fig. 9) — the delay of the *last*
//!   flit of each video frame, independent of injection model.
//! * **Frame jitter** (§5.2) — delay variation between adjacent frames of
//!   the same connection.  Only connections that can close a frame carry
//!   a jitter tracker (a 4 KiB histogram each), so a CBR-only workload
//!   allocates none.
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
            hist: LogHistogram::new(3),
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
    /// `None` for a connection built without frame storage
    /// ([`MetricsCollector::with_frames`]): it may never close a frame.
    jitter_per_conn: Vec<Option<JitterTracker>>,
    delivered_per_conn: Vec<u64>,
    delay_per_conn: Vec<Running>,
    /// Per-connection QoS delay bound (router cycles); deliveries slower
    /// than this count as violations.  `None` disables the accounting.
    delay_bound_rc: Option<u64>,
    violations_per_conn: Vec<u64>,
}

impl MetricsCollector {
    /// Collector for `connections` connections, any of which may close
    /// frames.
    pub fn new(connections: usize, tb: TimeBase) -> Self {
        Self::with_frames(tb, (0..connections).map(|_| true))
    }

    /// Collector with one connection per item of `closes_frames`, in
    /// connection order; jitter storage is allocated only where the item
    /// is true (see `ConnectionSpec::closes_frames`).  Delivering a
    /// frame-closing flit on any other connection is a caller bug, caught
    /// by a debug assertion.
    pub fn with_frames(tb: TimeBase, closes_frames: impl IntoIterator<Item = bool>) -> Self {
        let jitter_per_conn: Vec<Option<JitterTracker>> = (closes_frames.into_iter())
            .map(|frames| frames.then(JitterTracker::new))
            .collect();
        let connections = jitter_per_conn.len();
        MetricsCollector {
            tb,
            classes: (0..CLASS_COUNT).map(|_| ClassAccumulator::new()).collect(),
            frame_delay: Running::new(),
            frame_hist: LogHistogram::new(3),
            frames_delivered: 0,
            jitter_per_conn,
            delivered_per_conn: vec![0; connections],
            delay_per_conn: (0..connections).map(|_| Running::new()).collect(),
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
        self.classes[class_index(class)].generated += 1;
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
        self.delay_per_conn[conn_idx].push(delay_rc as f64);
        if self.delay_bound_rc.is_some_and(|b| delay_rc > b) {
            self.violations_per_conn[conn_idx] += 1;
        }
        if delivery.flit.is_frame_end() {
            self.frame_delay.push(delay_rc as f64);
            self.frame_hist.record(delay_rc);
            self.frames_delivered += 1;
            let jitter = self.jitter_per_conn[conn_idx].as_mut();
            debug_assert!(
                jitter.is_some(),
                "connection {conn_idx} closed a frame but its collector was built \
                 without jitter storage for it"
            );
            if let Some(jitter) = jitter {
                jitter.record_delay(delay_rc as f64);
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
        self.jitter_per_conn
            .iter_mut()
            .flatten()
            .for_each(JitterTracker::reset);
        self.delivered_per_conn.fill(0);
        self.delay_per_conn.fill(Running::new());
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

    /// Mean delay per connection, in microseconds (`None` for connections
    /// that delivered nothing).
    pub fn mean_delay_per_connection_us(&self) -> Vec<Option<f64>> {
        self.delay_per_conn
            .iter()
            .map(|r| (r.count() > 0).then(|| r.mean() * self.tb.router_cycle_secs() * 1e6))
            .collect()
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
        // Aggregate jitter over connections that produced samples.
        let mut jitter = Running::new();
        let mut jitter_hist = LogHistogram::new(3);
        for t in self.jitter_per_conn.iter().flatten() {
            jitter.merge(t.stats());
            jitter_hist.merge(t.histogram());
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
            p99_frame_jitter_us: jitter_hist
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

    /// Delivered / generated across all classes (1.0 when the router kept
    /// up; < 1.0 when flits are still queued at measurement end).
    pub fn delivery_ratio(&self) -> f64 {
        let gen: u64 = self.classes.iter().map(|c| c.generated).sum();
        let del: u64 = self.classes.iter().map(|c| c.delivered).sum();
        if gen == 0 {
            1.0
        } else {
            del as f64 / gen as f64
        }
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
        for _ in 0..10 {
            m.record_generated(TrafficClass::CbrLow);
        }
        for _ in 0..7 {
            m.record_delivery(&delivery(0, 0, 64, None), TrafficClass::CbrLow);
        }
        assert!((m.report().delivery_ratio() - 0.7).abs() < 1e-12);
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
    fn observe(
        m: &MetricsCollector,
    ) -> (MetricsReport, Vec<u64>, Vec<u64>, Vec<Option<f64>>, String) {
        (
            m.report(),
            m.delivered_per_connection().to_vec(),
            m.violations_per_connection().to_vec(),
            m.mean_delay_per_connection_us(),
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
        let delays = m.mean_delay_per_connection_us();
        assert!(delays[0].unwrap() > 0.0);
        assert!(delays[1].is_none());
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

    /// Every number a report carries, floats as their bit patterns.
    fn report_bits(r: &MetricsReport) -> Vec<u64> {
        let mut bits = vec![r.qos_violations, r.frames_delivered];
        bits.extend(
            [
                r.mean_frame_delay_us,
                r.max_frame_delay_us,
                r.p99_frame_delay_us,
                r.mean_frame_jitter_us,
                r.p99_frame_jitter_us,
                r.max_frame_jitter_us,
            ]
            .map(f64::to_bits),
        );
        for c in &r.classes {
            bits.extend([class_index(c.class) as u64, c.generated, c.delivered]);
            bits.extend([c.mean_delay_us, c.p99_delay_us, c.max_delay_us].map(f64::to_bits));
        }
        bits
    }

    #[test]
    fn frame_storage_only_where_frames_close_reports_the_same_bits() {
        use mmr_sim::units::Bandwidth;
        use mmr_traffic::connection::{ConnectionKind, ConnectionSpec, QosSpec};
        let bw = Bandwidth::mbps(1.54);
        let spec = |id: u32, class, kind| ConnectionSpec {
            id: ConnectionId(id),
            input: 0,
            output: 1,
            class,
            qos: QosSpec::cbr(bw),
            kind,
            reserved_slots: 1,
        };
        let video = ConnectionKind::Vbr { sequence: 0 };
        // CBR, MPEG-2 video, a CBR-fed mix group of class `Vbr`, video, CBR.
        let specs = [
            spec(0, TrafficClass::CbrLow, ConnectionKind::Cbr),
            spec(1, TrafficClass::Vbr, video),
            spec(2, TrafficClass::Vbr, ConnectionKind::Cbr),
            spec(3, TrafficClass::Vbr, video),
            spec(4, TrafficClass::CbrHigh, ConnectionKind::Cbr),
        ];
        let closes: Vec<bool> = specs.iter().map(ConnectionSpec::closes_frames).collect();
        assert_eq!(closes, [false, true, false, true, false]);
        let tb = TimeBase::default();
        let mut lean = MetricsCollector::with_frames(tb, closes);
        let mut full = MetricsCollector::new(specs.len(), tb);
        lean.set_delay_bound(Some(400));
        full.set_delay_bound(Some(400));
        for m in [&mut lean, &mut full] {
            for i in 0..300u64 {
                let s = &specs[(i % 5) as usize];
                let frame_end = s.closes_frames().then_some((i / 5) as u32);
                let (gen, delay) = (i * 11, 40 + i * 37 % 700);
                m.record_generated(s.class);
                m.record_delivery(&delivery(s.id.0, gen, gen + delay, frame_end), s.class);
            }
        }
        let (l, f) = (lean.report(), full.report());
        assert!(l.frames_delivered > 0 && l.max_frame_jitter_us > 0.0);
        assert_eq!(report_bits(&l), report_bits(&f));
        lean.reset();
        full.reset();
        assert_eq!(report_bits(&lean.report()), report_bits(&full.report()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "closed a frame but its collector was built without jitter storage")]
    fn frame_end_without_jitter_storage_is_caught() {
        let mut m = MetricsCollector::with_frames(TimeBase::default(), [true, false]);
        m.record_delivery(&delivery(0, 0, 100, Some(0)), TrafficClass::Vbr);
        m.record_delivery(&delivery(1, 0, 100, Some(0)), TrafficClass::Vbr);
    }

    #[test]
    fn empty_report_is_sane() {
        let m = MetricsCollector::new(0, TimeBase::default());
        let r = m.report();
        assert_eq!(r.delivery_ratio(), 1.0);
        assert_eq!(r.mean_frame_delay_us, 0.0);
        assert_eq!(r.max_frame_jitter_us, 0.0);
    }
}
