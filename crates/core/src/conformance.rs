//! Machine-checked paper conformance: typed claims over experiment curves.
//!
//! EXPERIMENTS.md records what of the paper reproduces, but as prose — no
//! test fails when a refactor silently bends a figure's *shape*.  This
//! module is the claim vocabulary: a typed, tolerance-bounded [`Check`]
//! evaluated over a **multi-seed ensemble** of experiment runs, so the
//! reproduction is guarded by `cargo test` and `scripts/ci.sh` rather than
//! by a human re-reading result files.
//!
//! Methodology (DESIGN.md §13):
//!
//! * every check reduces one seed's curves to a single scalar (a
//!   saturation gap in load points, a delay in µs, a worst-case ratio …);
//! * the scalar is computed independently per seed, and the claim passes
//!   or fails on the **ensemble median**, with the min/max spread
//!   reported alongside — one noisy seed (the paper's own single-seed
//!   methodology suffered exactly this) cannot flip a claim;
//! * thresholds are calibrated to hold in both quick and full fidelity
//!   with margin, and every margin is reported so a shrinking margin is
//!   visible before it becomes a failure.
//!
//! The claims themselves live in the workload packs under `workloads/`:
//! `crate::workload_lang` compiles each `[[claim]]` onto a [`Check`] that
//! reads one or two [`Panel`]s — packs, by name — of an [`Ensemble`], and
//! `mmr gate` (mmr-bench) and `tests/conformance.rs` judge them.

use crate::experiment::ExperimentResult;
use crate::saturation::{detect_saturation, SaturationCriteria};
use crate::sweep::SweepPoint;
use mmr_arbiter::hw::HwBlock;
use mmr_arbiter::scheduler::ArbiterKind;
use mmr_sim::rng::SimRng;
use mmr_sim::time::TimeBase;
use mmr_traffic::connection::{ConnectionId, TrafficClass};
use mmr_traffic::injection::InjectionModel;
use mmr_traffic::mpeg::{standard_sequences, FrameType, MpegTrace, FRAME_TIME_SECS, GOP_PATTERN};
use mmr_traffic::source::TrafficSource;
use mmr_traffic::vbr::VbrSource;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The pack whose data a check reads, by its `[meta] name`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Panel(pub String);

impl Panel {
    /// The panel of the pack named `pack`.
    pub fn new(pack: &str) -> Self {
        Panel(pack.to_string())
    }
}

/// Scalar a curve check reads off one experiment result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CurveMetric {
    /// Mean flit delay since generation for a class, µs (Fig. 5).
    ClassDelayUs(TrafficClass),
    /// Mean frame delay since generation, µs (Fig. 9).
    FrameDelayUs,
    /// Crossbar utilization within the generation window, percent
    /// (Fig. 8).
    WindowUtilizationPct,
    /// Delivered/generated flits over the whole run.
    ThroughputRatio,
    /// Mean flit delay of the first class over the second's, one run.
    ClassDelayRatio(TrafficClass, TrafficClass),
    /// Jain's index over per-connection delivered/reserved ratios.
    Fairness,
    /// Fraction of connection requests CAC rejected.
    RejectRate,
    /// Crossbar utilization over the measurement window, 0–1.
    CrossbarUtilization,
}

impl CurveMetric {
    /// Extract the metric from one seed's result.
    pub fn of(self, r: &ExperimentResult) -> f64 {
        let delay = |class| {
            r.summary
                .metrics
                .class(class)
                .map(|c| c.mean_delay_us)
                .unwrap_or(0.0)
        };
        match self {
            CurveMetric::ClassDelayUs(class) => delay(class),
            CurveMetric::FrameDelayUs => r.summary.metrics.mean_frame_delay_us,
            CurveMetric::WindowUtilizationPct => r.summary.generation_window_utilization() * 100.0,
            CurveMetric::ThroughputRatio => r.summary.throughput_ratio(),
            CurveMetric::ClassDelayRatio(slower, faster) => {
                delay(slower) / delay(faster).max(f64::EPSILON)
            }
            CurveMetric::Fairness => r.summary.reservation_fairness,
            CurveMetric::RejectRate => r.admission.reject_rate(),
            CurveMetric::CrossbarUtilization => r.summary.crossbar_utilization,
        }
    }

    /// Unit of [`Self::of`], for reports.
    pub(crate) fn unit(self) -> &'static str {
        match self {
            CurveMetric::ClassDelayUs(_) | CurveMetric::FrameDelayUs => "us",
            CurveMetric::WindowUtilizationPct => "%",
            CurveMetric::ThroughputRatio => "ratio",
            CurveMetric::ClassDelayRatio(..) => "x",
            CurveMetric::Fairness => "jain",
            CurveMetric::RejectRate | CurveMetric::CrossbarUtilization => "fraction",
        }
    }
}

/// Which side of a threshold the ensemble median must land on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Bound {
    /// Median ≤ the value passes.
    AtMost(f64),
    /// Median ≥ the value passes.
    AtLeast(f64),
}

/// A machine-checkable assertion about the reproduction.
///
/// Each variant reduces one seed's data to a scalar `measured` value and
/// carries the threshold it must meet; `Check::measure` computes the
/// per-seed values and `ClaimOutcome::new` gates their ensemble
/// median.  Curve checks are either *point-anchored* (`AtPoint`,
/// `RatioAtPoint`, `UtilizationScales`: read the grid point at a load)
/// or *load-prefix* (`until_load`: the worst value over every grid point
/// up to a load).
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// `winner` saturates at least `min_points` load points (percent of
    /// link bandwidth) later than `loser`, judged on `metric` with the
    /// default [`SaturationCriteria`].  A series that never saturates in
    /// the sweep range counts as saturating at its last measured load
    /// (a conservative lower bound on the gap).
    SaturationGap {
        /// Sweep the check reads.
        panel: Panel,
        /// Delay metric saturation is judged on.
        metric: CurveMetric,
        /// Arbiter the paper says lasts longer.
        winner: ArbiterKind,
        /// Arbiter the paper says collapses first.
        loser: ArbiterKind,
        /// Minimum gap, in load points (1 point = 1% of link bandwidth).
        min_points: f64,
    },
    /// `metric` for `arbiter` at the grid point `at_load` meets `bound`
    /// (in the metric's unit).
    AtPoint {
        /// Sweep the check reads.
        panel: Panel,
        /// Metric bounded.
        metric: CurveMetric,
        /// Arbiter measured.
        arbiter: ArbiterKind,
        /// Target load of the grid point.
        at_load: f64,
        /// Inclusive bound on the metric.
        bound: Bound,
    },
    /// At `at_load`, the ratio of `num`'s metric to `den`'s meets
    /// `bound` — e.g. "WFA's delay is ≥ 10× COA's".  Each side names its
    /// own (panel, arbiter), so one claim may compare two packs.
    RatioAtPoint {
        /// Metric compared.
        metric: CurveMetric,
        /// Target load of the grid point (on both sides).
        at_load: f64,
        /// Numerator cell.
        num: (Panel, ArbiterKind),
        /// Denominator cell.
        den: (Panel, ArbiterKind),
        /// Inclusive bound on num/den.
        bound: Bound,
    },
    /// For every grid point with load ≤ `until_load`, the two arbiters'
    /// metrics are within `max_factor` of each other (paper: "similar
    /// performance" below saturation).
    WithinFactor {
        /// Sweep the check reads.
        panel: Panel,
        /// Metric compared.
        metric: CurveMetric,
        /// First arbiter.
        a: ArbiterKind,
        /// Second arbiter.
        b: ArbiterKind,
        /// Load prefix checked (inclusive).
        until_load: f64,
        /// Maximum allowed max(a/b, b/a) over the prefix.
        max_factor: f64,
    },
    /// `metric` is non-decreasing in load over the prefix, within slack:
    /// every consecutive step ratio `next/prev` stays at least
    /// `min_step_ratio` (1.0 = strictly monotone; 0.8 tolerates 20%
    /// statistical dips).
    MonotoneDelay {
        /// Sweep the check reads.
        panel: Panel,
        /// Metric checked.
        metric: CurveMetric,
        /// Arbiter measured.
        arbiter: ArbiterKind,
        /// Load prefix checked (inclusive).
        until_load: f64,
        /// Minimum allowed consecutive step ratio.
        min_step_ratio: f64,
    },
    /// Delivered/generated stays at or above `min_ratio` for every grid
    /// point with load ≤ `until_load` (Fig. 8's measured "no throughput
    /// knee" deviation record).
    ThroughputFloor {
        /// Sweep the check reads.
        panel: Panel,
        /// Arbiter measured.
        arbiter: ArbiterKind,
        /// Load prefix checked (inclusive).
        until_load: f64,
        /// Minimum delivered/generated ratio.
        min_ratio: f64,
    },
    /// Window utilization scales with generated load: the ratio
    /// `util(hi)/util(lo)` divided by `load(hi)/load(lo)` is at least
    /// `min_ratio_of_ratios` (Fig. 8's overlap region tracks load).
    UtilizationScales {
        /// Sweep the check reads.
        panel: Panel,
        /// Arbiter measured.
        arbiter: ArbiterKind,
        /// Lower grid load.
        lo_load: f64,
        /// Higher grid load.
        hi_load: f64,
        /// Minimum (util ratio)/(load ratio).
        min_ratio_of_ratios: f64,
    },
    /// One-sided factor bound over a load prefix: at every grid point
    /// with load ≤ `until_load`, `numerator`'s metric stays at most
    /// `max_ratio` times `denominator`'s.  Unlike [`Check::WithinFactor`]
    /// the denominator may be arbitrarily better — this is "A never falls
    /// more than `max_ratio`× behind B", the frontier's COA-vs-oracle
    /// question.
    AtMostRatio {
        /// Sweep the check reads.
        panel: Panel,
        /// Metric compared.
        metric: CurveMetric,
        /// The arbiter whose metric is bounded.
        numerator: ArbiterKind,
        /// The arbiter providing the reference value.
        denominator: ArbiterKind,
        /// Load prefix checked (inclusive).
        until_load: f64,
        /// Maximum allowed numerator/denominator at any prefix point.
        max_ratio: f64,
    },
    /// `oracle` is the panel's performance floor: at every grid point
    /// with load ≤ `until_load`, its metric stays within `slack`× of the
    /// best (lowest) value ANY arbiter in the panel achieves there.
    DelayFloor {
        /// Sweep the check reads.
        panel: Panel,
        /// Metric compared.
        metric: CurveMetric,
        /// The arbiter claimed to be (near-)optimal.
        oracle: ArbiterKind,
        /// Load prefix checked (inclusive).
        until_load: f64,
        /// Maximum allowed oracle/best ratio over the prefix.
        slack: f64,
    },
    /// Back-to-Back injection: at least `min_mass` of frame-0's flits are
    /// emitted within the first `within_fraction` of the frame time
    /// (Fig. 7a: peak-rate burst, then idle).
    BurstConcentration {
        /// Trace pack the check reads.
        panel: Panel,
        /// Prefix of the frame time considered, 0–1.
        within_fraction: f64,
        /// Minimum fraction of the frame's flits inside the prefix.
        min_mass: f64,
    },
    /// Smooth-Rate injection: flits land in at least `min_active_fraction`
    /// of the frame-time buckets (Fig. 7b: evenly spread).
    SmoothCoverage {
        /// Trace pack the check reads.
        panel: Panel,
        /// Minimum fraction of non-empty buckets.
        min_active_fraction: f64,
    },
    /// Smooth-Rate injection: no bucket exceeds `max_peak_over_mean`
    /// times the mean bucket occupancy.
    SmoothPeak {
        /// Trace pack the check reads.
        panel: Panel,
        /// Maximum allowed peak/mean bucket ratio.
        max_peak_over_mean: f64,
    },
    /// The per-frame rate profile of `sequence`'s trace is a sawtooth:
    /// within at least `min_peak_fraction` of the `period`-frame GOPs,
    /// the I-frame (phase 0) is the largest frame (Fig. 6's shape,
    /// Table 1's burst structure).
    Sawtooth {
        /// Trace pack the check reads.
        panel: Panel,
        /// Index into [`standard_sequences`].
        sequence: usize,
        /// Expected GOP period in frames.
        period: usize,
        /// Minimum fraction of GOPs peaking at the I-frame.
        min_peak_fraction: f64,
    },
    /// Every sequence's measured average rate is within `factor`× of the
    /// calibrated Table 1 value (both directions).
    AvgRatesWithinFactor {
        /// Trace pack the check reads.
        panel: Panel,
        /// Maximum allowed max(measured/target, target/measured) over all
        /// seven sequences.
        factor: f64,
    },
    /// I ≫ P ≫ B: for every sequence, mean I/P and P/B frame-size ratios
    /// are at least `min_ratio`.
    FrameTypeOrdering {
        /// Trace pack the check reads.
        panel: Panel,
        /// Minimum allowed ratio at each step of the ordering.
        min_ratio: f64,
    },
    /// The analytic hardware model's `num`/`den` cost ratio on one axis
    /// (§3.1, §6).  It reads no panel and runs no simulation, so its one
    /// value stands for every seed.
    HwRatio {
        /// Area or delay.
        axis: HwAxis,
        /// Numerator block.
        num: HwBlock,
        /// Denominator block.
        den: HwBlock,
        /// Gate on the ratio.
        bound: Bound,
    },
}

/// The cost a [`Check::HwRatio`] compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwAxis {
    /// Area in gate equivalents.
    Area,
    /// Critical-path delay.
    Delay,
}

/// Calibrated Table 1 average rates (Mbps) — the EXPERIMENTS.md record of
/// the synthetic substitution (4 GOPs, seed `0xB1ACA`), in
/// [`standard_sequences`] order.
pub const TABLE1_AVG_MBPS: [f64; 7] = [8.1, 7.5, 8.8, 18.9, 21.9, 12.1, 16.8];

/// Outcome of evaluating one claim over the ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClaimOutcome {
    /// Claim identifier.
    pub id: String,
    /// Pack the claim belongs to.
    pub pack: String,
    /// Claim description.
    pub description: String,
    /// Did the ensemble median meet the threshold?
    pub pass: bool,
    /// Ensemble median of the per-seed measured scalar.
    pub median: f64,
    /// Minimum per-seed measured value.
    pub spread_min: f64,
    /// Maximum per-seed measured value.
    pub spread_max: f64,
    /// Per-seed measured values (ensemble order).
    pub per_seed: Vec<f64>,
    /// The threshold the median is compared against.
    pub threshold: f64,
    /// True if larger measured values are better (≥ threshold passes).
    pub higher_is_better: bool,
    /// Signed pass margin in the measured unit (positive = pass).
    pub margin: f64,
    /// Unit of the measured scalar (for reports).
    pub unit: String,
}

impl ClaimOutcome {
    /// Gate per-seed values on their median: the one place a verdict,
    /// spread and margin are computed.
    pub(crate) fn new(
        id: &str,
        pack: &str,
        description: &str,
        per_seed: Vec<f64>,
        bound: Bound,
        unit: &str,
    ) -> Self {
        let med = median(&per_seed);
        let (threshold, higher_is_better, margin) = match bound {
            Bound::AtLeast(t) => (t, true, med - t),
            Bound::AtMost(t) => (t, false, t - med),
        };
        ClaimOutcome {
            id: id.to_string(),
            pack: pack.to_string(),
            description: description.to_string(),
            pass: margin >= 0.0,
            median: med,
            spread_min: per_seed.iter().cloned().fold(f64::INFINITY, f64::min),
            spread_max: per_seed.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            per_seed,
            threshold,
            higher_is_better,
            margin,
            unit: unit.to_string(),
        }
    }
}

/// One line per claim: `PASS fig5.saturation-gap [fig5] 14.63 >= 8 (margin +6.63 …)`.
pub(crate) fn render_claims(claims: &[ClaimOutcome]) -> String {
    let mut s = String::new();
    for c in claims {
        let op = if c.higher_is_better { ">=" } else { "<=" };
        s.push_str(&format!(
            "{} {:<28} [{}] {:.4} {} {:.4} (margin {:+.4} {}, seeds {:.4}..{:.4})\n",
            if c.pass { "PASS" } else { "FAIL" },
            c.id,
            c.pack,
            c.median,
            op,
            c.threshold,
            c.margin,
            c.unit,
            c.spread_min,
            c.spread_max,
        ));
    }
    s
}

/// Deterministic seed ensemble: `seeds[0]` is `base` (the paper's seed),
/// the rest are splitmix64 successors so any two ensembles of the same
/// base share a prefix.
pub fn ensemble_seeds(base: u64, n: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    let mut state = base;
    out.push(base);
    for _ in 1..n {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.push(z ^ (z >> 31));
    }
    out
}

/// Frame-time emission histogram of one injection model: frame-0 flits
/// bucketed into `slots` equal slices of the 33 ms frame time (the
/// Fig. 7 illustration, as data).
pub fn injection_histogram(model: InjectionModel, slots: usize, seed: u64) -> Vec<u32> {
    let tb = TimeBase::default();
    let mut rng = SimRng::seed_from_u64(seed);
    let trace = MpegTrace::generate(&standard_sequences()[0], 1, &tb, &mut rng);
    let mut src = VbrSource::new(
        ConnectionId(0),
        trace,
        model,
        mmr_sim::time::RouterCycle(0),
        &tb,
    );
    let frame_rc = FRAME_TIME_SECS / tb.router_cycle_secs();
    let mut buckets = vec![0u32; slots];
    while let Some(t) = src.peek_next() {
        let f = src.emit();
        if f.frame.expect("VBR flits carry frame info").index > 0 {
            break;
        }
        let slot = ((t.0 as f64 / frame_rc) * slots as f64) as usize;
        buckets[slot.min(slots - 1)] += 1;
    }
    buckets
}

/// The Fig. 7 Back-to-Back peak used by the conformance histograms —
/// sized ~3x a typical I frame so the burst visibly finishes early.
pub const FIG7_BB_PEAK_FLITS: u64 = 2_500;

/// Number of frame-time buckets in the Fig. 7 histograms.
pub const FIG7_SLOTS: usize = 40;

/// What one pack's run produced: the data its claims — and any claim
/// that names it as a panel — are evaluated against.  A router pack
/// fills `points`; the router-less MPEG pack fills the traces and the
/// injection histograms.
#[derive(Debug, Clone, Default)]
pub struct PackData {
    /// Sweep points (each point carries one result per seed).
    pub points: Vec<SweepPoint>,
    /// Synthesized traces: `traces[seed][sequence]`.
    pub traces: Vec<Vec<MpegTrace>>,
    /// Back-to-Back frame-0 histograms, per seed.
    pub bb_hist: Vec<Vec<u32>>,
    /// Smooth-Rate frame-0 histograms, per seed.
    pub sr_hist: Vec<Vec<u32>>,
}

impl PackData {
    /// Synthesize, once per seed, the seven Table 1 sequences (`gops`
    /// GOPs each) and the Fig. 7 frame-0 injection histograms.  No
    /// router runs.
    pub fn traces(seeds: &[u64], gops: usize) -> Self {
        let tb = TimeBase::default();
        let traces = seeds
            .iter()
            .map(|&seed| {
                let root = SimRng::seed_from_u64(seed);
                standard_sequences()
                    .iter()
                    .enumerate()
                    .map(|(i, params)| {
                        let mut rng = root.split(i as u64);
                        MpegTrace::generate(params, gops, &tb, &mut rng)
                    })
                    .collect()
            })
            .collect();
        let bb_model = InjectionModel::back_to_back_for(FIG7_BB_PEAK_FLITS, FRAME_TIME_SECS, &tb);
        PackData {
            points: vec![],
            traces,
            bb_hist: seeds
                .iter()
                .map(|&s| injection_histogram(bb_model, FIG7_SLOTS, s))
                .collect(),
            sr_hist: seeds
                .iter()
                .map(|&s| injection_histogram(InjectionModel::SmoothRate, FIG7_SLOTS, s))
                .collect(),
        }
    }

    /// Number of seeds behind the sweep (every point carries one result
    /// per seed).
    fn seed_count(&self) -> usize {
        self.points.first().map_or(0, |p| p.results.len())
    }
}

/// Every pack's data, by pack name: what claims are evaluated against.
#[derive(Debug, Clone, Default)]
pub struct Ensemble {
    packs: BTreeMap<String, PackData>,
}

impl Ensemble {
    /// Record the data of the pack named `pack`.
    pub fn insert(&mut self, pack: &str, data: PackData) {
        self.packs.insert(pack.to_string(), data);
    }

    /// The data behind a panel.  Pack sets are validated before they run
    /// (`workload_lang::validate_pack_set`), so every panel a compiled
    /// claim names is present.
    pub fn panel(&self, panel: &Panel) -> &PackData {
        self.packs
            .get(&panel.0)
            .unwrap_or_else(|| panic!("no pack named `{}` in the ensemble", panel.0))
    }
}

/// Median of a non-empty slice (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One arbiter's series from a panel, load order preserved.
fn arbiter_series(points: &[SweepPoint], arbiter: ArbiterKind) -> Vec<&SweepPoint> {
    let series: Vec<&SweepPoint> = points.iter().filter(|p| p.arbiter == arbiter).collect();
    assert!(
        !series.is_empty(),
        "panel carries no points for {}",
        arbiter.label()
    );
    series
}

/// The grid point at `at_load` (exact target-load match within 1e-6).
fn point_at<'a>(series: &[&'a SweepPoint], at_load: f64) -> &'a SweepPoint {
    series
        .iter()
        .find(|p| (p.target_load - at_load).abs() < 1e-6)
        .unwrap_or_else(|| {
            panic!(
                "{}: no grid point at load {at_load} (grid: {:?})",
                series[0].arbiter.label(),
                series.iter().map(|p| p.target_load).collect::<Vec<_>>()
            )
        })
}

/// The grid point of one (panel, arbiter) cell at `at_load`.
fn cell<'a>(e: &'a Ensemble, panel: &Panel, arbiter: ArbiterKind, at_load: f64) -> &'a SweepPoint {
    point_at(&arbiter_series(&e.panel(panel).points, arbiter), at_load)
}

/// Rebuild one seed's single-result view of a series, for the
/// saturation detectors (which consume `&[SweepPoint]`).
fn single_seed_series(series: &[&SweepPoint], seed: usize) -> Vec<SweepPoint> {
    series
        .iter()
        .map(|p| SweepPoint {
            arbiter: p.arbiter,
            target_load: p.target_load,
            achieved_load: p.results[seed].achieved_load,
            results: vec![p.results[seed].clone()],
        })
        .collect()
}

/// Saturation load of one seed's series, with the never-saturates case
/// mapped to the last measured load (a conservative stand-in: the true
/// saturation point is at least that far out).
fn saturation_or_last(series: &[&SweepPoint], seed: usize, metric: CurveMetric) -> f64 {
    let single = single_seed_series(series, seed);
    detect_saturation(&single, SaturationCriteria::default(), |p| {
        metric.of(&p.results[0])
    })
    .unwrap_or_else(|| single.last().expect("non-empty series").achieved_load)
}

impl Check {
    /// The grid loads this check anchors at; each must be a swept point
    /// of the pack it reads.
    pub(crate) fn anchor_loads(&self) -> Vec<f64> {
        match *self {
            Check::AtPoint { at_load, .. } | Check::RatioAtPoint { at_load, .. } => vec![at_load],
            Check::WithinFactor { until_load, .. }
            | Check::MonotoneDelay { until_load, .. }
            | Check::ThroughputFloor { until_load, .. }
            | Check::AtMostRatio { until_load, .. }
            | Check::DelayFloor { until_load, .. } => vec![until_load],
            Check::UtilizationScales {
                lo_load, hi_load, ..
            } => vec![lo_load, hi_load],
            _ => vec![],
        }
    }

    /// True for the checks that read synthesized MPEG traces and
    /// injection histograms instead of a sweep.
    pub(crate) fn reads_traces(&self) -> bool {
        matches!(
            self,
            Check::BurstConcentration { .. }
                | Check::SmoothCoverage { .. }
                | Check::SmoothPeak { .. }
                | Check::Sawtooth { .. }
                | Check::AvgRatesWithinFactor { .. }
                | Check::FrameTypeOrdering { .. }
        )
    }

    /// The claim engine's one evaluator: reduce each seed of the
    /// ensemble to this check's scalar, and say how the median is gated
    /// and in what unit.
    pub(crate) fn measure(&self, e: &Ensemble) -> (Vec<f64>, Bound, &'static str) {
        match self {
            Check::SaturationGap {
                panel,
                metric,
                winner,
                loser,
                min_points,
            } => {
                let data = e.panel(panel);
                let win = arbiter_series(&data.points, *winner);
                let lose = arbiter_series(&data.points, *loser);
                let vals = (0..data.seed_count())
                    .map(|s| {
                        let w = saturation_or_last(&win, s, *metric);
                        let l = saturation_or_last(&lose, s, *metric);
                        // A loser that never saturates inside the sweep
                        // cannot demonstrate any gap.
                        let l_saturates = {
                            let single = single_seed_series(&lose, s);
                            detect_saturation(&single, SaturationCriteria::default(), |p| {
                                metric.of(&p.results[0])
                            })
                            .is_some()
                        };
                        if l_saturates {
                            (w - l) * 100.0
                        } else {
                            0.0
                        }
                    })
                    .collect();
                (vals, Bound::AtLeast(*min_points), "load points")
            }
            Check::AtPoint {
                panel,
                metric,
                arbiter,
                at_load,
                bound,
            } => {
                let p = cell(e, panel, *arbiter, *at_load);
                let vals = p.results.iter().map(|r| metric.of(r)).collect();
                (vals, *bound, metric.unit())
            }
            Check::RatioAtPoint {
                metric,
                at_load,
                num,
                den,
                bound,
            } => {
                let np = cell(e, &num.0, num.1, *at_load);
                let dp = cell(e, &den.0, den.1, *at_load);
                let vals = np
                    .results
                    .iter()
                    .zip(&dp.results)
                    .map(|(n, d)| metric.of(n) / metric.of(d).max(1e-9))
                    .collect();
                (vals, *bound, "x")
            }
            Check::WithinFactor {
                panel,
                metric,
                a,
                b,
                until_load,
                max_factor,
            } => {
                let data = e.panel(panel);
                let sa = arbiter_series(&data.points, *a);
                let sb = arbiter_series(&data.points, *b);
                let vals = (0..data.seed_count())
                    .map(|s| {
                        let mut worst = 1.0f64;
                        for (pa, pb) in sa.iter().zip(&sb) {
                            if pa.target_load > until_load + 1e-6 {
                                continue;
                            }
                            let va = metric.of(&pa.results[s]).max(1e-9);
                            let vb = metric.of(&pb.results[s]).max(1e-9);
                            worst = worst.max(va / vb).max(vb / va);
                        }
                        worst
                    })
                    .collect();
                (vals, Bound::AtMost(*max_factor), "x")
            }
            Check::AtMostRatio {
                panel,
                metric,
                numerator,
                denominator,
                until_load,
                max_ratio,
            } => {
                let data = e.panel(panel);
                let ns = arbiter_series(&data.points, *numerator);
                let ds = arbiter_series(&data.points, *denominator);
                let vals = (0..data.seed_count())
                    .map(|s| {
                        let mut worst = 0.0f64;
                        for (np, dp) in ns.iter().zip(&ds) {
                            if np.target_load > until_load + 1e-6 {
                                continue;
                            }
                            let n = metric.of(&np.results[s]).max(1e-9);
                            let d = metric.of(&dp.results[s]).max(1e-9);
                            worst = worst.max(n / d);
                        }
                        worst
                    })
                    .collect();
                (vals, Bound::AtMost(*max_ratio), "x")
            }
            Check::DelayFloor {
                panel,
                metric,
                oracle,
                until_load,
                slack,
            } => {
                let data = e.panel(panel);
                let pts = &data.points;
                let os = arbiter_series(pts, *oracle);
                let vals = (0..data.seed_count())
                    .map(|s| {
                        let mut worst = 1.0f64;
                        for op in os.iter().filter(|p| p.target_load <= until_load + 1e-6) {
                            let oracle_v = metric.of(&op.results[s]).max(1e-9);
                            // Best value any arbiter posts at this load.
                            let best = pts
                                .iter()
                                .filter(|p| (p.target_load - op.target_load).abs() < 1e-6)
                                .map(|p| metric.of(&p.results[s]).max(1e-9))
                                .fold(f64::INFINITY, f64::min);
                            worst = worst.max(oracle_v / best);
                        }
                        worst
                    })
                    .collect();
                (vals, Bound::AtMost(*slack), "x")
            }
            Check::MonotoneDelay {
                panel,
                metric,
                arbiter,
                until_load,
                min_step_ratio,
            } => {
                let data = e.panel(panel);
                let series = arbiter_series(&data.points, *arbiter);
                let vals = (0..data.seed_count())
                    .map(|s| {
                        let prefix: Vec<f64> = series
                            .iter()
                            .filter(|p| p.target_load <= until_load + 1e-6)
                            .map(|p| metric.of(&p.results[s]).max(1e-9))
                            .collect();
                        prefix
                            .windows(2)
                            .map(|w| w[1] / w[0])
                            .fold(f64::INFINITY, f64::min)
                    })
                    .collect();
                (vals, Bound::AtLeast(*min_step_ratio), "step ratio")
            }
            Check::ThroughputFloor {
                panel,
                arbiter,
                until_load,
                min_ratio,
            } => {
                let data = e.panel(panel);
                let series = arbiter_series(&data.points, *arbiter);
                let vals = (0..data.seed_count())
                    .map(|s| {
                        series
                            .iter()
                            .filter(|p| p.target_load <= until_load + 1e-6)
                            .map(|p| p.results[s].summary.throughput_ratio())
                            .fold(f64::INFINITY, f64::min)
                    })
                    .collect();
                (vals, Bound::AtLeast(*min_ratio), "ratio")
            }
            Check::UtilizationScales {
                panel,
                arbiter,
                lo_load,
                hi_load,
                min_ratio_of_ratios,
            } => {
                let data = e.panel(panel);
                let series = arbiter_series(&data.points, *arbiter);
                let lo = point_at(&series, *lo_load);
                let hi = point_at(&series, *hi_load);
                let vals = (0..data.seed_count())
                    .map(|s| {
                        let u_lo = CurveMetric::WindowUtilizationPct
                            .of(&lo.results[s])
                            .max(1e-9);
                        let u_hi = CurveMetric::WindowUtilizationPct.of(&hi.results[s]);
                        let l_lo = lo.results[s].achieved_load.max(1e-9);
                        let l_hi = hi.results[s].achieved_load;
                        (u_hi / u_lo) / (l_hi / l_lo).max(1e-9)
                    })
                    .collect();
                (
                    vals,
                    Bound::AtLeast(*min_ratio_of_ratios),
                    "ratio of ratios",
                )
            }
            Check::BurstConcentration {
                panel,
                within_fraction,
                min_mass,
            } => {
                let vals = e
                    .panel(panel)
                    .bb_hist
                    .iter()
                    .map(|h| {
                        let cut = ((h.len() as f64) * within_fraction).ceil() as usize;
                        let head: u32 = h[..cut.min(h.len())].iter().sum();
                        let total: u32 = h.iter().sum();
                        head as f64 / total.max(1) as f64
                    })
                    .collect();
                (vals, Bound::AtLeast(*min_mass), "mass fraction")
            }
            Check::SmoothCoverage {
                panel,
                min_active_fraction,
            } => {
                let vals = e
                    .panel(panel)
                    .sr_hist
                    .iter()
                    .map(|h| h.iter().filter(|&&b| b > 0).count() as f64 / h.len() as f64)
                    .collect();
                (
                    vals,
                    Bound::AtLeast(*min_active_fraction),
                    "active fraction",
                )
            }
            Check::SmoothPeak {
                panel,
                max_peak_over_mean,
            } => {
                let vals = e
                    .panel(panel)
                    .sr_hist
                    .iter()
                    .map(|h| {
                        let peak = *h.iter().max().expect("non-empty histogram") as f64;
                        let mean = h.iter().sum::<u32>() as f64 / h.len() as f64;
                        peak / mean.max(1e-9)
                    })
                    .collect();
                (vals, Bound::AtMost(*max_peak_over_mean), "peak/mean")
            }
            Check::Sawtooth {
                panel,
                sequence,
                period,
                min_peak_fraction,
            } => {
                let vals = e
                    .panel(panel)
                    .traces
                    .iter()
                    .map(|per_seq| {
                        let trace = &per_seq[*sequence];
                        if *period != GOP_PATTERN.len() || trace.len() % period != 0 {
                            return 0.0; // wrong shape: cannot be the paper's sawtooth
                        }
                        let gops = trace.len() / period;
                        let peaked = trace
                            .frames
                            .chunks(*period)
                            .filter(|gop| {
                                let max = gop.iter().map(|f| f.bits).max().unwrap();
                                gop[0].ty == FrameType::I && gop[0].bits == max
                            })
                            .count();
                        peaked as f64 / gops as f64
                    })
                    .collect();
                (vals, Bound::AtLeast(*min_peak_fraction), "GOP fraction")
            }
            Check::AvgRatesWithinFactor { panel, factor } => {
                let vals = e
                    .panel(panel)
                    .traces
                    .iter()
                    .map(|per_seq| {
                        per_seq
                            .iter()
                            .zip(TABLE1_AVG_MBPS)
                            .map(|(trace, target)| {
                                let m = trace.stats().avg_bandwidth.as_mbps();
                                (m / target).max(target / m)
                            })
                            .fold(0.0f64, f64::max)
                    })
                    .collect();
                (vals, Bound::AtMost(*factor), "x")
            }
            Check::FrameTypeOrdering { panel, min_ratio } => {
                let vals = e
                    .panel(panel)
                    .traces
                    .iter()
                    .map(|per_seq| {
                        per_seq
                            .iter()
                            .map(|trace| {
                                let mean = |ty: FrameType| {
                                    let (mut sum, mut n) = (0u64, 0u64);
                                    for f in &trace.frames {
                                        if f.ty == ty {
                                            sum += f.bits;
                                            n += 1;
                                        }
                                    }
                                    sum as f64 / n.max(1) as f64
                                };
                                let (i, p, b) =
                                    (mean(FrameType::I), mean(FrameType::P), mean(FrameType::B));
                                (i / p.max(1e-9)).min(p / b.max(1e-9))
                            })
                            .fold(f64::INFINITY, f64::min)
                    })
                    .collect();
                (vals, Bound::AtLeast(*min_ratio), "ratio")
            }
            Check::HwRatio {
                axis,
                num,
                den,
                bound,
            } => {
                let (n, d) = (num.cost(), den.cost());
                let ratio = match axis {
                    HwAxis::Area => n.area_ratio(&d),
                    HwAxis::Delay => n.delay_ratio(&d),
                };
                (vec![ratio], *bound, "x")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload_lang::{compile_committed, read_pack_dir, workloads_dir, Fidelity};

    fn compiled(pack: &str, fidelity: Fidelity) -> crate::workload_lang::CompiledPack {
        compile_committed(pack, fidelity).expect("committed pack compiles")
    }

    #[test]
    fn seeds_are_distinct_and_prefix_stable() {
        let five = ensemble_seeds(0xB1ACA, 5);
        let three = ensemble_seeds(0xB1ACA, 3);
        assert_eq!(five[0], 0xB1ACA, "seed 0 is the paper's seed");
        assert_eq!(&five[..3], &three[..], "ensembles share a prefix");
        let mut uniq = five.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 5, "seeds must be distinct: {five:?}");
    }

    #[test]
    fn manifest_ids_are_unique_and_span_all_figures() {
        // `read_pack_dir` validates the committed packs as a set, which
        // rejects a claim id used twice.
        let specs = read_pack_dir(&workloads_dir()).expect("committed packs validate");
        let ids: Vec<String> = specs
            .iter()
            .flat_map(|s| s.claim.iter().flatten().map(|c| c.id.clone()))
            .collect();
        assert!(ids.len() >= 10, "packs hold {} claims", ids.len());
        for figure in ["fig5.", "fig7.", "fig8.", "fig9.", "table1.", "frontier."] {
            assert!(
                ids.iter().any(|id| id.starts_with(figure)),
                "no claim guards {figure}*"
            );
        }
    }

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quick_specs_carry_the_claimed_grid_points() {
        let f5 = compiled("fig5", Fidelity::Quick).sweep;
        assert!(f5.loads.contains(&0.86), "Fig. 5 claims pin 86% load");
        assert!(matches!(f5.base.run, crate::config::RunLength::Cycles(c) if c >= 100_000));
        let f9 = compiled("fig9_sr", Fidelity::Quick).sweep;
        for l in [0.4, 0.6, 0.85] {
            assert!(f9.loads.contains(&l), "Fig. 9 claims pin {l}");
        }
        match f9.base.workload {
            crate::config::WorkloadSpec::Vbr { injection, .. } => {
                assert_eq!(injection, crate::config::InjectionKind::SmoothRate)
            }
            _ => panic!("Fig. 9 spec must be VBR"),
        }
    }

    #[test]
    fn frontier_claims_are_the_frontier_figure_subset() {
        // The frontier pack carries the Frontier claims and nothing else.
        let claims = compiled("frontier", Fidelity::Quick).claims;
        assert!(
            claims.len() >= 4,
            "frontier pack holds {} claims",
            claims.len()
        );
        assert!(claims.iter().all(|c| c.id.starts_with("frontier.")));
        assert!(claims
            .iter()
            .any(|c| c.id == "frontier.coa-within-factor-of-mwm"));
    }

    #[test]
    fn full_specs_include_the_86_point() {
        let f5 = compiled("fig5", Fidelity::Full).sweep;
        assert!(f5.loads.contains(&0.86));
        let sorted = {
            let mut l = f5.loads.clone();
            l.sort_by(|a, b| a.partial_cmp(b).unwrap());
            l
        };
        assert_eq!(f5.loads, sorted, "load grid stays sorted");
    }

    #[test]
    fn injection_histograms_distinguish_the_models() {
        let tb = TimeBase::default();
        let bb = injection_histogram(
            InjectionModel::back_to_back_for(FIG7_BB_PEAK_FLITS, FRAME_TIME_SECS, &tb),
            FIG7_SLOTS,
            7,
        );
        let sr = injection_histogram(InjectionModel::SmoothRate, FIG7_SLOTS, 7);
        // BB: everything early, tail empty.
        let bb_total: u32 = bb.iter().sum();
        let bb_head: u32 = bb[..FIG7_SLOTS / 2].iter().sum();
        assert_eq!(bb_head, bb_total, "BB empties within half the frame");
        assert_eq!(*bb.last().unwrap(), 0);
        // SR: spread across the whole frame.
        let active = sr.iter().filter(|&&b| b > 0).count();
        assert!(active > FIG7_SLOTS * 8 / 10, "SR active buckets: {active}");
    }

    #[test]
    fn trace_checks_pass_without_simulation() {
        // The Table 1 / Fig. 7 claims need no router runs: the MPEG pack
        // synthesizes its traces and histograms directly.
        let pack = compiled("mpeg", Fidelity::Quick);
        let mut e = Ensemble::default();
        e.insert(
            &pack.name,
            pack.run(&mut crate::saturation::ExperimentCache::new()),
        );
        let report = pack.evaluate(&e, Fidelity::Quick);
        assert_eq!(
            report.claims.len(),
            6,
            "three Fig. 7 and three Table 1 claims"
        );
        for o in &report.claims {
            assert!(
                o.pass,
                "{} failed: median {} vs threshold {} ({})",
                o.id, o.median, o.threshold, o.unit
            );
            assert_eq!(o.per_seed.len(), pack.sweep.seeds.len());
            assert!(o.spread_min <= o.median && o.median <= o.spread_max);
        }
    }

    #[test]
    fn report_serializes_and_roundtrips() {
        let outcome = ClaimOutcome::new(
            "x",
            "fig5",
            "d",
            vec![1.5, 0.5, 1.0],
            Bound::AtLeast(0.5),
            "x",
        );
        assert_eq!((outcome.median, outcome.margin), (1.0, 0.5));
        assert_eq!((outcome.spread_min, outcome.spread_max), (0.5, 1.5));
        let flipped = ClaimOutcome::new("x", "fig5", "d", vec![1.0], Bound::AtMost(0.5), "x");
        assert!(!flipped.pass && !flipped.higher_is_better && flipped.margin == -0.5);
        let json = serde_json::to_string(&outcome).unwrap();
        let back: ClaimOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, outcome);
        let text = render_claims(&[outcome, flipped]);
        assert!(text.starts_with("PASS x"));
        assert!(text.contains("\nFAIL x"));
    }
}
