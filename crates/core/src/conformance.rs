//! Machine-checked paper conformance: typed claims over experiment curves.
//!
//! EXPERIMENTS.md records what of the paper reproduces, but as prose — no
//! test fails when a refactor silently bends a figure's *shape*.  This
//! module turns each figure/table claim into a typed, tolerance-bounded
//! [`Check`] evaluated over a **multi-seed ensemble** of experiment runs,
//! so the reproduction is guarded by `cargo test` and `scripts/ci.sh`
//! rather than by a human re-reading result files.
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
//! The committed claim manifest is [`paper_claims`]; `conformance_report`
//! (mmr-bench) evaluates it and writes `results/conformance.json`, and
//! `tests/conformance.rs` pins it in tier-1.  Workload packs'
//! `[[claim]]`s (`crate::workload_lang`) compile onto the same [`Check`]
//! vocabulary and are judged over [`Panel::Pack`] by the same evaluator.

use crate::config::{InjectionKind, RunLength, SimConfig};
use crate::experiment::ExperimentResult;
use crate::saturation::{detect_saturation, ExperimentCache, SaturationCriteria};
use crate::scenarios::{self, Fidelity};
use crate::sweep::{group_points, SweepPoint, SweepSpec};
use mmr_arbiter::scheduler::ArbiterKind;
use mmr_sim::rng::SimRng;
use mmr_sim::time::TimeBase;
use mmr_traffic::connection::{ConnectionId, TrafficClass};
use mmr_traffic::injection::InjectionModel;
use mmr_traffic::mpeg::{standard_sequences, FrameType, MpegTrace, FRAME_TIME_SECS, GOP_PATTERN};
use mmr_traffic::source::TrafficSource;
use mmr_traffic::vbr::VbrSource;
use serde::{Deserialize, Serialize};

/// Which figure or table of the paper a claim guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Figure {
    /// Fig. 5 — CBR flit delay vs offered load.
    Fig5,
    /// Fig. 7 — VBR injection models.
    Fig7,
    /// Fig. 8 — VBR crossbar utilization vs generated load.
    Fig8,
    /// Fig. 9 — VBR frame delay vs generated load.
    Fig9,
    /// Table 1 — MPEG-2 sequence statistics.
    Table1,
    /// Beyond-the-paper arbiter frontier ablation (EXPERIMENTS.md
    /// "Frontier"): COA measured against the MWM oracle, the greedy
    /// ½-approximation, frame-based fair and crosspoint-queued designs.
    Frontier,
}

impl Figure {
    /// Human label as used in EXPERIMENTS.md.
    pub fn label(self) -> &'static str {
        match self {
            Figure::Fig5 => "Fig. 5",
            Figure::Fig7 => "Fig. 7",
            Figure::Fig8 => "Fig. 8",
            Figure::Fig9 => "Fig. 9",
            Figure::Table1 => "Table 1",
            Figure::Frontier => "Frontier",
        }
    }
}

/// Which ensemble sweep a curve check reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Panel {
    /// The Fig. 5 CBR load sweep.
    Fig5Cbr,
    /// The Fig. 8/9 VBR sweep, Smooth-Rate injection.
    Fig9Sr,
    /// The Fig. 8/9 VBR sweep, Back-to-Back injection.
    Fig9Bb,
    /// The frontier-ablation CBR sweep: the Fig. 5 workload swept over
    /// the full arbiter frontier (COA, WFA, iSLIP, MWM exact + approx,
    /// frame-fair, crosspoint-queued).
    FrontierCbr,
    /// A workload pack's own sweep (`crate::workload_lang`).
    Pack,
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    /// own (panel, arbiter), so one claim may compare two panels.
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
        /// Prefix of the frame time considered, 0–1.
        within_fraction: f64,
        /// Minimum fraction of the frame's flits inside the prefix.
        min_mass: f64,
    },
    /// Smooth-Rate injection: flits land in at least `min_active_fraction`
    /// of the frame-time buckets (Fig. 7b: evenly spread).
    SmoothCoverage {
        /// Minimum fraction of non-empty buckets.
        min_active_fraction: f64,
    },
    /// Smooth-Rate injection: no bucket exceeds `max_peak_over_mean`
    /// times the mean bucket occupancy.
    SmoothPeak {
        /// Maximum allowed peak/mean bucket ratio.
        max_peak_over_mean: f64,
    },
    /// The per-frame rate profile of `sequence`'s trace is a sawtooth:
    /// within at least `min_peak_fraction` of the `period`-frame GOPs,
    /// the I-frame (phase 0) is the largest frame (Fig. 6's shape,
    /// Table 1's burst structure).
    Sawtooth {
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
        /// Maximum allowed max(measured/target, target/measured) over all
        /// seven sequences.
        factor: f64,
    },
    /// I ≫ P ≫ B: for every sequence, mean I/P and P/B frame-size ratios
    /// are at least `min_ratio`.
    FrameTypeOrdering {
        /// Minimum allowed ratio at each step of the ordering.
        min_ratio: f64,
    },
}

/// One claim of the manifest: a check plus its identity and provenance.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// Stable identifier, referenced by EXPERIMENTS.md "enforced by"
    /// notes and by failure output.
    pub id: &'static str,
    /// Figure/table guarded.
    pub figure: Figure,
    /// What the paper (or our deviation record) asserts.
    pub description: &'static str,
    /// The executable check.
    pub check: Check,
}

/// Calibrated Table 1 average rates (Mbps) — the EXPERIMENTS.md record of
/// the synthetic substitution (4 GOPs, seed `0xB1ACA`), in
/// [`standard_sequences`] order.
pub const TABLE1_AVG_MBPS: [f64; 7] = [8.1, 7.5, 8.8, 18.9, 21.9, 12.1, 16.8];

/// The committed claim manifest: every figure/table claim the
/// reproduction enforces.  IDs are stable; EXPERIMENTS.md cross-references
/// them per figure.
pub fn paper_claims() -> Vec<Claim> {
    use ArbiterKind::{Coa, Wfa};
    let high = CurveMetric::ClassDelayUs(TrafficClass::CbrHigh);
    vec![
        // ---- Fig. 5: CBR flit delay, COA vs WFA -----------------------
        Claim {
            id: "fig5.saturation-gap",
            figure: Figure::Fig5,
            description: "COA saturates >= 8 load points later than WFA on the \
                          55 Mbps class (paper: ~13 points, measured full: ~14)",
            check: Check::SaturationGap {
                panel: Panel::Fig5Cbr,
                metric: high,
                winner: Coa,
                loser: Wfa,
                min_points: 8.0,
            },
        },
        Claim {
            id: "fig5.coa-high-delay-86",
            figure: Figure::Fig5,
            description: "COA holds the 55 Mbps class under 10 us mean flit delay \
                          at 86% offered load (measured full: 6.7 us)",
            check: Check::AtPoint {
                panel: Panel::Fig5Cbr,
                metric: high,
                arbiter: Coa,
                at_load: 0.86,
                bound: Bound::AtMost(10.0),
            },
        },
        Claim {
            id: "fig5.wfa-collapse-86",
            figure: Figure::Fig5,
            description: "WFA's 55 Mbps delay at 86% load is >= 10x COA's — \
                          utilization-only scheduling cannot guarantee QoS \
                          (measured full: ~220x)",
            check: Check::RatioAtPoint {
                metric: high,
                at_load: 0.86,
                num: (Panel::Fig5Cbr, Wfa),
                den: (Panel::Fig5Cbr, Coa),
                bound: Bound::AtLeast(10.0),
            },
        },
        Claim {
            id: "fig5.low-class-parity",
            figure: Figure::Fig5,
            description: "the 64 Kbps class sees similar delay under both arbiters \
                          below saturation (within 3x up to 70% load)",
            check: Check::WithinFactor {
                panel: Panel::Fig5Cbr,
                metric: CurveMetric::ClassDelayUs(TrafficClass::CbrLow),
                a: Coa,
                b: Wfa,
                until_load: 0.7,
                max_factor: 3.0,
            },
        },
        Claim {
            id: "fig5.medium-class-parity",
            figure: Figure::Fig5,
            description: "the 1.54 Mbps class sees similar delay under both \
                          arbiters below saturation (within 3x up to 70% load)",
            check: Check::WithinFactor {
                panel: Panel::Fig5Cbr,
                metric: CurveMetric::ClassDelayUs(TrafficClass::CbrMedium),
                a: Coa,
                b: Wfa,
                until_load: 0.7,
                max_factor: 3.0,
            },
        },
        Claim {
            id: "fig5.coa-high-monotone",
            figure: Figure::Fig5,
            description: "COA's 55 Mbps delay curve rises with load (no \
                          consecutive drop below 0.7x up to 90% load)",
            check: Check::MonotoneDelay {
                panel: Panel::Fig5Cbr,
                metric: high,
                arbiter: Coa,
                until_load: 0.9,
                min_step_ratio: 0.7,
            },
        },
        // ---- Fig. 7: injection models ---------------------------------
        Claim {
            id: "fig7.bb-burst",
            figure: Figure::Fig7,
            description: "Back-to-Back emits >= 90% of a frame's flits within the \
                          first 40% of the frame time, then idles",
            check: Check::BurstConcentration {
                within_fraction: 0.4,
                min_mass: 0.9,
            },
        },
        Claim {
            id: "fig7.sr-coverage",
            figure: Figure::Fig7,
            description: "Smooth-Rate spreads a frame's flits across >= 80% of the \
                          frame time",
            check: Check::SmoothCoverage {
                min_active_fraction: 0.8,
            },
        },
        Claim {
            id: "fig7.sr-peak-bounded",
            figure: Figure::Fig7,
            description: "Smooth-Rate emission is even: no frame-time bucket \
                          exceeds 2x the mean",
            check: Check::SmoothPeak {
                max_peak_over_mean: 2.0,
            },
        },
        // ---- Fig. 8: VBR crossbar utilization -------------------------
        Claim {
            id: "fig8.overlap",
            figure: Figure::Fig8,
            description: "COA and WFA utilization curves coincide below \
                          saturation (within 5% up to 60% generated load)",
            check: Check::WithinFactor {
                panel: Panel::Fig9Sr,
                metric: CurveMetric::WindowUtilizationPct,
                a: Coa,
                b: Wfa,
                until_load: 0.6,
                max_factor: 1.05,
            },
        },
        Claim {
            id: "fig8.utilization-scales",
            figure: Figure::Fig8,
            description: "utilization tracks generated load in the overlap \
                          region (util ratio >= 85% of load ratio, 40% -> 60%)",
            check: Check::UtilizationScales {
                panel: Panel::Fig9Sr,
                arbiter: Coa,
                lo_load: 0.4,
                hi_load: 0.6,
                min_ratio_of_ratios: 0.85,
            },
        },
        Claim {
            id: "fig8.no-throughput-knee",
            figure: Figure::Fig8,
            description: "deviation record: our 4x4/k=4 crossbar delivers every \
                          generated flit through 85% load — the paper's knee does \
                          not reproduce; the schedulers differ in who waits",
            check: Check::ThroughputFloor {
                panel: Panel::Fig9Sr,
                arbiter: Coa,
                until_load: 0.85,
                min_ratio: 0.99,
            },
        },
        // ---- Fig. 9: VBR frame delay ----------------------------------
        Claim {
            id: "fig9.coa-low-delay",
            figure: Figure::Fig9,
            description: "COA keeps mean frame delay under 20 us at 60% generated \
                          load (SR; measured full: <= 8.7 us through 80%)",
            check: Check::AtPoint {
                panel: Panel::Fig9Sr,
                metric: CurveMetric::FrameDelayUs,
                arbiter: Coa,
                at_load: 0.6,
                bound: Bound::AtMost(20.0),
            },
        },
        Claim {
            id: "fig9.wfa-worse-at-85",
            figure: Figure::Fig9,
            description: "WFA's frame delay at 85% load is >= 2x COA's (SR; \
                          measured full: 4-22x near the knee, quick ensemble \
                          median ~2.9x)",
            check: Check::RatioAtPoint {
                metric: CurveMetric::FrameDelayUs,
                at_load: 0.85,
                num: (Panel::Fig9Sr, Wfa),
                den: (Panel::Fig9Sr, Coa),
                bound: Bound::AtLeast(2.0),
            },
        },
        Claim {
            id: "fig9.bb-above-sr",
            figure: Figure::Fig9,
            description: "Back-to-Back frame delays sit above Smooth-Rate's below \
                          saturation (>= 1.2x at 60% load, COA)",
            check: Check::RatioAtPoint {
                metric: CurveMetric::FrameDelayUs,
                at_load: 0.6,
                num: (Panel::Fig9Bb, Coa),
                den: (Panel::Fig9Sr, Coa),
                bound: Bound::AtLeast(1.2),
            },
        },
        // ---- Table 1: MPEG-2 statistics -------------------------------
        Claim {
            id: "table1.rates-within-2x",
            figure: Figure::Table1,
            description: "every sequence's average rate is within 2x of the \
                          calibrated Table 1 value",
            check: Check::AvgRatesWithinFactor { factor: 2.0 },
        },
        Claim {
            id: "table1.frame-ordering",
            figure: Figure::Table1,
            description: "I >> P >> B: mean I/P and P/B frame-size ratios exceed \
                          1.1 for every sequence",
            check: Check::FrameTypeOrdering { min_ratio: 1.1 },
        },
        Claim {
            id: "table1.sawtooth",
            figure: Figure::Table1,
            description: "the Flower Garden trace is a 15-frame sawtooth: the \
                          I-frame is the GOP peak in >= 75% of GOPs",
            check: Check::Sawtooth {
                sequence: 3,
                period: GOP_PATTERN.len(),
                min_peak_fraction: 0.75,
            },
        },
        // ---- Frontier: COA vs the beyond-the-paper arbiters -----------
        Claim {
            id: "frontier.coa-within-factor-of-mwm",
            figure: Figure::Frontier,
            description: "COA's 55 Mbps delay never falls more than 3x behind the \
                          exact MWM oracle at any load through 86% — the paper's \
                          heuristic sits close to the optimality frontier \
                          (measured quick: median 1.7x)",
            check: Check::AtMostRatio {
                panel: Panel::FrontierCbr,
                metric: CurveMetric::ClassDelayUs(TrafficClass::CbrHigh),
                numerator: Coa,
                denominator: ArbiterKind::MwmExact,
                until_load: 0.86,
                max_ratio: 3.0,
            },
        },
        Claim {
            id: "frontier.mwm-delay-floor",
            figure: Figure::Frontier,
            description: "MWM-exact is the panel's delay floor: within 1.5x of the \
                          best 55 Mbps delay any arbiter posts through 70% load \
                          (measured quick: median 1.00)",
            check: Check::DelayFloor {
                panel: Panel::FrontierCbr,
                metric: CurveMetric::ClassDelayUs(TrafficClass::CbrHigh),
                oracle: ArbiterKind::MwmExact,
                until_load: 0.7,
                slack: 1.5,
            },
        },
        Claim {
            id: "frontier.mwm-approx-tracks-exact",
            figure: Figure::Frontier,
            description: "the greedy 1/2-approximation tracks the exact oracle on \
                          the 55 Mbps class (within 2x through 70% load; measured \
                          quick: median 1.09x)",
            check: Check::WithinFactor {
                panel: Panel::FrontierCbr,
                metric: CurveMetric::ClassDelayUs(TrafficClass::CbrHigh),
                a: ArbiterKind::MwmExact,
                b: ArbiterKind::MwmApprox,
                until_load: 0.7,
                max_factor: 2.0,
            },
        },
        Claim {
            id: "frontier.cq-no-hol-blocking",
            figure: Figure::Frontier,
            description: "crosspoint queueing removes HOL blocking: the CQ switch \
                          delivers >= 97% of generated flits through 86% load \
                          (measured quick: median 99.5%)",
            check: Check::ThroughputFloor {
                panel: Panel::FrontierCbr,
                arbiter: ArbiterKind::CrosspointQueued {
                    cap: mmr_arbiter::cq::DEFAULT_CAP,
                },
                until_load: 0.86,
                min_ratio: 0.97,
            },
        },
        Claim {
            id: "frontier.frame-fair-low-class-parity",
            figure: Figure::Frontier,
            description: "frame-based fairness does not starve the 64 Kbps class: \
                          its delay stays within 3x of COA's through 70% load \
                          (measured quick: median 1.48x)",
            check: Check::WithinFactor {
                panel: Panel::FrontierCbr,
                metric: CurveMetric::ClassDelayUs(TrafficClass::CbrLow),
                a: ArbiterKind::FrameFair {
                    frame: mmr_arbiter::frame::DEFAULT_FRAME,
                },
                b: Coa,
                until_load: 0.7,
                max_factor: 3.0,
            },
        },
    ]
}

/// Outcome of evaluating one claim over the ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClaimOutcome {
    /// Claim identifier.
    pub id: String,
    /// Figure/table label.
    pub figure: String,
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
    /// spread and margin are computed, for manifest and pack claims alike.
    pub(crate) fn new(
        id: &str,
        figure: &str,
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
            figure: figure.to_string(),
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

/// One line per claim: `PASS fig5.saturation-gap [Fig. 5] 14.63 >= 8 (margin +6.63 …)`.
pub(crate) fn render_claims(claims: &[ClaimOutcome]) -> String {
    let mut s = String::new();
    for c in claims {
        let op = if c.higher_is_better { ">=" } else { "<=" };
        s.push_str(&format!(
            "{} {:<28} [{}] {:.4} {} {:.4} (margin {:+.4} {}, seeds {:.4}..{:.4})\n",
            if c.pass { "PASS" } else { "FAIL" },
            c.id,
            c.figure,
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

/// A full conformance evaluation: the report `conformance_report` writes
/// to `results/conformance.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConformanceReport {
    /// "quick" or "full".
    pub fidelity: String,
    /// Seeds of the CBR (Fig. 5, Fig. 7, Table 1) ensemble.
    pub cbr_seeds: Vec<u64>,
    /// Seeds of the VBR (Fig. 8/9) ensemble.
    pub vbr_seeds: Vec<u64>,
    /// Seeds of the frontier-ablation ensemble.
    pub frontier_seeds: Vec<u64>,
    /// Per-claim outcomes, manifest order.
    pub claims: Vec<ClaimOutcome>,
}

impl ConformanceReport {
    /// Claims that failed.
    pub fn failed(&self) -> Vec<&ClaimOutcome> {
        self.claims.iter().filter(|c| !c.pass).collect()
    }

    /// True when every claim passed.
    pub fn all_pass(&self) -> bool {
        self.claims.iter().all(|c| c.pass)
    }

    /// One line per claim (`render_claims`).
    pub fn render_text(&self) -> String {
        render_claims(&self.claims)
    }
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

/// How the ensemble is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnsembleOptions {
    /// Run scale per point.
    pub fidelity: Fidelity,
    /// Seeds for the CBR ensemble (Fig. 5; also Fig. 7/Table 1 trace
    /// generation).  Default 5.
    pub cbr_seeds: usize,
    /// Seeds for the VBR ensemble (Fig. 8/9).  Default 5 in full
    /// fidelity; 3 in quick, where the drained-GOP runs dominate the
    /// suite's wall clock (DESIGN.md §13).
    pub vbr_seeds: usize,
    /// Seeds for the frontier-ablation ensemble.  Default 3: the panel
    /// runs 7 arbiters per grid point, and its COA/WFA cells dedupe
    /// against the Fig. 5 sweep through the experiment cache only
    /// because the frontier seeds are a prefix of the CBR seeds.
    pub frontier_seeds: usize,
    /// Worker threads for the sweep fan-out (`None` = one per core).
    pub workers: Option<usize>,
}

impl EnsembleOptions {
    /// Defaults for a fidelity: 5 CBR seeds, 5 (full) / 3 (quick) VBR
    /// seeds, 3 frontier seeds.
    pub fn new(fidelity: Fidelity) -> Self {
        EnsembleOptions {
            fidelity,
            cbr_seeds: 5,
            vbr_seeds: match fidelity {
                Fidelity::Quick => 3,
                Fidelity::Full => 5,
            },
            frontier_seeds: 3,
            workers: None,
        }
    }
}

/// The Fig. 5 sweep the conformance engine runs.
///
/// Quick mode uses longer runs than [`scenarios::fig5`]'s smoke grid —
/// 120k cycles instead of 25k — because the saturation gap only becomes
/// visible once WFA's backlog has had time to grow; both modes add the
/// 86% grid point the headline claims are pinned at.
pub fn fig5_conformance_spec(fidelity: Fidelity) -> SweepSpec {
    let mut spec = scenarios::fig5(fidelity);
    if fidelity == Fidelity::Quick {
        spec.base.warmup_cycles = 5_000;
        spec.base.run = RunLength::Cycles(120_000);
        spec.loads = vec![0.3, 0.5, 0.7, 0.76, 0.8, 0.86, 0.9];
    } else if !spec.loads.contains(&0.86) {
        spec.loads.push(0.86);
        spec.loads.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    spec
}

/// The frontier-ablation sweep: the Fig. 5 CBR workload swept over the
/// full arbiter frontier.  The load grid is a subset of the Fig. 5
/// conformance grid in both fidelities, so the COA and WFA cells are
/// cache hits when the Fig. 5 ensemble has already run — only the five
/// beyond-the-paper arbiters simulate fresh points.
pub fn frontier_conformance_spec(fidelity: Fidelity) -> SweepSpec {
    let mut spec = fig5_conformance_spec(fidelity);
    spec.loads = vec![0.5, 0.7, 0.86];
    spec.arbiters = vec![
        ArbiterKind::Coa,
        ArbiterKind::Wfa,
        ArbiterKind::Islip { iterations: 2 },
        ArbiterKind::MwmExact,
        ArbiterKind::MwmApprox,
        ArbiterKind::FrameFair {
            frame: mmr_arbiter::frame::DEFAULT_FRAME,
        },
        ArbiterKind::CrosspointQueued {
            cap: mmr_arbiter::cq::DEFAULT_CAP,
        },
    ];
    spec
}

/// The Fig. 8/9 sweep the conformance engine runs for one injection
/// model.  Quick mode trims the load grid to the three points the claims
/// read (40/60/85%) to keep tier-1 wall clock in minutes.
pub fn fig9_conformance_spec(injection: InjectionKind, fidelity: Fidelity) -> SweepSpec {
    let mut spec = scenarios::fig8_fig9(injection, fidelity);
    if fidelity == Fidelity::Quick {
        spec.loads = vec![0.4, 0.6, 0.85];
    }
    spec
}

/// Run a sweep through the dedup cache: already-measured configs are
/// reused, the misses fan out through `sweep`'s parallel dispatch, and
/// the grouped points come back in spec order either way.
pub fn run_sweep_cached(
    spec: &SweepSpec,
    cache: &mut ExperimentCache,
    workers: Option<usize>,
) -> Vec<SweepPoint> {
    let configs = spec.configs();
    let results = cache.run_many(&configs, workers);
    group_points(spec, results)
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
/// sized ~3x a typical I frame so the burst visibly finishes early (same
/// calibration as the `fig7_injection_models` binary).
pub const FIG7_BB_PEAK_FLITS: u64 = 2_500;

/// Number of frame-time buckets in the Fig. 7 histograms.
pub const FIG7_SLOTS: usize = 40;

/// Everything the claims are evaluated against: the multi-seed sweeps
/// plus the trace/injection data, all deterministic functions of the
/// options and the base seed.  [`Ensemble::build`] fills the paper
/// panels; a workload pack fills only [`Ensemble::pack`].
#[derive(Debug, Clone, Default)]
pub struct Ensemble {
    /// CBR ensemble seeds.
    pub cbr_seeds: Vec<u64>,
    /// VBR ensemble seeds.
    pub vbr_seeds: Vec<u64>,
    /// Frontier-ablation seeds (a prefix of the CBR seeds).
    pub frontier_seeds: Vec<u64>,
    /// Fig. 5 sweep points (each point carries one result per CBR seed).
    pub fig5: Vec<SweepPoint>,
    /// Frontier-ablation sweep points (one result per frontier seed).
    pub frontier: Vec<SweepPoint>,
    /// Fig. 8/9 Smooth-Rate sweep points (one result per VBR seed).
    pub fig9_sr: Vec<SweepPoint>,
    /// Fig. 8/9 Back-to-Back sweep points (one result per VBR seed).
    pub fig9_bb: Vec<SweepPoint>,
    /// A workload pack's sweep points (one result per pack seed).
    pub pack: Vec<SweepPoint>,
    /// Synthesized traces: `traces[seed][sequence]`.
    pub traces: Vec<Vec<MpegTrace>>,
    /// Back-to-Back frame-0 histograms, per CBR seed.
    pub bb_hist: Vec<Vec<u32>>,
    /// Smooth-Rate frame-0 histograms, per CBR seed.
    pub sr_hist: Vec<Vec<u32>>,
}

impl Ensemble {
    /// Build the ensemble, running every simulation point through
    /// `cache` (sweep-warm caches skip already-measured configs).
    pub fn build(options: EnsembleOptions, cache: &mut ExperimentCache) -> Self {
        let base = SimConfig::default().seed;
        let cbr_seeds = ensemble_seeds(base, options.cbr_seeds);
        let vbr_seeds = ensemble_seeds(base, options.vbr_seeds);

        let mut fig5_spec = fig5_conformance_spec(options.fidelity);
        fig5_spec.seeds = cbr_seeds.clone();
        let fig5 = run_sweep_cached(&fig5_spec, cache, options.workers);

        // Run after Fig. 5 so the shared COA/WFA grid cells are cache
        // hits (frontier seeds are a prefix of the CBR seeds).
        let frontier_seeds = ensemble_seeds(base, options.frontier_seeds);
        let mut frontier_spec = frontier_conformance_spec(options.fidelity);
        frontier_spec.seeds = frontier_seeds.clone();
        let frontier = run_sweep_cached(&frontier_spec, cache, options.workers);

        let mut sr_spec = fig9_conformance_spec(InjectionKind::SmoothRate, options.fidelity);
        sr_spec.seeds = vbr_seeds.clone();
        let fig9_sr = run_sweep_cached(&sr_spec, cache, options.workers);

        let mut bb_spec = fig9_conformance_spec(InjectionKind::BackToBack, options.fidelity);
        bb_spec.seeds = vbr_seeds.clone();
        let fig9_bb = run_sweep_cached(&bb_spec, cache, options.workers);

        let gops = match options.fidelity {
            Fidelity::Quick => 4,
            Fidelity::Full => 40,
        };
        let tb = TimeBase::default();
        let traces: Vec<Vec<MpegTrace>> = cbr_seeds
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
        let bb_hist = cbr_seeds
            .iter()
            .map(|&s| injection_histogram(bb_model, FIG7_SLOTS, s))
            .collect();
        let sr_hist = cbr_seeds
            .iter()
            .map(|&s| injection_histogram(InjectionModel::SmoothRate, FIG7_SLOTS, s))
            .collect();

        Ensemble {
            cbr_seeds,
            vbr_seeds,
            frontier_seeds,
            fig5,
            frontier,
            fig9_sr,
            fig9_bb,
            pack: vec![],
            traces,
            bb_hist,
            sr_hist,
        }
    }

    /// The sweep points behind a panel.
    pub fn panel(&self, panel: Panel) -> &[SweepPoint] {
        match panel {
            Panel::Fig5Cbr => &self.fig5,
            Panel::Fig9Sr => &self.fig9_sr,
            Panel::Fig9Bb => &self.fig9_bb,
            Panel::FrontierCbr => &self.frontier,
            Panel::Pack => &self.pack,
        }
    }

    /// Number of seeds behind a panel (every point carries one result
    /// per seed).
    pub fn panel_seed_count(&self, panel: Panel) -> usize {
        self.panel(panel).first().map_or(0, |p| p.results.len())
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
fn cell(e: &Ensemble, (panel, arbiter): (Panel, ArbiterKind), at_load: f64) -> &SweepPoint {
    point_at(&arbiter_series(e.panel(panel), arbiter), at_load)
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

impl Claim {
    /// Evaluate the claim over the ensemble: the per-seed scalar, its
    /// median and spread, and the pass/fail verdict.
    pub fn evaluate(&self, e: &Ensemble) -> ClaimOutcome {
        let (per_seed, bound, unit) = self.check.measure(e);
        ClaimOutcome::new(
            self.id,
            self.figure.label(),
            self.description,
            per_seed,
            bound,
            unit,
        )
    }
}

impl Check {
    /// The claim engine's one evaluator: reduce each seed of the
    /// ensemble to this check's scalar, and say how the median is gated
    /// and in what unit.
    pub(crate) fn measure(&self, e: &Ensemble) -> (Vec<f64>, Bound, &'static str) {
        match *self {
            Check::SaturationGap {
                panel,
                metric,
                winner,
                loser,
                min_points,
            } => {
                let pts = e.panel(panel);
                let win = arbiter_series(pts, winner);
                let lose = arbiter_series(pts, loser);
                let vals = (0..e.panel_seed_count(panel))
                    .map(|s| {
                        let w = saturation_or_last(&win, s, metric);
                        let l = saturation_or_last(&lose, s, metric);
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
                (vals, Bound::AtLeast(min_points), "load points")
            }
            Check::AtPoint {
                panel,
                metric,
                arbiter,
                at_load,
                bound,
            } => {
                let p = cell(e, (panel, arbiter), at_load);
                let vals = p.results.iter().map(|r| metric.of(r)).collect();
                (vals, bound, metric.unit())
            }
            Check::RatioAtPoint {
                metric,
                at_load,
                num,
                den,
                bound,
            } => {
                let (np, dp) = (cell(e, num, at_load), cell(e, den, at_load));
                let vals = np
                    .results
                    .iter()
                    .zip(&dp.results)
                    .map(|(n, d)| metric.of(n) / metric.of(d).max(1e-9))
                    .collect();
                (vals, bound, "x")
            }
            Check::WithinFactor {
                panel,
                metric,
                a,
                b,
                until_load,
                max_factor,
            } => {
                let pts = e.panel(panel);
                let sa = arbiter_series(pts, a);
                let sb = arbiter_series(pts, b);
                let vals = (0..e.panel_seed_count(panel))
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
                (vals, Bound::AtMost(max_factor), "x")
            }
            Check::AtMostRatio {
                panel,
                metric,
                numerator,
                denominator,
                until_load,
                max_ratio,
            } => {
                let pts = e.panel(panel);
                let ns = arbiter_series(pts, numerator);
                let ds = arbiter_series(pts, denominator);
                let vals = (0..e.panel_seed_count(panel))
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
                (vals, Bound::AtMost(max_ratio), "x")
            }
            Check::DelayFloor {
                panel,
                metric,
                oracle,
                until_load,
                slack,
            } => {
                let pts = e.panel(panel);
                let os = arbiter_series(pts, oracle);
                let vals = (0..e.panel_seed_count(panel))
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
                (vals, Bound::AtMost(slack), "x")
            }
            Check::MonotoneDelay {
                panel,
                metric,
                arbiter,
                until_load,
                min_step_ratio,
            } => {
                let series = arbiter_series(e.panel(panel), arbiter);
                let vals = (0..e.panel_seed_count(panel))
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
                (vals, Bound::AtLeast(min_step_ratio), "step ratio")
            }
            Check::ThroughputFloor {
                panel,
                arbiter,
                until_load,
                min_ratio,
            } => {
                let series = arbiter_series(e.panel(panel), arbiter);
                let vals = (0..e.panel_seed_count(panel))
                    .map(|s| {
                        series
                            .iter()
                            .filter(|p| p.target_load <= until_load + 1e-6)
                            .map(|p| p.results[s].summary.throughput_ratio())
                            .fold(f64::INFINITY, f64::min)
                    })
                    .collect();
                (vals, Bound::AtLeast(min_ratio), "ratio")
            }
            Check::UtilizationScales {
                panel,
                arbiter,
                lo_load,
                hi_load,
                min_ratio_of_ratios,
            } => {
                let series = arbiter_series(e.panel(panel), arbiter);
                let lo = point_at(&series, lo_load);
                let hi = point_at(&series, hi_load);
                let vals = (0..e.panel_seed_count(panel))
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
                (vals, Bound::AtLeast(min_ratio_of_ratios), "ratio of ratios")
            }
            Check::BurstConcentration {
                within_fraction,
                min_mass,
            } => {
                let vals = e
                    .bb_hist
                    .iter()
                    .map(|h| {
                        let cut = ((h.len() as f64) * within_fraction).ceil() as usize;
                        let head: u32 = h[..cut.min(h.len())].iter().sum();
                        let total: u32 = h.iter().sum();
                        head as f64 / total.max(1) as f64
                    })
                    .collect();
                (vals, Bound::AtLeast(min_mass), "mass fraction")
            }
            Check::SmoothCoverage {
                min_active_fraction,
            } => {
                let vals = e
                    .sr_hist
                    .iter()
                    .map(|h| h.iter().filter(|&&b| b > 0).count() as f64 / h.len() as f64)
                    .collect();
                (vals, Bound::AtLeast(min_active_fraction), "active fraction")
            }
            Check::SmoothPeak { max_peak_over_mean } => {
                let vals = e
                    .sr_hist
                    .iter()
                    .map(|h| {
                        let peak = *h.iter().max().expect("non-empty histogram") as f64;
                        let mean = h.iter().sum::<u32>() as f64 / h.len() as f64;
                        peak / mean.max(1e-9)
                    })
                    .collect();
                (vals, Bound::AtMost(max_peak_over_mean), "peak/mean")
            }
            Check::Sawtooth {
                sequence,
                period,
                min_peak_fraction,
            } => {
                let vals = e
                    .traces
                    .iter()
                    .map(|per_seq| {
                        let trace = &per_seq[sequence];
                        if period != GOP_PATTERN.len() || trace.len() % period != 0 {
                            return 0.0; // wrong shape: cannot be the paper's sawtooth
                        }
                        let gops = trace.len() / period;
                        let peaked = trace
                            .frames
                            .chunks(period)
                            .filter(|gop| {
                                let max = gop.iter().map(|f| f.bits).max().unwrap();
                                gop[0].ty == FrameType::I && gop[0].bits == max
                            })
                            .count();
                        peaked as f64 / gops as f64
                    })
                    .collect();
                (vals, Bound::AtLeast(min_peak_fraction), "GOP fraction")
            }
            Check::AvgRatesWithinFactor { factor } => {
                let vals = e
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
                (vals, Bound::AtMost(factor), "x")
            }
            Check::FrameTypeOrdering { min_ratio } => {
                let vals = e
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
                (vals, Bound::AtLeast(min_ratio), "ratio")
            }
        }
    }
}

/// Evaluate a claim list over an ensemble.
pub fn evaluate_all(claims: &[Claim], e: &Ensemble) -> Vec<ClaimOutcome> {
    claims.iter().map(|c| c.evaluate(e)).collect()
}

/// Build the ensemble for `options` and evaluate the committed manifest.
pub fn run_conformance(options: EnsembleOptions, cache: &mut ExperimentCache) -> ConformanceReport {
    let ensemble = Ensemble::build(options, cache);
    report_from(&ensemble, options.fidelity)
}

/// Evaluate the committed manifest against an already-built ensemble.
pub fn report_from(ensemble: &Ensemble, fidelity: Fidelity) -> ConformanceReport {
    ConformanceReport {
        fidelity: fidelity.label().to_string(),
        cbr_seeds: ensemble.cbr_seeds.clone(),
        vbr_seeds: ensemble.vbr_seeds.clone(),
        frontier_seeds: ensemble.frontier_seeds.clone(),
        claims: evaluate_all(&paper_claims(), ensemble),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadSpec;

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
        let claims = paper_claims();
        assert!(claims.len() >= 10, "manifest holds {} claims", claims.len());
        let mut ids: Vec<&str> = claims.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate claim id");
        for figure in [
            Figure::Fig5,
            Figure::Fig7,
            Figure::Fig8,
            Figure::Fig9,
            Figure::Table1,
            Figure::Frontier,
        ] {
            assert!(
                claims.iter().any(|c| c.figure == figure),
                "no claim guards {}",
                figure.label()
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
        let f5 = fig5_conformance_spec(Fidelity::Quick);
        assert!(f5.loads.contains(&0.86), "Fig. 5 claims pin 86% load");
        assert!(matches!(f5.base.run, RunLength::Cycles(c) if c >= 100_000));
        let f9 = fig9_conformance_spec(InjectionKind::SmoothRate, Fidelity::Quick);
        for l in [0.4, 0.6, 0.85] {
            assert!(f9.loads.contains(&l), "Fig. 9 claims pin {l}");
        }
        match f9.base.workload {
            WorkloadSpec::Vbr { injection, .. } => {
                assert_eq!(injection, InjectionKind::SmoothRate)
            }
            _ => panic!("Fig. 9 spec must be VBR"),
        }
    }

    #[test]
    fn frontier_spec_loads_are_a_fig5_subset_in_both_fidelities() {
        // The dedup guarantee: every frontier grid point must also be a
        // Fig. 5 grid point, so the COA/WFA cells never simulate twice.
        for fidelity in [Fidelity::Quick, Fidelity::Full] {
            let f5 = fig5_conformance_spec(fidelity);
            let fr = frontier_conformance_spec(fidelity);
            for load in &fr.loads {
                assert!(
                    f5.loads.contains(load),
                    "frontier load {load} missing from the Fig. 5 grid ({fidelity:?})"
                );
            }
            assert_eq!(fr.base, f5.base, "frontier must reuse the Fig. 5 base");
            assert_eq!(fr.arbiters.len(), 7, "the frontier compares 7 arbiters");
            for kind in [ArbiterKind::Coa, ArbiterKind::Wfa, ArbiterKind::MwmExact] {
                assert!(fr.arbiters.contains(&kind));
            }
        }
    }

    #[test]
    fn frontier_claims_are_the_frontier_figure_subset() {
        // The Frontier claims are gated with the rest of the manifest.
        let claims: Vec<Claim> = paper_claims()
            .into_iter()
            .filter(|c| c.figure == Figure::Frontier)
            .collect();
        assert!(
            claims.len() >= 4,
            "frontier manifest holds {} claims",
            claims.len()
        );
        assert!(claims
            .iter()
            .any(|c| c.id == "frontier.coa-within-factor-of-mwm"));
    }

    #[test]
    fn full_specs_include_the_86_point() {
        let f5 = fig5_conformance_spec(Fidelity::Full);
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
        // The Table 1 / Fig. 7 claims need no router runs; build a
        // sweep-free ensemble by hand and evaluate just those claims.
        let options = EnsembleOptions::new(Fidelity::Quick);
        let cbr_seeds = ensemble_seeds(SimConfig::default().seed, options.cbr_seeds);
        let tb = TimeBase::default();
        let traces: Vec<Vec<MpegTrace>> = cbr_seeds
            .iter()
            .map(|&seed| {
                let root = SimRng::seed_from_u64(seed);
                standard_sequences()
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let mut rng = root.split(i as u64);
                        MpegTrace::generate(p, 4, &tb, &mut rng)
                    })
                    .collect()
            })
            .collect();
        let bb_model = InjectionModel::back_to_back_for(FIG7_BB_PEAK_FLITS, FRAME_TIME_SECS, &tb);
        let e = Ensemble {
            cbr_seeds: cbr_seeds.clone(),
            traces,
            bb_hist: cbr_seeds
                .iter()
                .map(|&s| injection_histogram(bb_model, FIG7_SLOTS, s))
                .collect(),
            sr_hist: cbr_seeds
                .iter()
                .map(|&s| injection_histogram(InjectionModel::SmoothRate, FIG7_SLOTS, s))
                .collect(),
            ..Ensemble::default()
        };
        for claim in paper_claims()
            .iter()
            .filter(|c| matches!(c.figure, Figure::Fig7 | Figure::Table1))
        {
            let o = claim.evaluate(&e);
            assert!(
                o.pass,
                "{} failed: median {} vs threshold {} ({})",
                o.id, o.median, o.threshold, o.unit
            );
            assert_eq!(o.per_seed.len(), cbr_seeds.len());
            assert!(o.spread_min <= o.median && o.median <= o.spread_max);
        }
    }

    #[test]
    fn report_serializes_and_roundtrips() {
        let outcome = ClaimOutcome::new(
            "x",
            "Fig. 5",
            "d",
            vec![1.5, 0.5, 1.0],
            Bound::AtLeast(0.5),
            "x",
        );
        assert_eq!((outcome.median, outcome.margin), (1.0, 0.5));
        assert_eq!((outcome.spread_min, outcome.spread_max), (0.5, 1.5));
        let flipped = ClaimOutcome::new("x", "Fig. 5", "d", vec![1.0], Bound::AtMost(0.5), "x");
        assert!(!flipped.pass && !flipped.higher_is_better && flipped.margin == -0.5);
        let report = ConformanceReport {
            fidelity: "quick".into(),
            cbr_seeds: vec![1, 2],
            vbr_seeds: vec![1],
            frontier_seeds: vec![1],
            claims: vec![outcome],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: ConformanceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(report.all_pass());
        assert!(report.failed().is_empty());
        assert!(report.render_text().contains("PASS"));
    }
}
