//! Tier-1 paper-conformance suite.
//!
//! Runs every committed workload pack at quick fidelity ONCE, through one
//! experiment cache shared across every test here via `OnceLock` — the
//! run `mmr gate` makes — and pins the claims against it: Fig. 5 CBR
//! delay, Fig. 7 injection models, Fig. 8 VBR utilization, Fig. 9 VBR
//! frame delay, Table 1 MPEG-2 statistics, the arbiter frontier, and the
//! scenario packs.  The simulator is deterministic, so these are exact
//! regression gates, not statistical flakes — a failure means a code
//! change moved a figure.
//!
//! Each paper claim's compiled check is also pinned to a literal
//! transcription, and negative controls — artificially inverted claims
//! (WFA outlasting COA, WFA as the delay floor, …) — must FAIL against
//! the same ensemble, proving the checks can actually reject.
//!
//! Every mechanism must earn its place: each arbiter, link-priority
//! function and link policy is named by a passing claim, or the
//! orphan test fails.

use mmr_core::arbiter::hw::HwBlock;
use mmr_core::arbiter::priority::PriorityKind;
use mmr_core::arbiter::scheduler::ArbiterKind;
use mmr_core::conformance::{
    Bound, Check, ClaimOutcome, CurveMetric, CurveValue, Ensemble, HwAxis, Loads, Panel,
};
use mmr_core::router::config::LinkPolicy;
use mmr_core::saturation::ExperimentCache;
use mmr_core::traffic::connection::TrafficClass;
use mmr_core::traffic::mpeg::GOP_PATTERN;
use mmr_core::workload_lang::{
    parse_link_policy, read_pack_dir, workloads_dir, CompiledClaim, CompiledPack, Fidelity,
    PackReport,
};
use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// The committed packs, compiled at quick fidelity.
fn committed_packs() -> Vec<CompiledPack> {
    read_pack_dir(&workloads_dir())
        .expect("committed packs validate as a set")
        .iter()
        .map(|s| s.compile(Fidelity::Quick).expect("pack compiles"))
        .collect()
}

/// Run every pack through `cache`, as `mmr gate` does.
fn run_packs(packs: &[CompiledPack], cache: &mut ExperimentCache) -> Ensemble {
    let mut e = Ensemble::default();
    for pack in packs {
        e.insert(&pack.name, pack.run(cache));
    }
    e
}

/// The shared quick-fidelity gate run plus the cache that built it.
struct GateRun {
    packs: Vec<CompiledPack>,
    ensemble: Ensemble,
    cache: Mutex<ExperimentCache>,
}

fn gate() -> &'static GateRun {
    static CELL: OnceLock<GateRun> = OnceLock::new();
    CELL.get_or_init(|| {
        let packs = committed_packs();
        let mut cache = ExperimentCache::new();
        let ensemble = run_packs(&packs, &mut cache);
        GateRun {
            packs,
            ensemble,
            cache: Mutex::new(cache),
        }
    })
}

fn reports(packs: &[CompiledPack], e: &Ensemble) -> Vec<PackReport> {
    packs
        .iter()
        .map(|p| p.evaluate(e, Fidelity::Quick))
        .collect()
}

fn outcomes(packs: &[CompiledPack], e: &Ensemble) -> Vec<ClaimOutcome> {
    reports(packs, e)
        .into_iter()
        .flat_map(|r| r.claims)
        .collect()
}

/// Judge a hand-built check against the shared ensemble.
fn judge(id: &str, check: Check) -> ClaimOutcome {
    let claim = CompiledClaim {
        id: id.into(),
        description: "negative control".into(),
        check,
    };
    claim.evaluate("negative", &gate().ensemble)
}

/// The 23 paper claims as the retired Rust manifest stated them, with
/// each panel now the pack that carries the sweep.
fn paper_manifest() -> Vec<(&'static str, Check)> {
    use ArbiterKind::{Coa, MwmExact, Wfa};
    use CurveValue::{Cell, OverBest, Ratio, Symmetric};
    use Loads::{At, Until};
    let (fig5, sr, bb, frontier, mpeg) = (
        Panel::new("fig5"),
        Panel::new("fig9_sr"),
        Panel::new("fig9_bb"),
        Panel::new("frontier"),
        Panel::new("mpeg"),
    );
    let high = CurveMetric::ClassDelayUs(TrafficClass::CbrHigh);
    let low = CurveMetric::ClassDelayUs(TrafficClass::CbrLow);
    let frame = CurveMetric::FrameDelayUs;
    let throughput = CurveMetric::ThroughputRatio;
    let frame_fair = ArbiterKind::FrameFair {
        frame: mmr_core::arbiter::frame::DEFAULT_FRAME,
    };
    let cq = ArbiterKind::CrosspointQueued {
        cap: mmr_core::arbiter::cq::DEFAULT_CAP,
    };
    let curve = |metric, loads, value, bound| Check::Curve {
        metric,
        loads,
        value,
        bound,
    };
    let (at_most, at_least) = (Bound::AtMost, Bound::AtLeast);
    vec![
        (
            "fig5.saturation-gap",
            Check::SaturationGap {
                panel: fig5.clone(),
                metric: high,
                winner: Coa,
                loser: Wfa,
                min_points: 8.0,
            },
        ),
        (
            "fig5.coa-high-delay-86",
            curve(high, At(0.86), Cell((fig5.clone(), Coa)), at_most(10.0)),
        ),
        (
            "fig5.wfa-collapse-86",
            curve(
                high,
                At(0.86),
                Ratio((fig5.clone(), Wfa), (fig5.clone(), Coa)),
                at_least(10.0),
            ),
        ),
        (
            "fig5.low-class-parity",
            curve(
                low,
                Until(0.7),
                Symmetric((fig5.clone(), Coa), (fig5.clone(), Wfa)),
                at_most(3.0),
            ),
        ),
        (
            "fig5.medium-class-parity",
            curve(
                CurveMetric::ClassDelayUs(TrafficClass::CbrMedium),
                Until(0.7),
                Symmetric((fig5.clone(), Coa), (fig5.clone(), Wfa)),
                at_most(3.0),
            ),
        ),
        (
            "fig5.coa-high-monotone",
            Check::MonotoneDelay {
                panel: fig5,
                metric: high,
                arbiter: Coa,
                until_load: 0.9,
                min_step_ratio: 0.7,
            },
        ),
        (
            "fig7.bb-burst",
            Check::BurstConcentration {
                panel: mpeg.clone(),
                within_fraction: 0.4,
                min_mass: 0.9,
            },
        ),
        (
            "fig7.sr-coverage",
            Check::SmoothCoverage {
                panel: mpeg.clone(),
                min_active_fraction: 0.8,
            },
        ),
        (
            "fig7.sr-peak-bounded",
            Check::SmoothPeak {
                panel: mpeg.clone(),
                max_peak_over_mean: 2.0,
            },
        ),
        (
            "fig8.overlap",
            curve(
                CurveMetric::WindowUtilizationPct,
                Until(0.6),
                Symmetric((sr.clone(), Coa), (sr.clone(), Wfa)),
                at_most(1.05),
            ),
        ),
        (
            "fig8.utilization-scales",
            Check::UtilizationScales {
                panel: sr.clone(),
                arbiter: Coa,
                lo_load: 0.4,
                hi_load: 0.6,
                min_ratio_of_ratios: 0.85,
            },
        ),
        (
            "fig8.no-throughput-knee",
            curve(
                throughput,
                Until(0.85),
                Cell((sr.clone(), Coa)),
                at_least(0.99),
            ),
        ),
        (
            "fig9.coa-low-delay",
            curve(frame, At(0.6), Cell((sr.clone(), Coa)), at_most(20.0)),
        ),
        (
            "fig9.wfa-worse-at-85",
            curve(
                frame,
                At(0.85),
                Ratio((sr.clone(), Wfa), (sr.clone(), Coa)),
                at_least(2.0),
            ),
        ),
        (
            "fig9.bb-above-sr",
            curve(frame, At(0.6), Ratio((bb, Coa), (sr, Coa)), at_least(1.2)),
        ),
        (
            "table1.rates-within-2x",
            Check::AvgRatesWithinFactor {
                panel: mpeg.clone(),
                factor: 2.0,
            },
        ),
        (
            "table1.frame-ordering",
            Check::FrameTypeOrdering {
                panel: mpeg.clone(),
                min_ratio: 1.1,
            },
        ),
        (
            "table1.sawtooth",
            Check::Sawtooth {
                panel: mpeg,
                sequence: 3,
                period: GOP_PATTERN.len(),
                min_peak_fraction: 0.75,
            },
        ),
        (
            "frontier.coa-within-factor-of-mwm",
            curve(
                high,
                Until(0.86),
                Ratio((frontier.clone(), Coa), (frontier.clone(), MwmExact)),
                at_most(3.0),
            ),
        ),
        (
            "frontier.mwm-delay-floor",
            curve(
                high,
                Until(0.7),
                OverBest((frontier.clone(), MwmExact)),
                at_most(1.5),
            ),
        ),
        (
            "frontier.mwm-approx-tracks-exact",
            curve(
                high,
                Until(0.7),
                Symmetric(
                    (frontier.clone(), MwmExact),
                    (frontier.clone(), ArbiterKind::MwmApprox),
                ),
                at_most(2.0),
            ),
        ),
        (
            "frontier.cq-no-hol-blocking",
            curve(
                throughput,
                Until(0.86),
                Cell((frontier.clone(), cq)),
                at_least(0.97),
            ),
        ),
        (
            "frontier.frame-fair-low-class-parity",
            curve(
                low,
                Until(0.7),
                Symmetric((frontier.clone(), frame_fair), (frontier, Coa)),
                at_most(3.0),
            ),
        ),
    ]
}

#[test]
fn manifest_spans_every_figure_with_at_least_ten_claims() {
    let claims: Vec<CompiledClaim> = committed_packs()
        .into_iter()
        .flat_map(|p| p.claims)
        .collect();
    assert!(
        claims.len() >= 10,
        "the packs must encode >= 10 claims, have {}",
        claims.len()
    );
    for figure in ["fig5.", "fig7.", "fig8.", "fig9.", "table1.", "frontier."] {
        assert!(
            claims.iter().any(|c| c.id.starts_with(figure)),
            "no claim guards {figure}*"
        );
    }
    assert!(
        claims
            .iter()
            .filter(|c| c.id.starts_with("frontier."))
            .count()
            >= 4,
        "the frontier ablation must carry >= 4 claims"
    );
    // The headline Fig. 5 acceptance claims, by construction.
    let check = |id: &str| {
        claims
            .iter()
            .find(|c| c.id == id)
            .unwrap_or_else(|| panic!("{id} exists"))
            .check
            .clone()
    };
    match check("fig5.saturation-gap") {
        Check::SaturationGap {
            winner,
            loser,
            min_points,
            ..
        } => {
            assert_eq!(winner, ArbiterKind::Coa);
            assert_eq!(loser, ArbiterKind::Wfa);
            assert!(min_points >= 8.0, "gap threshold is {min_points}");
        }
        other => panic!("fig5.saturation-gap has wrong check: {other:?}"),
    }
    match check("fig5.coa-high-delay-86") {
        Check::Curve {
            loads: Loads::At(at_load),
            value: CurveValue::Cell((_, arbiter)),
            bound: Bound::AtMost(max_value),
            ..
        } => {
            assert_eq!(arbiter, ArbiterKind::Coa);
            assert!((at_load - 0.86).abs() < 1e-9);
            assert!(max_value <= 10.0, "delay bound is {max_value} us");
        }
        other => panic!("fig5.coa-high-delay-86 has wrong check: {other:?}"),
    }
}

#[test]
fn each_paper_claim_compiles_to_its_transcribed_check() {
    let claims: Vec<CompiledClaim> = committed_packs()
        .into_iter()
        .flat_map(|p| p.claims)
        .collect();
    let manifest = paper_manifest();
    assert_eq!(manifest.len(), 23);
    for (id, want) in manifest {
        let got = claims
            .iter()
            .find(|c| c.id == id)
            .unwrap_or_else(|| panic!("no pack carries {id}"));
        assert_eq!(got.check, want, "{id} compiles to a different check");
    }
}

#[test]
fn every_committed_claim_passes_at_the_ensemble_median() {
    let g = gate();
    let fig5_seeds = g.ensemble.panel(&Panel::new("fig5")).points[0]
        .results
        .len();
    assert!(
        fig5_seeds >= 5,
        "Fig. 5 claims must hold across >= 5 seeds, got {fig5_seeds}"
    );
    let outcomes = outcomes(&g.packs, &g.ensemble);
    assert_eq!(
        outcomes.len(),
        56,
        "23 paper claims, 13 scenario claims, 14 ablation claims, 3 fabric claims and 3 hardware claims"
    );
    let failures: Vec<String> = outcomes
        .iter()
        .filter(|o| !o.pass)
        .map(|o| {
            format!(
                "{} [{}]: median {:.4} vs threshold {:.4} (margin {:+.4} {})",
                o.id, o.pack, o.median, o.threshold, o.margin, o.unit
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "claims regressed:\n{}",
        failures.join("\n")
    );
    for o in &outcomes {
        assert!(
            o.spread_min <= o.median && o.median <= o.spread_max,
            "{}: median {} outside spread [{}, {}]",
            o.id,
            o.median,
            o.spread_min,
            o.spread_max
        );
        assert!(!o.per_seed.is_empty(), "{}: no per-seed values", o.id);
    }
}

#[test]
fn fig5_headline_numbers_hold_with_margin_reported() {
    let g = gate();
    let outcomes = outcomes(&g.packs, &g.ensemble);
    let gap = outcomes
        .iter()
        .find(|o| o.id == "fig5.saturation-gap")
        .unwrap();
    assert!(
        gap.pass && gap.median >= 8.0,
        "COA-over-WFA saturation gap: median {:.2} load points (spread {:.2}..{:.2})",
        gap.median,
        gap.spread_min,
        gap.spread_max
    );
    assert_eq!(gap.per_seed.len(), 5);
    let delay = outcomes
        .iter()
        .find(|o| o.id == "fig5.coa-high-delay-86")
        .unwrap();
    assert!(
        delay.pass && delay.median <= 10.0,
        "COA 55 Mbps delay at 86% load: median {:.2} us",
        delay.median
    );
}

#[test]
fn inverted_claims_fail_against_the_same_ensemble() {
    // Negative control for the CI gate: flipping who the paper says wins
    // must flip the verdict.  If these "pass", the checks are vacuous.
    let high = CurveMetric::ClassDelayUs(TrafficClass::CbrHigh);
    let o = judge(
        "negative.wfa-outlasts-coa",
        Check::SaturationGap {
            panel: Panel::new("fig5"),
            metric: high,
            winner: ArbiterKind::Wfa,
            loser: ArbiterKind::Coa,
            min_points: 8.0,
        },
    );
    assert!(
        !o.pass,
        "inverted saturation-gap claim passed (median {:.2}) — the check cannot reject",
        o.median
    );
    assert!(o.margin < 0.0, "inverted claim must report negative margin");

    let o = judge(
        "negative.wfa-meets-coa-bound",
        Check::Curve {
            metric: high,
            loads: Loads::At(0.86),
            value: CurveValue::Cell((Panel::new("fig5"), ArbiterKind::Wfa)),
            bound: Bound::AtMost(10.0),
        },
    );
    assert!(
        !o.pass,
        "WFA met COA's delay bound at 86% load (median {:.2} us) — no collapse detected",
        o.median
    );

    // The hardware claims with their bounds inverted: the cost model must
    // be able to reject them too.
    for (axis, num, den, t) in [
        (HwAxis::Area, HwBlock::Iabp, HwBlock::Siabp, 20.0),
        (HwAxis::Delay, HwBlock::Iabp, HwBlock::Siabp, 28.0),
        (HwAxis::Area, HwBlock::Coa, HwBlock::Wfa, 1.0),
    ] {
        let o = judge(
            "negative.hw-inverted",
            Check::HwRatio {
                axis,
                num,
                den,
                bound: Bound::AtMost(t),
            },
        );
        assert!(
            !o.pass && o.margin < 0.0,
            "{num:?}/{den:?} {axis:?} <= {t} passed ({:.2}x) — the check cannot reject",
            o.median
        );
    }
}

#[test]
fn report_is_serializable_and_failures_gate() {
    let g = gate();
    for report in reports(&g.packs, &g.ensemble) {
        assert_eq!(report.fidelity, "quick");
        assert!(
            report.claims.iter().all(|c| c.pass),
            "{} must pass",
            report.pack
        );
        let text = report.render_text();
        for claim in &report.claims {
            assert!(text.contains(&claim.id), "render omits {}", claim.id);
            assert_eq!(claim.pack, report.pack);
        }
        let json = serde_json::to_string(&report).expect("serializes");
        let back: PackReport = serde_json::from_str(&json).expect("roundtrips");
        assert_eq!(back, report);
    }
}

#[test]
fn warm_cache_rebuild_simulates_nothing() {
    // Every pack goes through ExperimentCache::run_many; a second run
    // with the warmed cache must be pure lookup — one cache serves the
    // whole gate, so packs that share configs simulate them once.
    let g = gate();
    let mut cache = g.cache.lock().unwrap();
    let misses_before = cache.misses();
    let rebuilt = run_packs(&g.packs, &mut cache);
    assert_eq!(
        cache.misses(),
        misses_before,
        "warm rebuild re-simulated points"
    );
    assert_eq!(
        outcomes(&g.packs, &g.ensemble),
        outcomes(&g.packs, &rebuilt),
        "cached replay changed claim outcomes"
    );
}

#[test]
fn ensemble_grids_match_the_claim_anchors() {
    // Every grid point a claim reads must exist in the sweeps the gate
    // actually runs (validation rejects a pack whose claim anchors off
    // its grid, but this pins the contract explicitly and cheaply).
    let sweep = |name: &str| {
        gate()
            .packs
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("pack {name} runs"))
            .sweep
            .clone()
    };
    let f5 = sweep("fig5");
    assert!(f5.loads.contains(&0.86));
    assert_eq!(f5.arbiters, vec![ArbiterKind::Coa, ArbiterKind::Wfa]);
    let f9 = sweep("fig9_sr");
    for load in [0.4, 0.6, 0.85] {
        assert!(f9.loads.contains(&load), "Fig. 9 grid misses {load}");
    }
    let fr = sweep("frontier");
    for load in [0.5, 0.7, 0.86] {
        assert!(fr.loads.contains(&load), "frontier grid misses {load}");
    }
    assert_eq!(fr.arbiters.len(), 7, "the frontier compares 7 arbiters");
    for kind in [
        ArbiterKind::Coa,
        ArbiterKind::Wfa,
        ArbiterKind::MwmExact,
        ArbiterKind::MwmApprox,
    ] {
        assert!(fr.arbiters.contains(&kind), "frontier grid misses a kind");
    }
}

#[test]
fn frontier_negative_controls_fail_against_the_same_ensemble() {
    // The frontier checks must be able to reject: (1) WFA — which
    // collapses at 86% load — cannot be the panel's delay floor; (2) COA
    // cannot sit within a vanishing factor of the MWM oracle.
    let high = CurveMetric::ClassDelayUs(TrafficClass::CbrHigh);
    let o = judge(
        "negative.wfa-is-the-floor",
        Check::Curve {
            metric: high,
            loads: Loads::Until(0.86),
            value: CurveValue::OverBest((Panel::new("frontier"), ArbiterKind::Wfa)),
            bound: Bound::AtMost(1.5),
        },
    );
    assert!(
        !o.pass,
        "WFA passed as the delay floor (median {:.2}) — the floor check cannot reject",
        o.median
    );
    assert!(o.margin < 0.0);

    let o = judge(
        "negative.coa-equals-mwm",
        Check::Curve {
            metric: high,
            loads: Loads::Until(0.86),
            value: CurveValue::Ratio(
                (Panel::new("frontier"), ArbiterKind::Coa),
                (Panel::new("frontier"), ArbiterKind::MwmExact),
            ),
            bound: Bound::AtMost(1.01),
        },
    );
    assert!(
        !o.pass,
        "COA matched the oracle to 1% (median {:.4}) — the ratio check cannot reject",
        o.median
    );
}

// ---------------------------------------------------------------------------
// Every mechanism is named by a passing claim
// ---------------------------------------------------------------------------

/// A link policy's name, in the packs' spelling.  The match is
/// exhaustive on purpose: a new `LinkPolicy` variant does not compile
/// until it is named here; listed in [`mechanisms`] too, it fails the
/// orphan test until a passing claim runs it.
fn link_policy_label(policy: LinkPolicy) -> &'static str {
    match policy {
        LinkPolicy::Priority => "priority",
        LinkPolicy::SlotTable {
            backfill: false, ..
        } => "tdm",
        LinkPolicy::SlotTable { backfill: true, .. } => "tdm-backfill",
    }
}

/// Every mechanism the simulator offers, by label.
fn mechanisms() -> BTreeSet<String> {
    let arbiters = ArbiterKind::all()
        .into_iter()
        .map(|k| k.label().to_string());
    let priorities = PriorityKind::all()
        .into_iter()
        .map(|k| k.label().to_string());
    let policies = ["priority", "tdm", "tdm-backfill"].map(|name| {
        let label = link_policy_label(parse_link_policy(name).expect("policy parses"));
        assert_eq!(label, name, "one spelling per policy");
        name.to_string()
    });
    arbiters.chain(priorities).chain(policies).collect()
}

/// The (panel, arbiter) cells a check names.
fn named_cells(check: &Check) -> Vec<(&Panel, ArbiterKind)> {
    match check {
        Check::SaturationGap {
            panel,
            winner,
            loser,
            ..
        } => vec![(panel, *winner), (panel, *loser)],
        Check::Curve { value, .. } => value.cells().into_iter().map(|(p, a)| (p, *a)).collect(),
        Check::MonotoneDelay { panel, arbiter, .. }
        | Check::UtilizationScales { panel, arbiter, .. } => vec![(panel, *arbiter)],
        // The trace checks run no router.
        _ => vec![],
    }
}

/// The mechanisms no passing claim of `packs` runs: a claim runs the
/// arbiter of every cell it names, and the priority function and link
/// policy of that cell's pack.
fn orphans(packs: &[CompiledPack], outcomes: &[ClaimOutcome]) -> BTreeSet<String> {
    let mut claimed = BTreeSet::new();
    for claim in packs.iter().flat_map(|p| &p.claims) {
        if !outcomes.iter().any(|o| o.id == claim.id && o.pass) {
            continue;
        }
        for (panel, arbiter) in named_cells(&claim.check) {
            let base = &packs
                .iter()
                .find(|p| p.name == panel.0)
                .unwrap_or_else(|| panic!("{} reads no pack named {}", claim.id, panel.0))
                .sweep
                .base;
            claimed.insert(arbiter.label().to_string());
            claimed.insert(base.priority.label().to_string());
            claimed.insert(link_policy_label(base.router.link_policy).to_string());
        }
    }
    mechanisms().difference(&claimed).cloned().collect()
}

#[test]
fn every_mechanism_is_named_by_a_passing_claim() {
    let g = gate();
    let orphaned = orphans(&g.packs, &outcomes(&g.packs, &g.ensemble));
    assert!(
        orphaned.is_empty(),
        "no passing claim runs {orphaned:?}: give each a claim, or delete it"
    );
}

#[test]
fn removing_a_claim_orphans_the_mechanism_it_names() {
    // Negative control: drop the only claims naming PIM, IABP and the
    // literal slot table from an in-memory copy of the pack set, and
    // the orphan check must name exactly those three.
    let g = gate();
    let outcomes = outcomes(&g.packs, &g.ensemble);
    let mut packs = g.packs.clone();
    for pack in &mut packs {
        pack.claims.retain(|c| {
            ![
                "arbiter_field.pim-starves-high",
                "priority_iabp.tracks-siabp",
                "tdm_sr.collapses",
            ]
            .contains(&c.id.as_str())
        });
    }
    let want: BTreeSet<String> = ["PIM", "IABP", "tdm"].map(String::from).into();
    assert_eq!(orphans(&packs, &outcomes), want);
    // A failing claim names nothing either.
    let mut failing = outcomes.clone();
    for o in &mut failing {
        if o.id == "arbiter_field.random-starves-high" {
            o.pass = false;
        }
    }
    assert_eq!(
        orphans(&g.packs, &failing),
        BTreeSet::from(["Random".to_string()])
    );
}
