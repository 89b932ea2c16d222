//! Tier-1 paper-conformance suite (ISSUE 5 tentpole).
//!
//! Builds the quick-fidelity multi-seed ensemble ONCE (shared across
//! every test here via `OnceLock`) and pins the committed claim manifest
//! against it: Fig. 5 CBR delay, Fig. 7 injection models, Fig. 8 VBR
//! utilization, Fig. 9 VBR frame delay, Table 1 MPEG-2 statistics.  The
//! simulator is deterministic, so these are exact regression gates, not
//! statistical flakes — a failure means a code change moved a figure.
//!
//! Also includes the negative control: an artificially inverted claim
//! (WFA outlasting COA) must FAIL against the same ensemble, proving the
//! checks can actually reject.

use mmr_core::arbiter::scheduler::ArbiterKind;
use mmr_core::conformance::{
    evaluate_all, paper_claims, report_from, Bound, Check, Claim, CurveMetric, Ensemble,
    EnsembleOptions, Figure, Panel,
};
use mmr_core::saturation::ExperimentCache;
use mmr_core::scenarios::Fidelity;
use mmr_core::sweep::SweepSpec;
use mmr_core::traffic::connection::TrafficClass;
use std::sync::{Mutex, OnceLock};

/// The shared quick-fidelity ensemble plus the cache that built it.
fn ensemble() -> &'static (Ensemble, Mutex<ExperimentCache>) {
    static CELL: OnceLock<(Ensemble, Mutex<ExperimentCache>)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut cache = ExperimentCache::new();
        let e = Ensemble::build(EnsembleOptions::new(Fidelity::Quick), &mut cache);
        (e, Mutex::new(cache))
    })
}

#[test]
fn manifest_spans_every_figure_with_at_least_ten_claims() {
    let claims = paper_claims();
    assert!(
        claims.len() >= 10,
        "manifest must encode >= 10 claims, has {}",
        claims.len()
    );
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
    assert!(
        claims
            .iter()
            .filter(|c| c.figure == Figure::Frontier)
            .count()
            >= 4,
        "the frontier ablation must carry >= 4 claims"
    );
    // The headline Fig. 5 acceptance claims, by construction.
    let gap = claims
        .iter()
        .find(|c| c.id == "fig5.saturation-gap")
        .expect("gap claim exists");
    match gap.check {
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
    let delay = claims
        .iter()
        .find(|c| c.id == "fig5.coa-high-delay-86")
        .expect("delay claim exists");
    match delay.check {
        Check::AtPoint {
            arbiter,
            at_load,
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
fn every_committed_claim_passes_at_the_ensemble_median() {
    let (e, _) = ensemble();
    assert!(
        e.cbr_seeds.len() >= 5,
        "Fig. 5 claims must hold across >= 5 seeds, got {}",
        e.cbr_seeds.len()
    );
    let outcomes = evaluate_all(&paper_claims(), e);
    let failures: Vec<String> = outcomes
        .iter()
        .filter(|o| !o.pass)
        .map(|o| {
            format!(
                "{} [{}]: median {:.4} vs threshold {:.4} (margin {:+.4} {})",
                o.id, o.figure, o.median, o.threshold, o.margin, o.unit
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "paper claims regressed:\n{}",
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
    let (e, _) = ensemble();
    let outcomes = evaluate_all(&paper_claims(), e);
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
    assert_eq!(gap.per_seed.len(), e.cbr_seeds.len());
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
    let (e, _) = ensemble();
    let high = CurveMetric::ClassDelayUs(TrafficClass::CbrHigh);
    let inverted_gap = Claim {
        id: "negative.wfa-outlasts-coa",
        figure: Figure::Fig5,
        description: "artificially inverted: WFA saturates >= 8 points after COA",
        check: Check::SaturationGap {
            panel: Panel::Fig5Cbr,
            metric: high,
            winner: ArbiterKind::Wfa,
            loser: ArbiterKind::Coa,
            min_points: 8.0,
        },
    };
    let o = inverted_gap.evaluate(e);
    assert!(
        !o.pass,
        "inverted saturation-gap claim passed (median {:.2}) — the check cannot reject",
        o.median
    );
    assert!(o.margin < 0.0, "inverted claim must report negative margin");

    let inverted_delay = Claim {
        id: "negative.wfa-meets-coa-bound",
        figure: Figure::Fig5,
        description: "artificially inverted: WFA holds COA's 10 us bound at 86%",
        check: Check::AtPoint {
            panel: Panel::Fig5Cbr,
            metric: high,
            arbiter: ArbiterKind::Wfa,
            at_load: 0.86,
            bound: Bound::AtMost(10.0),
        },
    };
    let o = inverted_delay.evaluate(e);
    assert!(
        !o.pass,
        "WFA met COA's delay bound at 86% load (median {:.2} us) — no collapse detected",
        o.median
    );
}

#[test]
fn report_is_serializable_and_failures_gate() {
    let (e, _) = ensemble();
    let report = report_from(e, Fidelity::Quick);
    assert_eq!(report.fidelity, "quick");
    assert!(report.all_pass(), "committed manifest must pass");
    assert!(report.failed().is_empty());
    let text = report.render_text();
    for claim in paper_claims() {
        assert!(text.contains(claim.id), "render omits {}", claim.id);
    }
    let json = serde_json::to_string(&report).expect("serializes");
    let back: mmr_core::conformance::ConformanceReport =
        serde_json::from_str(&json).expect("roundtrips");
    assert_eq!(back, report);
}

#[test]
fn warm_cache_rebuild_simulates_nothing() {
    // The ensemble runner goes through ExperimentCache::run_many; a
    // second build with the warmed cache must be pure lookup — this is
    // what lets conformance piggyback on sweeps CI already ran.
    let (e, cache) = ensemble();
    let mut cache = cache.lock().unwrap();
    let misses_before = cache.misses();
    let rebuilt = Ensemble::build(EnsembleOptions::new(Fidelity::Quick), &mut cache);
    assert_eq!(
        cache.misses(),
        misses_before,
        "warm rebuild re-simulated points"
    );
    assert_eq!(rebuilt.fig5.len(), e.fig5.len());
    let before = evaluate_all(&paper_claims(), e);
    let after = evaluate_all(&paper_claims(), &rebuilt);
    assert_eq!(before, after, "cached replay changed claim outcomes");
}

#[test]
fn ensemble_grids_match_the_claim_anchors() {
    // Every grid point a claim reads must exist in the specs the
    // ensemble actually runs (point_at panics at evaluation time too,
    // but this pins the contract explicitly and cheaply).
    let f5: SweepSpec = mmr_core::conformance::fig5_conformance_spec(Fidelity::Quick);
    assert!(f5.loads.contains(&0.86));
    assert_eq!(f5.arbiters.len(), 2, "Fig. 5 compares COA vs WFA");
    for kind in [ArbiterKind::Coa, ArbiterKind::Wfa] {
        assert!(f5.arbiters.contains(&kind));
    }
    let f9 = mmr_core::conformance::fig9_conformance_spec(
        mmr_core::config::InjectionKind::SmoothRate,
        Fidelity::Quick,
    );
    for load in [0.4, 0.6, 0.85] {
        assert!(f9.loads.contains(&load), "Fig. 9 grid misses {load}");
    }
    let fr = mmr_core::conformance::frontier_conformance_spec(Fidelity::Quick);
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
    let (e, _) = ensemble();
    let high = CurveMetric::ClassDelayUs(TrafficClass::CbrHigh);
    let wfa_floor = Claim {
        id: "negative.wfa-is-the-floor",
        figure: Figure::Frontier,
        description: "artificially inverted: WFA is the panel's delay floor",
        check: Check::DelayFloor {
            panel: Panel::FrontierCbr,
            metric: high,
            oracle: ArbiterKind::Wfa,
            until_load: 0.86,
            slack: 1.5,
        },
    };
    let o = wfa_floor.evaluate(e);
    assert!(
        !o.pass,
        "WFA passed as the delay floor (median {:.2}) — DelayFloor cannot reject",
        o.median
    );
    assert!(o.margin < 0.0);

    let vanishing = Claim {
        id: "negative.coa-equals-mwm",
        figure: Figure::Frontier,
        description: "artificially tight: COA within 1.01x of the MWM oracle",
        check: Check::AtMostRatio {
            panel: Panel::FrontierCbr,
            metric: high,
            numerator: ArbiterKind::Coa,
            denominator: ArbiterKind::MwmExact,
            until_load: 0.86,
            max_ratio: 1.01,
        },
    };
    let o = vanishing.evaluate(e);
    assert!(
        !o.pass,
        "COA matched the oracle to 1% (median {:.4}) — AtMostRatio cannot reject",
        o.median
    );
}
