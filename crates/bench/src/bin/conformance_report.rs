//! Paper-conformance gate: evaluate the committed claim manifest over a
//! multi-seed ensemble and write `results/conformance.json`.
//!
//! Exit status is the gate: 0 when every claim passes at the ensemble
//! median, 1 when any claim regresses — `scripts/ci.sh` runs this in
//! quick fidelity.  The manifest includes the Frontier claims (COA vs the
//! MWM oracle and the other beyond-the-paper arbiters), so this is their
//! gate too.  `--list-claims` prints the manifest (id, figure,
//! description) without running any simulation, so a failing CI line can
//! be matched to its exact claim.

use mmr_bench::{banner, claim_tally, emit, fidelity_from_args, report_failures, results_dir};
use mmr_core::conformance::{paper_claims, run_conformance, EnsembleOptions};
use mmr_core::saturation::ExperimentCache;

fn main() {
    if std::env::args().any(|a| a == "--list-claims") {
        println!("{:<28} {:<8} claim", "id", "figure");
        println!("{}", "-".repeat(96));
        for c in paper_claims() {
            println!("{:<28} {:<8} {}", c.id, c.figure.label(), c.description);
        }
        return;
    }

    let fidelity = fidelity_from_args();
    let options = EnsembleOptions::new(fidelity);
    eprintln!(
        "running conformance ensemble: {} CBR seeds, {} VBR seeds…",
        options.cbr_seeds, options.vbr_seeds
    );
    let mut cache = ExperimentCache::new();
    let report = run_conformance(options, &mut cache);

    let mut out = banner(
        "Conformance",
        "machine-checked paper claims, ensemble median across seeds",
        fidelity,
    );
    out.push_str(&report.render_text());
    out.push_str(&format!(
        "\n{} ({} simulations, {} cache hits)\n",
        claim_tally(&report.claims),
        cache.misses(),
        cache.hits(),
    ));
    emit("conformance.txt", &out);

    let json = serde_json::to_string(&report).expect("report serializes");
    let path = results_dir().join("conformance.json");
    std::fs::write(&path, &json).expect("write conformance.json");
    eprintln!("[written {}]", path.display());

    if !report_failures("conformance FAILED:", &report.claims) {
        std::process::exit(1);
    }
}
