//! # mmr-bench — the benchmark harness
//!
//! `mmr gate` runs every workload pack — the paper's figures, tables,
//! ablations, the chaos, line-network and hardware-cost scenarios — gates
//! their claims (DESIGN.md §4 has the index), and writes each
//! single-router pack's telemetry artifacts.  The two other binaries
//! are performance gates, not scenarios: `bench_report` (kernel numbers
//! into `results/BENCH_<n>.json` for trajectory tracking) and
//! `fabric_report` (fabric scaling).  Micro-benchmarks for the
//! arbitration and priority kernels live under `benches/` and run on the
//! self-contained [`harness`] module (no external benchmark framework).
//!
//! The binaries accept `--full` for paper-scale runs (minutes) and
//! default to a quick mode (seconds) that preserves the shapes.  Results
//! are printed and also written under `results/`.

pub mod harness;
pub mod overview;

use mmr_core::conformance::ClaimOutcome;
use mmr_core::workload_lang::{compile_committed, CompiledPack, Fidelity};
use std::path::{Path, PathBuf};

/// Parse the common CLI convention: `--full` selects paper-scale runs.
pub fn fidelity_from_args() -> Fidelity {
    if std::env::args().any(|a| a == "--full") {
        Fidelity::Full
    } else {
        Fidelity::Quick
    }
}

/// The committed pack `workloads/<name>.toml`, compiled at `fidelity`;
/// exits 1 naming the error when it does not validate.
pub fn committed_pack(name: &str, fidelity: Fidelity) -> CompiledPack {
    compile_committed(name, fidelity).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    })
}

/// Directory where experiment outputs are written (`results/` under the
/// workspace root, or the current directory as a fallback).
pub fn results_dir() -> PathBuf {
    // The bench binaries run from the workspace; prefer a stable location
    // relative to the manifest so `cargo run -p mmr-bench` always lands in
    // the same place.
    let base = std::env::var("MMR_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    std::fs::create_dir_all(&base).ok();
    base
}

/// Print a report section and append it to `results/<name>`.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let path = results_dir().join(name);
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("[written {}]", path.display());
    }
}

/// Standard banner identifying a figure reproduction.
pub fn banner(figure: &str, description: &str, fidelity: Fidelity) -> String {
    let mode = match fidelity {
        Fidelity::Quick => "quick (pass --full for paper-scale runs)",
        Fidelity::Full => "full",
    };
    format!(
        "==============================================================\n\
         {figure}: {description}\n\
         mode: {mode}\n\
         ==============================================================\n"
    )
}

/// `k/n claims pass` — the tally line of every claim gate's report.
pub fn claim_tally(claims: &[ClaimOutcome]) -> String {
    let passed = claims.iter().filter(|c| c.pass).count();
    format!("{passed}/{} claims pass", claims.len())
}

/// Print each failed claim under `header` on stderr; true when none
/// failed.
pub fn report_failures(header: &str, claims: &[ClaimOutcome]) -> bool {
    let failed: Vec<&ClaimOutcome> = claims.iter().filter(|c| !c.pass).collect();
    if failed.is_empty() {
        return true;
    }
    eprintln!("{header}");
    for c in failed {
        eprintln!(
            "  {} [{}]: median {:.4} vs threshold {:.4} (margin {:+.4} {})",
            c.id, c.pack, c.median, c.threshold, c.margin, c.unit
        );
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_after_call() {
        let d = results_dir();
        assert!(d.exists());
    }

    #[test]
    fn banner_mentions_figure() {
        let b = banner("Fig. 5", "flit delay", Fidelity::Quick);
        assert!(b.contains("Fig. 5"));
        assert!(b.contains("--full"));
    }
}
