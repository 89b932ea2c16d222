//! Declarative scenario-pack runner: sweep every `workloads/*.toml`
//! document across its declared load grid and gate its typed claims.
//!
//! For each pack the runner compiles the document onto the standard
//! sweep machinery, runs the grid through the experiment cache, writes
//! `results/workload_<name>.json` (the [`PackReport`]: claims + curves)
//! plus a text rendering, and re-runs the representative point (highest
//! load, first arbiter) with the observatory armed to produce
//! `results/workload_<name>.html` via the overview dashboard.
//!
//! Flags:
//! * `--list-packs` — parse and validate every pack, print a catalog,
//!   run no simulation (exit 1 on any malformed document);
//! * `--gate` — exit 1 when any pack claim fails its ensemble median;
//! * `--full` — paper-scale fidelity (`[run.full]`/`[sweep.full]`);
//! * `--pack <name>` — restrict to one pack.
//!
//! The pack directory is `workloads/` at the workspace root, or
//! `MMR_WORKLOADS_DIR` when set.

use mmr_bench::overview::{load_bench_trajectory, render_overview, validate_overview};
use mmr_bench::{banner, claim_tally, emit, fidelity_from_args, report_failures, results_dir};
use mmr_core::config::TelemetrySpec;
use mmr_core::conformance::run_sweep_cached;
use mmr_core::experiment::{run_experiment, run_fabric_experiment};
use mmr_core::saturation::ExperimentCache;
use mmr_core::workload_lang::{CompiledPack, WorkloadSpec};
use std::path::{Path, PathBuf};

fn workloads_dir() -> PathBuf {
    std::env::var("MMR_WORKLOADS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workloads"))
}

/// Load every pack document (sorted by file name for stable output).
fn load_specs(only: Option<&str>) -> Vec<(String, WorkloadSpec)> {
    let dir = workloads_dir();
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("toml") | Some("json")
                )
            })
            .collect(),
        Err(e) => {
            eprintln!("workload_runner: cannot read {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    paths.sort();
    let mut specs = Vec::new();
    let mut failed = false;
    for path in paths {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("workload_runner: cannot read {}: {e}", path.display());
                failed = true;
                continue;
            }
        };
        match WorkloadSpec::parse(&text).and_then(|s| s.validate().map(|_| s)) {
            Ok(spec) => {
                if only.map(|n| n == spec.meta.name).unwrap_or(true) {
                    specs.push((path.display().to_string(), spec));
                }
            }
            Err(e) => {
                eprintln!("workload_runner: {} is invalid: {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    if specs.is_empty() {
        eprintln!(
            "workload_runner: no packs matched under {}",
            workloads_dir().display()
        );
        std::process::exit(1);
    }
    specs
}

/// Run a fabric pack: no claims, just per-config summaries.
fn run_fabric_pack(pack: &CompiledPack) -> String {
    let mut lines = Vec::new();
    for cfg in pack.sweep.configs() {
        let r = run_fabric_experiment(&cfg);
        lines.push(format!(
            "{{\"arbiter\": \"{}\", \"target_load\": {}, \"achieved_load\": {}, \
             \"connections\": {}, \"drained\": {}}}",
            cfg.arbiter.label(),
            cfg.workload.target_load(),
            r.achieved_load,
            r.connections,
            r.drained
        ));
    }
    format!(
        "{{\"pack\": \"{}\", \"fabric\": true, \"points\": [{}]}}\n",
        pack.name,
        lines.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let only = args
        .iter()
        .position(|a| a == "--pack")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str());
    let fidelity = fidelity_from_args();
    let gate = args.iter().any(|a| a == "--gate");

    if args.iter().any(|a| a == "--list-packs") {
        let specs = load_specs(only);
        println!(
            "{:<16} {:>6} {:>7} {:>6}  description",
            "pack", "loads", "claims", "seeds"
        );
        println!("{}", "-".repeat(88));
        for (_, spec) in &specs {
            println!(
                "{:<16} {:>6} {:>7} {:>6}  {}",
                spec.meta.name,
                spec.loads(fidelity).len(),
                spec.claim.as_ref().map(|c| c.len()).unwrap_or(0),
                spec.seed_count(fidelity),
                spec.meta.description
            );
        }
        return;
    }

    let specs = load_specs(only);
    let mut cache = ExperimentCache::new();
    let mut any_failed = false;

    for (path, spec) in &specs {
        let pack = match spec.compile(fidelity) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("workload_runner: {path} does not compile: {e}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "running pack {}: {} loads x {} arbiters x {} seeds…",
            pack.name,
            pack.sweep.loads.len(),
            pack.sweep.arbiters.len(),
            pack.sweep.seeds.len()
        );

        if pack.fabric {
            let json = run_fabric_pack(&pack);
            let json_path = results_dir().join(format!("workload_{}.json", pack.name));
            std::fs::write(&json_path, &json).expect("write fabric pack json");
            eprintln!("[written {}]", json_path.display());
            continue;
        }

        let points = run_sweep_cached(&pack.sweep, &mut cache, None);
        let report = pack.evaluate(&points, fidelity);

        let mut out = banner(&format!("Pack {}", pack.name), &pack.description, fidelity);
        out.push_str(&report.render_text());
        out.push_str(&format!("\n{}\n", claim_tally(&report.claims)));
        emit(&format!("workload_{}.txt", pack.name), &out);

        let json = serde_json::to_string(&report).expect("pack report serializes");
        let json_path = results_dir().join(format!("workload_{}.json", pack.name));
        std::fs::write(&json_path, &json).expect("write pack report json");
        eprintln!("[written {}]", json_path.display());

        // Overview dashboard for the representative point: highest load,
        // first arbiter, base seed, observatory armed.
        let peak = pack
            .sweep
            .loads
            .iter()
            .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let mut rep = pack.sweep.base.with_load(peak);
        rep.arbiter = pack.sweep.arbiters[0];
        rep.telemetry = Some(TelemetrySpec::default());
        let result = run_experiment(&rep);
        let scenario = format!("{} @ load {peak}", pack.name);
        let bench = load_bench_trajectory(&results_dir());
        match render_overview(&scenario, &result, &bench) {
            Some(html) => {
                if let Err(e) = validate_overview(&html) {
                    eprintln!("workload_runner: {} overview invalid: {e}", pack.name);
                    std::process::exit(1);
                }
                let html_path = results_dir().join(format!("workload_{}.html", pack.name));
                std::fs::write(&html_path, &html).expect("write pack overview");
                eprintln!("[written {}]", html_path.display());
            }
            None => {
                eprintln!(
                    "workload_runner: {} produced no observatory data",
                    pack.name
                );
                std::process::exit(1);
            }
        }

        if !report_failures(&format!("pack {} FAILED:", pack.name), &report.claims) {
            any_failed = true;
        }
    }

    eprintln!(
        "workload_runner: {} packs, {} simulations, {} cache hits",
        specs.len(),
        cache.misses(),
        cache.hits()
    );
    if gate && any_failed {
        std::process::exit(1);
    }
}
