//! Observability artifacts: `results/metrics.prom` (Prometheus text
//! exposition 0.0.4) and `results/overview.html` (the self-contained QoS
//! dashboard).
//!
//! Runs the Fig. 5 CBR mix at offered load 0.7 with the telemetry layer
//! and QoS observatory armed, then:
//!
//! * writes the full exposition — counter registry, stage profile,
//!   kernel probes, per-class delay/jitter/residency histograms, SLO
//!   counters, and the CAC admission tally — and re-validates it with
//!   the parser in `mmr_sim::telemetry` (declared families, monotone
//!   cumulative buckets, `+Inf`/`_count` agreement);
//! * renders the overview dashboard from the same `ExperimentResult`
//!   plus the `results/BENCH_<n>.json` trajectory, and structurally
//!   validates the artifact (inline JSON parses, every panel present).
//!
//! Exits non-zero if either artifact fails its self-check, so CI can
//! gate on it.  Pass `--full` for the paper-scale run.

use mmr_bench::overview::{load_bench_trajectory, render_overview, validate_overview};
use mmr_bench::{fidelity_from_args, results_dir};
use mmr_core::config::TelemetrySpec;
use mmr_core::experiment::run_experiment;
use mmr_core::scenarios::fig5;
use mmr_sim::telemetry::validate_exposition;

fn main() {
    let fidelity = fidelity_from_args();
    println!("metrics_dump: {} mode", fidelity.label());

    let mut cfg = fig5(fidelity).base.with_load(0.7);
    cfg.telemetry = Some(TelemetrySpec::default());
    let result = run_experiment(&cfg);
    println!(
        "  fig5_cbr @ 0.7: {} cycles, {} connections, {} flits delivered",
        result.executed_cycles, result.connections, result.summary.delivered_flits
    );

    let dir = results_dir();

    // Prometheus exposition, self-checked before it is written.
    let prom = result.prometheus();
    let stats = match validate_exposition(&prom) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("metrics_dump: exposition failed validation: {e}");
            std::process::exit(1);
        }
    };
    let prom_path = dir.join("metrics.prom");
    std::fs::write(&prom_path, &prom).expect("write metrics.prom");
    println!(
        "  [written {} — {} families, {} samples, validated]",
        prom_path.display(),
        stats.families,
        stats.samples
    );

    // Overview dashboard from the same result + the BENCH trajectory.
    let bench = load_bench_trajectory(&dir);
    let html = match render_overview("fig5_cbr @ load 0.7", &result, &bench) {
        Some(html) => html,
        None => {
            eprintln!("metrics_dump: result carried no armed observatory");
            std::process::exit(1);
        }
    };
    if let Err(e) = validate_overview(&html) {
        eprintln!("metrics_dump: overview.html failed validation: {e}");
        std::process::exit(1);
    }
    let html_path = dir.join("overview.html");
    std::fs::write(&html_path, &html).expect("write overview.html");
    println!(
        "  [written {} — {} classes, {} BENCH points, validated]",
        html_path.display(),
        result
            .telemetry
            .as_ref()
            .and_then(|t| t.observatory.as_ref())
            .map(|o| o.classes.len())
            .unwrap_or(0),
        bench.len()
    );
}
