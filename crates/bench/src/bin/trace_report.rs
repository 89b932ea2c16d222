//! Telemetry artifacts: `results/telemetry_<scenario>.json` plus an
//! arbitration grant trace `results/trace_<scenario>.jsonl`.
//!
//! Runs two instrumented scenarios with the telemetry layer armed
//! (`wall_clock` on, so the stage profiler reports real nanoseconds):
//!
//! * `fig5_cbr` — the Fig. 5 CBR mix at offered load 0.7, COA arbiter;
//! * `chaos` — the highest fault-rate point of the chaos sweep, so the
//!   trace contains fault-detected and quarantine events alongside the
//!   grant stream.
//!
//! The JSON report carries the counter registry, per-stage profile,
//! kernel probe totals, and windowed per-class snapshots; the JSONL file
//! is the flight-recorder ring dumped event-per-line.  Pass `--full` for
//! paper-scale runs; quick mode preserves the shapes.

use mmr_bench::{fidelity_from_args, results_dir};
use mmr_core::config::{RunLength, SimConfig};
use mmr_core::experiment::{build_router, build_workload};
use mmr_core::scenarios::{chaos, fig5};
use mmr_router::router::MmrRouter;
use mmr_router::telemetry::TelemetryConfig;
use mmr_sim::engine::{Runner, StopCondition};
use mmr_sim::rng::SimRng;

/// Build the router for `cfg` with faults (if configured) and telemetry
/// armed, mirroring `run_experiment` but keeping the router so the
/// flight recorder can be dumped afterwards.
fn build_instrumented(cfg: &SimConfig) -> MmrRouter {
    let workload = build_workload(cfg);
    let connections = workload.len();
    let mut router = build_router(cfg, workload);
    if let Some(fault) = &cfg.fault {
        let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0xFA17).split(71);
        let plan = fault.plan.generate(cfg.router.ports, connections, &mut rng);
        router.set_faults(plan, fault.profile);
    }
    router.set_telemetry(TelemetryConfig {
        wall_clock: true,
        ..TelemetryConfig::default()
    });
    router
}

/// Run `cfg` instrumented and write the report/trace artifact pair.
fn run_scenario(name: &str, cfg: &SimConfig) {
    let mut router = build_instrumented(cfg);
    let stop = match cfg.run {
        RunLength::Cycles(n) => StopCondition::Cycles(n),
        RunLength::UntilDrained { max_cycles } => StopCondition::ModelDoneOrCycles(max_cycles),
    };
    let outcome = Runner::new(cfg.warmup_cycles, stop).run(&mut router);

    let report = router.telemetry_report();
    let recorder = router.telemetry().recorder();
    println!(
        "  {name}: {} cycles, {} windows, {} trace events recorded ({} retained)",
        outcome.executed,
        report.windows.len(),
        recorder.recorded(),
        recorder.len(),
    );

    let dir = results_dir();
    let json_path = dir.join(format!("telemetry_{name}.json"));
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&json_path, json + "\n").expect("write telemetry report");
    println!("  [written {}]", json_path.display());

    let trace_path = dir.join(format!("trace_{name}.jsonl"));
    std::fs::write(&trace_path, recorder.dump_jsonl()).expect("write trace");
    println!("  [written {}]", trace_path.display());
}

fn main() {
    let fidelity = fidelity_from_args();
    println!("trace_report: {} mode", fidelity.label());

    // Fig. 5 CBR point at load 0.7, COA arbiter (the sweep's base kind).
    let fig5_cfg = fig5(fidelity).base.with_load(0.7);
    run_scenario("fig5_cbr", &fig5_cfg);

    // The hottest chaos point, so fault detections and quarantines show
    // up in the trace next to grants and stalls.  The run is truncated at
    // the fault-window end: the flight recorder retains the newest ring
    // of events, and stopping inside active injection keeps detections
    // in the retained tail instead of only post-window steady state.
    let chaos_spec = chaos(fidelity);
    let mut chaos_cfg = chaos_spec
        .configs()
        .into_iter()
        .next_back()
        .expect("chaos sweep has at least one factor");
    let plan = chaos_cfg.fault.expect("chaos configs carry faults").plan;
    chaos_cfg.run = RunLength::Cycles(plan.window_start + plan.window_len);
    run_scenario("chaos", &chaos_cfg);
}
