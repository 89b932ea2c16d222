//! Fabric scaling report and gate: the 16-router 4×4 mesh at load 0.6
//! (`workloads/fabric_mesh.toml`) executed at worker counts 1/2/8,
//! reporting routers × connections × simulated cycles/sec, with the run
//! results asserted bit-identical across every worker count.  `workers`
//! is the number of chunks the fabric is split into; each row also
//! carries `threads`, the number of threads that ran them
//! (`Fabric::thread_count`: capped at the host's CPUs).  The line
//! network is a workload pack (`workloads/fabric_line.toml`).
//!
//! Flags:
//!
//! * `--full` — paper-scale runs (defaults to a quick smoke mode).
//! * `--merge <bench.json>` — insert/replace the `fabric` key of an
//!   existing `BENCH_<n>.json` (how the fabric section joins the
//!   trajectory); otherwise the section is written standalone to
//!   `results/fabric_report.json`.
//! * `--gate <baseline.json>` — exit 1 unless:
//!   * worker-count bit-identity holds (checked unconditionally — a
//!     violation panics);
//!   * the worker-scaling floor holds.  On hosts with >= 8 CPUs the
//!     8-worker run must reach `MMR_FABRIC_GATE_SPEEDUP` (default 2.5)
//!     times the 1-worker throughput; on smaller hosts a 2.5x wall-clock
//!     speedup is physically impossible, so the clause degrades to an
//!     oversubscription bound — 8 workers must keep at least
//!     `MMR_FABRIC_GATE_OVERSUB` (default 0.25) of the 1-worker
//!     throughput, i.e. the epoch hand-off must not collapse under
//!     more workers than cores (the fabric caps its threads at the
//!     host's CPUs, so such a host measures around 1x; the failure
//!     mode this clause catches is an oversubscribed spin);
//!   * the 1-worker fabric throughput has not regressed more than
//!     `MMR_FABRIC_GATE_PCT` percent (default 35) against the
//!     baseline's fabric section.  A single-router reference run
//!     measured both here and in the baseline normalizes for host
//!     drift, but only *downward*: a slower host lowers the bar
//!     proportionally, while a faster reference never raises it above
//!     the baseline's raw number — the reference and the fabric do not
//!     co-vary tightly enough under scheduler noise to trust the
//!     normalization in the demanding direction.

use mmr_bench::{committed_pack, fidelity_from_args, results_dir};
use mmr_core::config::{RunLength, SimConfig, WorkloadSpec};
use mmr_core::experiment::{build_fabric, build_fabric_workload, build_router, build_workload};
use mmr_core::workload_lang::Fidelity;
use mmr_router::fabric::FabricRunOutcome;
use mmr_sim::engine::{Runner, StopCondition};
use serde_json::Value;
use std::path::PathBuf;
use std::time::Instant;

/// Wall-clock one fabric run (construction excluded) and return the
/// identity probe for cross-worker comparison.
type FabricProbe = (
    mmr_router::fabric::FabricSummary,
    Vec<u64>,
    FabricRunOutcome,
);

/// One worker count's measurement.
struct Measured {
    workers: usize,
    /// Threads the `workers` chunks ran on (`Fabric::thread_count`).
    threads: usize,
    /// Best wall clock over the reps.
    secs: f64,
    connections: usize,
    probe: FabricProbe,
}

fn measure_fabric(cfg: &SimConfig, workers: usize, reps: usize) -> Measured {
    let spec = cfg.fabric.expect("fabric config");
    let (RunLength::Cycles(cycles) | RunLength::UntilDrained { max_cycles: cycles }) = cfg.run;
    let mut best = f64::INFINITY;
    let mut connections = 0;
    let mut threads = 0;
    let mut probe: Option<FabricProbe> = None;
    for _ in 0..reps {
        let w = build_fabric_workload(cfg, &spec);
        connections = w.len();
        let mut fabric = build_fabric(cfg, &spec, w);
        threads = fabric.thread_count(workers);
        let t0 = Instant::now();
        let out = fabric.run_parallel(cfg.warmup_cycles, cycles, workers, true);
        best = best.min(t0.elapsed().as_secs_f64());
        let p = (fabric.summary(), fabric.rng_fingerprints(), out);
        match &probe {
            Some(prev) => assert_eq!(prev, &p, "fabric run not deterministic across reps"),
            None => probe = Some(p),
        }
    }
    Measured {
        workers,
        threads,
        secs: best,
        connections,
        probe: probe.expect("at least one rep"),
    }
}

/// Single-router reference throughput (simulated cycles/sec) used to
/// drift-normalize the trajectory clause: the single-router step is
/// untouched by fabric work, so its speed ratio between this run and
/// the baseline's recorded value measures pure host drift.
///
/// The run length is fixed (not tied to the fabric's cycle budget):
/// a single router simulates hundreds of kilocycles per second, so the
/// fabric's quick-mode budget would finish in ~25 ms — short enough
/// that scheduler noise on a shared host swings the "drift" by 2x and
/// poisons the normalization.  250k cycles keeps each sample above a
/// quarter second.
fn measure_router_ref(warmup: u64, reps: usize) -> f64 {
    let cycles = 250_000u64;
    let cfg = SimConfig {
        workload: WorkloadSpec::cbr(0.6),
        warmup_cycles: warmup,
        run: RunLength::Cycles(cycles),
        ..Default::default()
    };
    let runner = Runner::new(warmup, StopCondition::Cycles(cycles));
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut router = build_router(&cfg, build_workload(&cfg));
        let t0 = Instant::now();
        runner.run_horizon(&mut router);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    cycles as f64 / best
}

/// The 1-worker fabric cycles/sec and reference cycles/sec recorded in a
/// previous report's fabric section, if present.
fn baseline_fabric(path: &PathBuf) -> Option<(f64, f64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let report = serde_json::parse_value(&text).ok()?;
    let fabric = report.get("fabric")?;
    let reference = match fabric.get("ref_router_cycles_per_sec") {
        Some(Value::F64(v)) => *v,
        _ => return None,
    };
    let rows = match fabric.get("rows") {
        Some(Value::Array(rows)) => rows,
        _ => return None,
    };
    for row in rows {
        if let (Some(Value::U64(1)), Some(Value::F64(cps))) =
            (row.get("workers"), row.get("cycles_per_sec"))
        {
            return Some((*cps, reference));
        }
    }
    None
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fidelity = fidelity_from_args();
    let merge_path = args
        .iter()
        .position(|a| a == "--merge")
        .map(|i| PathBuf::from(args.get(i + 1).expect("--merge needs a path")));
    let gate_baseline = args
        .iter()
        .position(|a| a == "--gate")
        .map(|i| PathBuf::from(args.get(i + 1).expect("--gate needs a baseline path")));

    // --- Fabric scaling: 4x4 mesh, load 0.6, workers 1/2/8 ---------------
    let cfg = committed_pack("fabric_mesh", fidelity)
        .sweep
        .configs()
        .remove(0);
    let (RunLength::Cycles(cycles) | RunLength::UntilDrained { max_cycles: cycles }) = cfg.run;
    let reps = match fidelity {
        Fidelity::Quick => 2,
        Fidelity::Full => 3,
    };
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "fabric scaling: {} · {} cycles · host has {host_cpus} CPU(s)",
        cfg.fabric.expect("scenario has fabric").topology.label(),
        cycles,
    );
    let results: Vec<Measured> = [1usize, 2, 8]
        .into_iter()
        .map(|workers| {
            let m = measure_fabric(&cfg, workers, reps);
            println!(
                "  workers {workers} on {} thread(s): {:>7.3}s  {:>9.0} cycles/s  \
                 ({} routers, {} connections)",
                m.threads,
                m.secs,
                cycles as f64 / m.secs,
                m.probe.0.nodes,
                m.connections
            );
            m
        })
        .collect();
    // Bit-identity across every measured worker count — the tentpole
    // contract.  A violation is a correctness bug, not a perf miss.
    for m in &results[1..] {
        assert_eq!(
            results[0].probe, m.probe,
            "fabric output diverged between 1 and {} workers",
            m.workers
        );
    }
    println!("  bit-identity: summaries, RNG fingerprints and outcomes agree across workers");
    let ref_cps = measure_router_ref(cfg.warmup_cycles, reps);
    println!("  reference single-router run: {ref_cps:>9.0} cycles/s");

    let cps = |m: &Measured| cycles as f64 / m.secs;
    let w1_cps = cps(&results[0]);
    let rows = results
        .iter()
        .map(|m| {
            obj(vec![
                ("workers", Value::U64(m.workers as u64)),
                ("threads", Value::U64(m.threads as u64)),
                ("secs", Value::F64(m.secs)),
                ("cycles_per_sec", Value::F64(cps(m))),
                ("speedup_vs_1_worker", Value::F64(cps(m) / w1_cps)),
                ("executed_cycles", Value::U64(m.probe.2.executed)),
                ("skipped_cycles", Value::U64(m.probe.2.skipped)),
            ])
        })
        .collect();
    let fabric_section = obj(vec![
        ("schema", Value::Str("mmr-fabric-report/1".to_string())),
        ("mode", Value::Str(fidelity.label().to_string())),
        (
            "topology",
            Value::Str(cfg.fabric.expect("fabric").topology.label()),
        ),
        ("routers", Value::U64(results[0].probe.0.nodes as u64)),
        ("connections", Value::U64(results[0].connections as u64)),
        ("load", Value::F64(cfg.workload.target_load())),
        ("warmup_cycles", Value::U64(cfg.warmup_cycles)),
        ("run_cycles", Value::U64(cycles)),
        ("host_cpus", Value::U64(host_cpus as u64)),
        ("bit_identical", Value::Bool(true)),
        ("ref_router_cycles_per_sec", Value::F64(ref_cps)),
        ("rows", Value::Array(rows)),
    ]);

    // --- Persist: merge into a BENCH report or write standalone -----------
    match &merge_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let mut report = serde_json::parse_value(&text)
                .unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
            match &mut report {
                Value::Object(fields) => {
                    fields.retain(|(k, _)| k != "fabric");
                    fields.push(("fabric".to_string(), fabric_section));
                }
                _ => panic!("{} is not a JSON object", path.display()),
            }
            let json = serde_json::to_string_pretty(&report).expect("report serializes");
            std::fs::write(path, json + "\n").expect("write merged report");
            println!("[fabric section merged into {}]", path.display());
        }
        None => {
            let path = results_dir().join("fabric_report.json");
            let json = serde_json::to_string_pretty(&fabric_section).expect("serializes");
            std::fs::write(&path, json + "\n").expect("write fabric report");
            println!("[written {}]", path.display());
        }
    }

    // --- Gate --------------------------------------------------------------
    let Some(baseline_path) = gate_baseline else {
        return;
    };
    let mut failed = false;

    // Worker-scaling clause, core-aware.  The 2.5x floor is a statement
    // about the sharded executor, which only multicore hardware can
    // witness; on fewer cores the measurable contract is that
    // oversubscription does not collapse throughput.
    let w8_cps = results
        .iter()
        .find(|m| m.workers == 8)
        .map(cps)
        .expect("8-worker row");
    let speedup8 = w8_cps / w1_cps;
    if host_cpus >= 8 {
        let floor = env_f64("MMR_FABRIC_GATE_SPEEDUP", 2.5);
        println!(
            "  gate: 8-worker speedup {speedup8:.2}x vs 1 worker (floor {floor:.1}x, \
             {host_cpus} CPUs)"
        );
        if speedup8 < floor {
            eprintln!(
                "error: 8-worker fabric throughput is {speedup8:.2}x the 1-worker run \
                 (gate requires >= {floor:.1}x on a {host_cpus}-CPU host)"
            );
            failed = true;
        }
    } else {
        let floor = env_f64("MMR_FABRIC_GATE_OVERSUB", 0.25);
        println!(
            "  gate: host has {host_cpus} CPU(s) (< 8) — 2.5x wall-clock scaling is not \
             measurable here; applying the oversubscription floor instead: \
             8-worker throughput {speedup8:.2}x of 1-worker (floor {floor:.2}x)"
        );
        if speedup8 < floor {
            eprintln!(
                "error: 8 workers on a {host_cpus}-CPU host retain only {speedup8:.2}x \
                 of 1-worker throughput (floor {floor:.2}x) — epoch hand-off overhead \
                 is collapsing the fabric"
            );
            failed = true;
        }
    }

    // Trajectory clause: 1-worker throughput vs the committed baseline,
    // drift-normalized by the single-router reference.
    let gate_pct = env_f64("MMR_FABRIC_GATE_PCT", 35.0);
    match baseline_fabric(&baseline_path) {
        Some((base_w1_cps, base_ref_cps)) => {
            // Downward-only: a slow host lowers the bar, a fast
            // reference run never raises it (see module docs).
            let drift = (ref_cps / base_ref_cps).min(1.0);
            let normalized = base_w1_cps * drift;
            let delta_pct = (1.0 - w1_cps / normalized) * 100.0;
            let (change, word) = if delta_pct > 0.0 {
                (delta_pct, "slower")
            } else {
                (-delta_pct, "faster")
            };
            println!(
                "  gate: 1-worker fabric {w1_cps:.0} cycles/s vs baseline {base_w1_cps:.0} \
                 (host drift x{drift:.2} -> normalized {normalized:.0}; \
                 {change:.1}% {word}, limit {gate_pct:.0}% slower)"
            );
            if w1_cps < normalized * (1.0 - gate_pct / 100.0) {
                eprintln!(
                    "error: 1-worker fabric throughput regressed {delta_pct:.1}% against \
                     baseline {} (limit {gate_pct:.0}%)",
                    baseline_path.display()
                );
                failed = true;
            }
        }
        None => println!(
            "  gate: baseline {} has no fabric section (pre-fabric report); \
             skipping the trajectory check",
            baseline_path.display()
        ),
    }

    if failed {
        std::process::exit(1);
    }
}
