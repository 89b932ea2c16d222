//! Benchmark-trajectory report: `results/BENCH_<n>.json`.
//!
//! Aggregates the hot-path kernel numbers into one machine-readable
//! snapshot so successive revisions can be compared file-to-file:
//!
//! * `schedule_into` ns/op for every arbiter at 4/8/16/64/128/256 ports ×
//!   4 levels (64 = the single-word port-set limit, 128/256 = the two- and
//!   four-word widths), with the matching throughput (grants per second)
//!   each implies;
//! * the optimized COA against its `reference` transcription at
//!   16 ports × 4 levels, with the speedup measured in the same run;
//! * whole-router simulated cycles per second for COA and WFA.
//!
//! Each invocation writes the next free `BENCH_<n>.json` under
//! `results/` (override with `--out <path>`); pass `--quick` for a smoke
//! run with shorter batches.
//!
//! The report also carries a telemetry-overhead section (router step with
//! telemetry disabled vs armed) and a whole-experiment sweep section:
//! the wall clock of a Fig. 5-style CBR run at 0.2/0.6/0.9 normalized
//! load through the engine's one loop (`naive_s`, the column name older
//! reports used for the same cycle-by-cycle loop), with the run's
//! bit-identity asserted across reps.
//!
//! Pass `--gate <baseline.json>` to fail (exit 1) if:
//! * the COA kernel at 16 ports regresses more than
//!   `MMR_KERNEL_GATE_PCT` percent (default 25) against the baseline's
//!   kernel row, or climbs above 0.6x the pre-bit-matrix cost recorded in
//!   the committed `results/BENCH_3.json` (scaled by the naive reference
//!   kernel's same-run cost ratio, which cancels host drift);
//! * the instrumented-but-disabled router step regresses more than
//!   `MMR_TELEMETRY_GATE_PCT` percent (default 10) against the COA router
//!   number in the baseline — the "zero-overhead when disarmed" contract;
//! * the sweep wall clock per cycle regresses more than
//!   `MMR_SWEEP_GATE_PCT` percent (default 35 — whole-run wall clocks are
//!   noisy) against the baseline's `naive_s` rows, when the baseline has
//!   a sweep section.

use mmr_arbiter::candidate::{Candidate, CandidateSet, Priority};
use mmr_arbiter::matching::Matching;
use mmr_arbiter::scheduler::ArbiterKind;
use mmr_bench::harness::{bench_with, Measurement};
use mmr_bench::results_dir;
use mmr_core::config::{RunLength, SimConfig, WorkloadSpec};
use mmr_core::experiment::{build_router, build_workload};
use mmr_router::telemetry::TelemetryConfig;
use mmr_sim::engine::{CycleModel, Runner, StopCondition};
use mmr_sim::rng::SimRng;
use mmr_sim::time::FlitCycle;
use serde_json::Value;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

const LEVELS: usize = 4;

fn candidate_set(ports: usize, seed: u64) -> CandidateSet {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut cs = CandidateSet::new(ports, LEVELS);
    for input in 0..ports {
        let mut cands: Vec<Candidate> = (0..LEVELS)
            .map(|vc| Candidate {
                input,
                vc,
                output: rng.index(ports),
                priority: Priority::new((1u64 << (4 + rng.index(12))) as f64),
            })
            .collect();
        cands.sort_by_key(|c| core::cmp::Reverse(c.priority));
        cs.set_input(input, &cands);
    }
    cs
}

/// Average grants per `schedule_into` call on the benchmark workload.
fn grants_per_call(kind: ArbiterKind, ports: usize) -> f64 {
    let cs = candidate_set(ports, 42);
    let mut sched = kind.instantiate(ports);
    let mut rng = SimRng::seed_from_u64(7);
    let mut out = Matching::new(ports);
    let mut total = 0usize;
    const CALLS: usize = 256;
    for _ in 0..CALLS {
        sched.schedule_into(&cs, &mut rng, &mut out);
        total += out.size();
    }
    total as f64 / CALLS as f64
}

fn measure_kernel(kind: ArbiterKind, ports: usize, samples: usize, target: u128) -> Measurement {
    let cs = candidate_set(ports, 42);
    let mut sched = kind.instantiate(ports);
    let mut rng = SimRng::seed_from_u64(7);
    let mut out = Matching::new(ports);
    bench_with(
        || {
            sched.schedule_into(black_box(&cs), &mut rng, &mut out);
            black_box(&out);
        },
        samples,
        target,
    )
}

fn measure_reference_coa(ports: usize, samples: usize, target: u128) -> Measurement {
    let cs = candidate_set(ports, 42);
    let mut sched = ArbiterKind::Coa.instantiate_reference(ports);
    let mut rng = SimRng::seed_from_u64(7);
    let mut out = Matching::new(ports);
    bench_with(
        || {
            sched.schedule_into(black_box(&cs), &mut rng, &mut out);
            black_box(&out);
        },
        samples,
        target,
    )
}

fn measure_router(kind: ArbiterKind, load: f64, samples: usize, target: u128) -> Measurement {
    measure_router_telemetry(kind, load, samples, target, false)
}

/// Router step throughput with telemetry optionally armed.  Disarmed
/// routers still carry the instrumentation (probes compiled in, masked
/// off) — exactly the configuration the overhead gate polices.
fn measure_router_telemetry(
    kind: ArbiterKind,
    load: f64,
    samples: usize,
    target: u128,
    armed: bool,
) -> Measurement {
    let cfg = SimConfig {
        workload: WorkloadSpec::cbr(load),
        arbiter: kind,
        run: RunLength::Cycles(u64::MAX),
        ..Default::default()
    };
    let mut router = build_router(&cfg, build_workload(&cfg));
    if armed {
        // Worst-case arming: wall-clock stage timing plus tracing.
        router.set_telemetry(TelemetryConfig {
            wall_clock: true,
            ..TelemetryConfig::default()
        });
    }
    let mut t = 0u64;
    bench_with(
        || {
            router.step(FlitCycle(t), true);
            t += 1;
            black_box(t);
        },
        samples,
        target,
    )
}

/// Best-of-`reps` wall clock of a whole Fig. 5-style CBR experiment at
/// `load`.
struct SweepTiming {
    load: f64,
    naive_s: f64,
}

/// Time the run loop on one load point.  Every rep rebuilds the router
/// (timing covers the run loop only, not construction) and the final
/// state — summary, RNG stream position, executed cycles — is asserted
/// identical across reps.
fn measure_sweep_point(load: f64, warmup: u64, cycles: u64, reps: usize) -> SweepTiming {
    let cfg = SimConfig {
        workload: WorkloadSpec::cbr(load),
        warmup_cycles: warmup,
        run: RunLength::Cycles(cycles),
        ..Default::default()
    };
    let runner = Runner::new(warmup, StopCondition::Cycles(cycles));
    let mut best = f64::INFINITY;
    let mut identity = None;
    for _ in 0..reps {
        let mut router = build_router(&cfg, build_workload(&cfg));
        let t0 = Instant::now();
        let out = runner.run(&mut router);
        best = best.min(t0.elapsed().as_secs_f64());
        let probe = (router.summary(), router.rng_fingerprint(), out.executed);
        match &identity {
            Some(prev) => assert_eq!(prev, &probe, "run diverged across reps at load {load}"),
            None => identity = Some(probe),
        }
    }
    SweepTiming {
        load,
        naive_s: best,
    }
}

/// The run length and per-load `naive_s` wall clocks recorded in a
/// previous `BENCH_<n>.json`, if it carries a sweep section.
fn baseline_sweep(path: &Path) -> Option<(u64, Vec<(f64, f64)>)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
    let report = serde_json::parse_value(&text)
        .unwrap_or_else(|e| panic!("parse baseline {}: {e}", path.display()));
    let sweep = report.get("sweep")?;
    let cycles = match sweep.get("run_cycles") {
        Some(Value::U64(n)) => *n,
        _ => return None,
    };
    let rows = match sweep.get("rows") {
        Some(Value::Array(rows)) => rows,
        _ => return None,
    };
    let mut out = Vec::new();
    for row in rows {
        if let (Some(Value::F64(load)), Some(Value::F64(s))) = (row.get("load"), row.get("naive_s"))
        {
            out.push((*load, *s));
        }
    }
    Some((cycles, out))
}

/// The `ns_per_op` a previous `BENCH_<n>.json` recorded for one kernel
/// row, if present.
fn baseline_kernel_ns(path: &Path, label: &str, ports: u64) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let report = serde_json::parse_value(&text).ok()?;
    let rows = match report.get("kernels") {
        Some(Value::Array(rows)) => rows,
        _ => return None,
    };
    for row in rows {
        if let (Some(Value::Str(arbiter)), Some(Value::U64(p)), Some(Value::F64(ns))) =
            (row.get("arbiter"), row.get("ports"), row.get("ns_per_op"))
        {
            if arbiter == label && *p == ports {
                return Some(*ns);
            }
        }
    }
    None
}

/// The naive-reference COA ns/op a previous `BENCH_<n>.json` recorded in
/// its `coa_vs_reference` section, if present.
fn baseline_coa_reference_ns(path: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let report = serde_json::parse_value(&text).ok()?;
    match report.get("coa_vs_reference")?.get("reference_ns_per_op") {
        Some(Value::F64(ns)) => Some(*ns),
        _ => None,
    }
}

/// The COA `ns_per_cycle` recorded in a previous `BENCH_<n>.json`.
fn baseline_router_ns(path: &Path) -> f64 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
    let report = serde_json::parse_value(&text)
        .unwrap_or_else(|e| panic!("parse baseline {}: {e}", path.display()));
    let rows = match report.get("router") {
        Some(Value::Array(rows)) => rows,
        _ => panic!("baseline {} has no router section", path.display()),
    };
    for row in rows {
        if let (Some(Value::Str(arbiter)), Some(Value::F64(ns))) =
            (row.get("arbiter"), row.get("ns_per_cycle"))
        {
            if arbiter == ArbiterKind::Coa.label() {
                return *ns;
            }
        }
    }
    panic!("baseline {} has no COA router row", path.display());
}

/// Next free `BENCH_<n>.json` path under `results/`.
fn next_report_path() -> PathBuf {
    let dir = results_dir();
    for n in 1.. {
        let p = dir.join(format!("BENCH_{n}.json"));
        if !p.exists() {
            return p;
        }
    }
    unreachable!()
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (samples, target) = if quick {
        (3, 1_000_000)
    } else {
        (5, 20_000_000)
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(next_report_path);
    let gate_baseline = args
        .iter()
        .position(|a| a == "--gate")
        .map(|i| PathBuf::from(args.get(i + 1).expect("--gate needs a baseline path")));

    println!(
        "bench_report: {} mode",
        if quick { "quick" } else { "full" }
    );

    // --- Arbitration kernels, all kinds × port counts --------------------
    // 4/8/16 are the paper's sizes; 64 is the single-word limit; 128 and
    // 256 exercise the two- and four-word `PortSet` monomorphizations.
    let mut kernels = Vec::new();
    for ports in [4usize, 8, 16, 64, 128, 256] {
        for kind in ArbiterKind::all() {
            let m = measure_kernel(kind, ports, samples, target);
            let grants = grants_per_call(kind, ports);
            let grants_per_sec = grants * m.per_second();
            println!(
                "  {:<12} {ports:>2} ports  {:>9.1} ns/op  {:>7.2} M match/s  {:>7.2} M grants/s",
                kind.label(),
                m.ns_per_iter,
                m.per_second() / 1e6,
                grants_per_sec / 1e6,
            );
            kernels.push(obj(vec![
                ("arbiter", Value::Str(kind.label().to_string())),
                ("ports", Value::U64(ports as u64)),
                ("levels", Value::U64(LEVELS as u64)),
                ("ns_per_op", Value::F64(m.ns_per_iter)),
                ("matchings_per_sec", Value::F64(m.per_second())),
                ("avg_grants_per_matching", Value::F64(grants)),
                ("grants_per_sec", Value::F64(grants_per_sec)),
            ]));
        }
    }

    // --- COA vs reference at 16 ports ------------------------------------
    let coa = measure_kernel(ArbiterKind::Coa, 16, samples, target);
    let reference = measure_reference_coa(16, samples, target);
    let speedup = reference.ns_per_iter / coa.ns_per_iter;
    println!(
        "  COA 16x16x{LEVELS}: incremental {:.1} ns/op vs reference {:.1} ns/op — {speedup:.2}x",
        coa.ns_per_iter, reference.ns_per_iter,
    );
    let coa_vs_reference = obj(vec![
        ("ports", Value::U64(16)),
        ("levels", Value::U64(LEVELS as u64)),
        ("incremental_ns_per_op", Value::F64(coa.ns_per_iter)),
        ("reference_ns_per_op", Value::F64(reference.ns_per_iter)),
        ("speedup", Value::F64(speedup)),
    ]);

    // --- Whole-router throughput -----------------------------------------
    let mut router_rows = Vec::new();
    let mut coa_disabled_ns = f64::INFINITY;
    for kind in [ArbiterKind::Coa, ArbiterKind::Wfa] {
        let m = measure_router(kind, 0.5, samples, target);
        if kind == ArbiterKind::Coa {
            coa_disabled_ns = m.ns_per_iter;
        }
        println!(
            "  router {:<8} load 0.5: {:>8.0} ns/cycle  {:>8.1} K cycles/s",
            kind.label(),
            m.ns_per_iter,
            m.per_second() / 1e3,
        );
        router_rows.push(obj(vec![
            ("arbiter", Value::Str(kind.label().to_string())),
            ("load", Value::F64(0.5)),
            ("ns_per_cycle", Value::F64(m.ns_per_iter)),
            ("cycles_per_sec", Value::F64(m.per_second())),
        ]));
    }

    // --- Telemetry overhead: disabled vs armed ----------------------------
    let armed = measure_router_telemetry(ArbiterKind::Coa, 0.5, samples, target, true);
    let armed_overhead_pct = (armed.ns_per_iter / coa_disabled_ns - 1.0) * 100.0;
    println!(
        "  telemetry COA load 0.5: disabled {:>8.0} ns/cycle, armed {:>8.0} ns/cycle ({:+.1}%)",
        coa_disabled_ns, armed.ns_per_iter, armed_overhead_pct,
    );
    let telemetry = obj(vec![
        ("arbiter", Value::Str(ArbiterKind::Coa.label().to_string())),
        ("load", Value::F64(0.5)),
        ("disabled_ns_per_cycle", Value::F64(coa_disabled_ns)),
        ("armed_ns_per_cycle", Value::F64(armed.ns_per_iter)),
        ("armed_overhead_pct", Value::F64(armed_overhead_pct)),
    ]);

    // --- Whole-experiment wall clock ---------------------------------------
    // Shorter runs under --quick; the gate compares per-cycle wall clock,
    // so it holds either way.
    let (sweep_warmup, sweep_cycles, sweep_reps) = if quick {
        (2_000, 80_000, 2)
    } else {
        (20_000, 400_000, 3)
    };
    let mut sweep_rows = Vec::new();
    let mut timings = Vec::new();
    for &load in &[0.2, 0.6, 0.9] {
        let t = measure_sweep_point(load, sweep_warmup, sweep_cycles, sweep_reps);
        println!("  sweep load {load}: {:.3}s", t.naive_s);
        sweep_rows.push(obj(vec![
            ("load", Value::F64(t.load)),
            ("naive_s", Value::F64(t.naive_s)),
        ]));
        timings.push(t);
    }
    let sweep = obj(vec![
        ("workload", Value::Str("fig5-cbr".to_string())),
        ("warmup_cycles", Value::U64(sweep_warmup)),
        ("run_cycles", Value::U64(sweep_cycles)),
        ("rows", Value::Array(sweep_rows)),
    ]);

    let report = obj(vec![
        ("schema", Value::Str("mmr-bench-report/1".to_string())),
        (
            "mode",
            Value::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("kernels", Value::Array(kernels)),
        ("coa_vs_reference", coa_vs_reference),
        ("router", Value::Array(router_rows)),
        ("telemetry", telemetry),
        ("sweep", sweep),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write report");
    println!("[written {}]", out_path.display());

    if !quick && speedup < 2.0 {
        eprintln!("warning: COA speedup vs reference below 2x ({speedup:.2}x)");
        std::process::exit(1);
    }

    // --- COA kernel-speed gate --------------------------------------------
    // Two clauses guard the dense bit-matrix rewrite:
    //  * trajectory: COA@16 must not regress more than
    //    `MMR_KERNEL_GATE_PCT` percent (default 25) against the gate
    //    baseline's kernel row;
    //  * floor: COA@16 must stay at or below 0.6x the pre-rewrite cost
    //    recorded in the committed `results/BENCH_3.json` — the rewrite's
    //    headline claim, pinned so later baselines can't ratchet it away.
    // Both clauses re-measure at full fidelity and keep the minimum, like
    // the telemetry gate: quick batches swing ~20% and the gate should
    // only trip on real regressions.
    if let Some(baseline_path) = gate_baseline.as_ref() {
        let mut kernel_failed = false;
        let mut coa16_ns = coa.ns_per_iter;
        for _ in 0..3 {
            let m = measure_kernel(ArbiterKind::Coa, 16, 5, 20_000_000);
            coa16_ns = coa16_ns.min(m.ns_per_iter);
        }
        let kernel_gate_pct: f64 = std::env::var("MMR_KERNEL_GATE_PCT")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(25.0);
        match baseline_kernel_ns(baseline_path, ArbiterKind::Coa.label(), 16) {
            Some(base_ns) => {
                let delta_pct = (coa16_ns / base_ns - 1.0) * 100.0;
                println!(
                    "  gate: COA kernel 16 ports {coa16_ns:.1} ns/op vs baseline {base_ns:.1} \
                     ({delta_pct:+.1}%, limit +{kernel_gate_pct:.0}%)"
                );
                if coa16_ns > base_ns * (1.0 + kernel_gate_pct / 100.0) {
                    eprintln!(
                        "error: COA kernel at 16 ports regressed {delta_pct:.1}% over \
                         baseline {} (limit {kernel_gate_pct:.0}%)",
                        baseline_path.display(),
                    );
                    kernel_failed = true;
                }
            }
            None => println!(
                "  gate: baseline {} has no COA 16-port kernel row; skipping the \
                 kernel trajectory check",
                baseline_path.display()
            ),
        }
        let bench3 = results_dir().join("BENCH_3.json");
        if let Some(pre_rewrite_ns) = baseline_kernel_ns(&bench3, ArbiterKind::Coa.label(), 16) {
            // The floor is machine-normalized: the naive reference kernel
            // is untouched by optimization work, so the ratio of its cost
            // now vs in BENCH_3 measures pure host drift (shared boxes
            // swing 20-40% across days).  Scaling the floor by that ratio
            // keeps the clause equivalent to "COA@16 is at least 1.67x
            // faster than before the bit-matrix rewrite, on this machine,
            // today".
            let mut ref_ns = reference.ns_per_iter;
            for _ in 0..2 {
                let m = measure_reference_coa(16, 5, 20_000_000);
                ref_ns = ref_ns.min(m.ns_per_iter);
            }
            let drift = baseline_coa_reference_ns(&bench3)
                .map(|base_ref| ref_ns / base_ref)
                .unwrap_or(1.0);
            let floor = pre_rewrite_ns * 0.6 * drift;
            println!(
                "  gate: COA kernel 16 ports {coa16_ns:.1} ns/op vs pre-rewrite floor \
                 {floor:.1} (0.6x of BENCH_3's {pre_rewrite_ns:.1}, host drift x{drift:.2} \
                 from the reference kernel)"
            );
            if coa16_ns > floor {
                eprintln!(
                    "error: COA kernel at 16 ports is {coa16_ns:.1} ns/op, above the \
                     0.6x-of-BENCH_3 floor of {floor:.1} (bit-matrix speedup lost)"
                );
                kernel_failed = true;
            }
        }
        if kernel_failed {
            std::process::exit(1);
        }
    }

    // --- Telemetry-overhead gate ------------------------------------------
    if let Some(baseline_path) = gate_baseline {
        let baseline_ns = baseline_router_ns(&baseline_path);
        // Default 10%: the step is fast enough post-calendar that
        // process-to-process measurement spread alone reaches ~8% on a
        // shared box, while the failure this gate exists to catch —
        // armed-path cost leaking into the disarmed step — measures
        // around +100% when it happens, so 10% still has huge margin.
        let gate_pct: f64 = std::env::var("MMR_TELEMETRY_GATE_PCT")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10.0);
        // Re-measure at full fidelity (long batches, even under --quick —
        // quick batches swing ±20%) and keep the minimum: the gate should
        // only trip on a real regression, not a noisy sample.
        let mut gate_ns = coa_disabled_ns;
        for _ in 0..3 {
            let m = measure_router(ArbiterKind::Coa, 0.5, 5, 20_000_000);
            gate_ns = gate_ns.min(m.ns_per_iter);
        }
        let limit = baseline_ns * (1.0 + gate_pct / 100.0);
        let delta_pct = (gate_ns / baseline_ns - 1.0) * 100.0;
        println!(
            "  gate: disabled COA router {gate_ns:.0} ns/cycle vs baseline {baseline_ns:.0} \
             ({delta_pct:+.1}%, limit +{gate_pct:.1}%) [{}]",
            baseline_path.display(),
        );
        if gate_ns > limit {
            eprintln!(
                "error: telemetry-disabled router step regressed {delta_pct:.1}% \
                 over baseline {} (limit {gate_pct:.1}%)",
                baseline_path.display(),
            );
            std::process::exit(1);
        }

        // --- Sweep wall-clock gate ----------------------------------------
        let mut failed = false;
        // The run loop's wall clock against the committed baseline, when
        // it has a sweep section.  Generous default — a
        // multi-second whole-run wall clock swings far more than a
        // min-of-batches ns/cycle number: back-to-back full runs of
        // identical code have measured a 29% spread on the 0.9-load
        // point on a busy shared host, so the default sits just above
        // that.
        let sweep_gate_pct: f64 = std::env::var("MMR_SWEEP_GATE_PCT")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(35.0);
        match baseline_sweep(&baseline_path) {
            Some((base_cycles, baseline_rows)) => {
                for (load, base_s) in baseline_rows {
                    let Some(t) = timings.iter().find(|t| (t.load - load).abs() < 1e-9) else {
                        continue;
                    };
                    // Quick runs are shorter than the committed full-mode
                    // baseline; scale to per-cycle before comparing.
                    let base_per_cycle = base_s / base_cycles as f64;
                    let here_per_cycle = t.naive_s / sweep_cycles as f64;
                    let delta_pct = (here_per_cycle / base_per_cycle - 1.0) * 100.0;
                    println!(
                        "  gate: sweep load {load} {:.2} us/kcycle vs baseline {:.2} \
                         ({delta_pct:+.1}%, limit +{sweep_gate_pct:.0}%)",
                        here_per_cycle * 1e9 / 1e3,
                        base_per_cycle * 1e9 / 1e3,
                    );
                    if delta_pct > sweep_gate_pct {
                        eprintln!(
                            "error: sweep wall clock at load {load} regressed \
                             {delta_pct:.1}% over baseline {} (limit {sweep_gate_pct:.0}%)",
                            baseline_path.display(),
                        );
                        failed = true;
                    }
                }
            }
            None => println!(
                "  gate: baseline {} has no sweep section; \
                 skipping the wall-clock trajectory check",
                baseline_path.display()
            ),
        }
        if failed {
            std::process::exit(1);
        }
    }
}
