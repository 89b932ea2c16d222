//! Traced pass: the per-layer metrics.  Every pass runs four probes: the
//! stage-by-stage replay of the workload's router configuration, an
//! armed/disarmed pair on the same configuration, the fabric probe and the
//! sweep probe.  Reported values are medians over the passes.  Nothing
//! here feeds an end-to-end number.

#[path = "../replay.rs"]
mod replay;

use mmr_benchmark::host::{self, Control};
use mmr_benchmark::report::{host_note, obj, write_out_file, Report};
use mmr_benchmark::spans::SpanRecorder;
use mmr_benchmark::stats::median;
use mmr_benchmark::sut::{self, WorkloadId, DEFAULT_SEED};
use mmr_core::config::SimConfig;
use replay::{Replay, ReplayResult, STAGES};
use serde_json::Value;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// Passes run even when `--seconds` is already spent.
const MIN_PASSES: usize = 2;
/// Raw spans are kept for this many measured cycles of the first pass.
const RAW_CYCLES: u64 = 2_000;
/// The replay stands in for `MmrRouter::step` only while it runs about as
/// fast and its stage spans cover the timed loop.
const STEP_RATIO_RANGE: std::ops::RangeInclusive<f64> = 0.85..=1.15;
const MIN_SPAN_COVERAGE: f64 = 0.98;

/// Per-pass samples of every per-layer metric, by name, with its unit.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, (&'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0
            .entry(name)
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }
}

/// The replay against `MmrRouter::step` on one configuration.
struct ReplayProbe {
    step_s: f64,
    untimed_s: f64,
    timed_s: f64,
    recorder: SpanRecorder,
    counts: replay::Counts,
    /// Both replays reproduced the router's result.
    equivalent: bool,
}

fn replay_probe(cfg: &SimConfig, control: &mut Control) -> ReplayProbe {
    let (warmup, total) = (cfg.warmup_cycles, sut::total_cycles(cfg));
    let driven = sut::drive_router(cfg, control);
    let reference =
        ReplayResult::of_router(driven.router.summary(), driven.router.rng_fingerprint());
    let mut untimed = Replay::new(cfg);
    let untimed_s = untimed.run(warmup, total, &mut ());
    let mut timed = Replay::new(cfg);
    let mut recorder = SpanRecorder::new(&STAGES, RAW_CYCLES);
    let timed_s = timed.run(warmup, total, &mut recorder);
    ReplayProbe {
        step_s: driven.run.work_s,
        untimed_s,
        timed_s,
        counts: timed.counts,
        equivalent: untimed.result() == reference && timed.result() == reference,
        recorder,
    }
}

/// One pass of all four probes; returns the failed checks.
fn pass(
    w: WorkloadId,
    seed: u64,
    with_sweep_probe: bool,
    control: &mut Control,
    samples: &mut Samples,
    raw_spans: &mut Option<String>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let cfg = sut::router_config(w, seed);

    let r = replay_probe(&cfg, control);
    if !r.equivalent {
        failures.push("replay result differs from MmrRouter".to_string());
    }
    let c = r.counts;
    let cycles = c.cycles as f64;
    let stage_ns = |i: usize| r.recorder.stats()[i].total_ns as f64;
    samples.push("traffic.source.ns_per_cycle", "ns", stage_ns(0) / cycles);
    samples.push(
        "traffic.calendar.due_ratio",
        "ratio",
        c.sources_due as f64 / c.sources_scanned.max(1) as f64,
    );
    samples.push(
        "router.link_scheduler.ns_per_cycle",
        "ns",
        stage_ns(1) / cycles,
    );
    samples.push(
        "router.link_scheduler.ns_per_vc_scanned",
        "ns",
        stage_ns(1) / c.vcs_scanned.max(1) as f64,
    );
    samples.push(
        "router.link_scheduler.offer_ratio",
        "ratio",
        c.offered as f64 / c.vcs_scanned.max(1) as f64,
    );
    samples.push("arbiter.kernel.ns_per_cycle", "ns", stage_ns(2) / cycles);
    samples.push(
        "arbiter.kernel.ns_per_grant",
        "ns",
        stage_ns(2) / c.grants.max(1) as f64,
    );
    samples.push(
        "arbiter.kernel.grant_ratio",
        "ratio",
        c.grants as f64 / c.offered.max(1) as f64,
    );
    samples.push("router.crossbar.ns_per_cycle", "ns", stage_ns(3) / cycles);
    samples.push("router.metrics.ns_per_cycle", "ns", stage_ns(4) / cycles);
    samples.push("router.nic.ns_per_cycle", "ns", stage_ns(5) / cycles);
    samples.push("router.credit.ns_per_cycle", "ns", stage_ns(6) / cycles);
    samples.push("replay.step_ratio", "ratio", r.untimed_s / r.step_s);
    samples.push("trace.overhead_ratio", "ratio", r.timed_s / r.untimed_s);
    samples.push(
        "trace.span_coverage",
        "ratio",
        r.recorder.total_ns() as f64 / (r.timed_s * 1e9),
    );
    if raw_spans.is_none() {
        *raw_spans = Some(r.recorder.raw_jsonl());
        for s in r.recorder.stats() {
            println!(
                "span {} {} calls={} total_ns={} p50_ns={} p99_ns={}",
                s.name,
                w.name(),
                s.calls,
                s.total_ns,
                s.quantile_ns(0.5),
                s.quantile_ns(0.99)
            );
        }
    }

    let a = sut::armed_pair(&cfg, control);
    if !a.same_result {
        failures.push("arming telemetry changed the simulated result".to_string());
    }
    samples.push(
        "router.telemetry.armed_overhead_ratio",
        "ratio",
        a.armed_s / a.plain_s - 1.0,
    );
    samples.push(
        "arbiter.kernel.iterations_per_matching",
        "count",
        a.iterations_per_matching,
    );
    samples.push(
        "arbiter.kernel.examined_per_matching",
        "count",
        a.examined_per_matching,
    );

    let f = sut::fabric_probe(seed, control);
    if !f.same_result {
        failures.push("fabric result depends on workers or epoch length".to_string());
    }
    let router_cycles = f.router_cycles as f64;
    samples.push(
        "router.fabric.w1_ns_per_router_cycle",
        "ns",
        f.w1_s * 1e9 / router_cycles,
    );
    samples.push(
        "router.fabric.w2_ns_per_router_cycle",
        "ns",
        f.w2_s * 1e9 / router_cycles,
    );
    samples.push(
        "router.fabric.parallel_efficiency",
        "ratio",
        f.w1_s / (sut::parallel_workers() as f64 * f.w2_s),
    );
    samples.push(
        "router.fabric.epoch_overhead_ns",
        "ns",
        (f.step_s - f.w1_s) * 1e9 / f.extra_epochs as f64,
    );

    if !with_sweep_probe {
        return failures;
    }
    let s = sut::sweep_probe(seed);
    let serial_s = s.workload_build_s + s.build_router_s + s.engine_run_s;
    samples.push("traffic.workload.build_s", "s", s.workload_build_s);
    samples.push("core.experiment.build_router_s", "s", s.build_router_s);
    samples.push("sim.engine.run_s", "s", s.engine_run_s);
    samples.push(
        "core.experiment.setup_share",
        "ratio",
        (s.workload_build_s + s.build_router_s) / serial_s,
    );
    samples.push(
        "sim.engine.skipped_fraction",
        "ratio",
        s.skipped as f64 / s.executed as f64,
    );
    samples.push("sim.engine.horizon_gain", "ratio", s.naive_s / s.horizon_s);
    samples.push(
        "core.sweep.parallel_efficiency",
        "ratio",
        serial_s / (s.workers as f64 * s.sweep_wall_s),
    );
    failures
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = host::parse_args(&argv, DEFAULT_SEED)?;
    host::check_build_parity()?;
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let w = WorkloadId::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;

    let mut control = Control::default();
    let mut samples = Samples::default();
    let mut raw_spans = None;
    let mut failures: Vec<String> = Vec::new();
    let mut round_rates = Vec::new();
    let mut passes = 0u64;
    let t0 = Instant::now();
    while (passes as usize) < MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
        passes += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The sweep probe takes seconds: away from its own workload
            // one sample of it is enough.
            let with_sweep_probe = passes == 1 || w == WorkloadId::Vbr4Sweep;
            pass(
                w,
                args.seed,
                with_sweep_probe,
                &mut control,
                &mut samples,
                &mut raw_spans,
            )
        }));
        match outcome {
            Ok(f) if f.is_empty() => {}
            Ok(f) => failures.push(format!("pass {passes}: {}", f.join("; "))),
            Err(_) => return Err(format!("pass {passes} panicked")),
        }
        round_rates.push(median(&control.take_rates()));
    }

    let mut report = Report::new(w.name(), 1);
    let mut medians = BTreeMap::new();
    for (name, (unit, values)) in &samples.0 {
        medians.insert(*name, median(values));
        report.metric(name, median(values), unit);
    }
    let noise = host::host_noise(&round_rates);
    report.metric("host.control_ops_per_s", noise.median, "1/s");
    report.metric("host.noisy_rounds", noise.noisy_rounds as f64, "count");

    let mut invalid = Vec::new();
    if !STEP_RATIO_RANGE.contains(&medians["replay.step_ratio"]) {
        invalid.push(format!(
            "replay.step_ratio {:.3}",
            medians["replay.step_ratio"]
        ));
    }
    if medians["trace.span_coverage"] < MIN_SPAN_COVERAGE {
        invalid.push(format!(
            "trace.span_coverage {:.3}",
            medians["trace.span_coverage"]
        ));
    }
    if !failures.is_empty() {
        invalid.push(format!("{} failed checks", failures.len()));
    }
    if !invalid.is_empty() {
        println!("per_layer invalid {} {}", w.name(), invalid.join(", "));
    }
    if let Some(text) = raw_spans {
        write_out_file(&format!("trace_{}.jsonl", w.name()), &text)?;
    }

    // One operation per pass: its probes either all hold or it failed.
    let attempted = passes;
    let failed = failures.len() as u64;
    report.note("valid", Value::Bool(invalid.is_empty()));
    report.note(
        "failures",
        Value::Array(failures.into_iter().map(Value::Str).collect()),
    );
    report.note("host", host_note(&noise));
    report.note(
        "run",
        obj([
            ("seed", Value::U64(args.seed)),
            ("seconds", Value::F64(args.seconds)),
            ("passes", Value::U64(passes)),
            ("measured_s", Value::F64(t0.elapsed().as_secs_f64())),
        ]),
    );
    report.finish(attempted, failed);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_core::config::RunLength;

    /// The replay is only worth timing while it is the router: same
    /// summary, same RNG position, at the narrow and at the wide end.
    #[test]
    fn replay_reproduces_the_router_at_4_and_64_ports() {
        for w in [WorkloadId::Cbr4Sat, WorkloadId::Wide64Trunk] {
            let mut cfg = sut::router_config(w, 7);
            cfg.run = RunLength::Cycles(cfg.warmup_cycles + 3_000);
            let r = replay_probe(&cfg, &mut Control::default());
            assert!(r.equivalent, "{} replay diverged", w.name());
            assert_eq!(r.counts.cycles, 3_000);
            assert!(r.counts.grants > 0 && r.counts.grants <= r.counts.offered);
            assert!(r.counts.offered <= r.counts.vcs_scanned);
            assert!(r.counts.sources_due <= r.counts.sources_scanned);
            assert_eq!(r.recorder.stats()[0].calls, 3_000);
        }
    }

    #[test]
    fn replay_reproduces_the_vbr_router() {
        let mut cfg = sut::router_config(WorkloadId::Vbr4Sweep, 7);
        cfg.run = RunLength::Cycles(5_000);
        assert!(replay_probe(&cfg, &mut Control::default()).equivalent);
    }
}
