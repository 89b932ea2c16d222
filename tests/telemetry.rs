//! End-to-end telemetry: the armed router's counters, stage profile,
//! kernel probes, snapshot windows, and flight recorder, exercised
//! through the public experiment API.
//!
//! Unit coverage for each telemetry component lives beside it
//! (`mmr_sim::telemetry`, `mmr_router::telemetry`); this suite pins the
//! cross-crate behaviour: what an armed Fig. 5-style run actually
//! reports, and that the trace survives a round-trip through JSONL.

use mmr_core::config::{RunLength, SimConfig, TelemetrySpec, WorkloadSpec};
use mmr_core::experiment::{build_router, build_workload, run_experiment};
use mmr_core::router::telemetry::{TelemetryConfig, SNAPSHOT_INTERVAL, TRACE_CAPACITY};
use mmr_core::sim::engine::CycleModel;
use mmr_core::sim::telemetry::recorder::{to_jsonl, FlightRecorder, TraceEvent};
use mmr_core::sim::time::FlitCycle;
use mmr_core::workload_lang::{compile_committed, Fidelity};

fn fig5_style(load: f64) -> SimConfig {
    SimConfig {
        workload: WorkloadSpec::cbr(load),
        warmup_cycles: 500,
        run: RunLength::Cycles(8_000),
        ..Default::default()
    }
}

#[test]
fn armed_cbr_run_reports_counters_stages_and_windows() {
    let cfg = fig5_style(0.7).with_telemetry(TelemetrySpec::default());
    let result = run_experiment(&cfg);
    let report = result.telemetry.expect("armed run returns a report");

    // Counters: the run executed 8000 cycles and moved traffic.
    let counter = |name: &str| {
        report
            .counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .value
    };
    assert_eq!(counter("cycles"), 8_000);
    assert!(counter("grants_issued") > 0);
    assert!(counter("credits_returned") > 0);
    assert_eq!(counter("faults_detected"), 0, "clean run detects nothing");

    // Stage profile: every pipeline stage ran every cycle; armed
    // without `wall_clock`, wall time stays zero.
    assert_eq!(report.stages.len(), 7);
    for stage in &report.stages {
        assert_eq!(stage.calls, 8_000, "stage {} call count", stage.name);
        assert_eq!(stage.wall_ns, 0, "no wall_clock, no wall time");
    }
    let arb = report
        .stages
        .iter()
        .find(|s| s.name == "arbitration")
        .unwrap();
    assert!(arb.work > 0, "arbitration stage records grants as work");

    // Kernel probe: one matching per cycle that offers candidates,
    // consistent with the grants counter.  Candidate-free cycles never
    // reach the kernel — the engine treats them as quiescent and either
    // gates or skips arbitration entirely — and at load 0.7 the only
    // such cycle is cycle 0, before the first flit has arrived.
    assert_eq!(report.kernel.matchings, 7_999);
    assert_eq!(report.kernel.grants, counter("grants_issued"));
    assert!(report.kernel.candidates_examined >= report.kernel.grants);

    // Windows: 8000 cycles / 1000-cycle interval = 8 complete windows,
    // contiguous and per-class consistent.
    assert_eq!(report.windows.len(), 8);
    assert_eq!(report.windows_dropped, 0);
    for (i, w) in report.windows.iter().enumerate() {
        assert_eq!(w.index, i as u64);
        assert_eq!(w.start_cycle, i as u64 * 1_000);
        assert_eq!(w.end_cycle, i as u64 * 1_000 + 999);
        assert!(w.grants > 0, "every window sees grants at load 0.7");
        for class in &w.classes {
            if class.delivered > 0 {
                assert!(class.mean_delay_rc > 0.0);
            }
        }
    }
    let delivered: u64 = report
        .windows
        .iter()
        .flat_map(|w| w.classes.iter())
        .map(|c| c.delivered)
        .sum();
    assert!(delivered > 0, "windows account delivered flits");
}

#[test]
fn armed_run_carries_a_consistent_observatory() {
    let cfg = fig5_style(0.7).with_telemetry(TelemetrySpec::default());
    let result = run_experiment(&cfg);
    let report = result.telemetry.as_ref().expect("armed run reports");
    let obs = report
        .observatory
        .as_ref()
        .expect("the observatory is armed by default");
    assert_eq!(report.windows_dropped, 0);

    // Every delivery lands in exactly one class delay histogram, with a
    // matching queue-residency sample; the window accounting sees the
    // same flits.
    let observed: u64 = obs.classes.iter().map(|c| c.delay.count()).sum();
    assert!(observed > 0, "load 0.7 delivers flits");
    let windowed: u64 = report
        .windows
        .iter()
        .flat_map(|w| w.classes.iter())
        .map(|c| c.delivered)
        .sum();
    assert_eq!(observed, windowed, "observatory and windows disagree");
    for c in &obs.classes {
        assert_eq!(
            c.delay.count(),
            c.residency.count(),
            "{:?}: every delivered flit has a residency sample",
            c.class
        );
    }

    // Per-connection observations partition the class totals, and jitter
    // chains record one sample per delivery after a connection's first.
    let per_conn: u64 = obs.connections.iter().map(|c| c.delivered).sum();
    assert_eq!(per_conn, observed);
    let jitter: u64 = obs.classes.iter().map(|c| c.jitter.count()).sum();
    assert_eq!(jitter, observed - obs.connections.len() as u64);

    // SLO accounting: windowed violation counts reconcile with the
    // totals, and the window observer saw every closed window.
    let win_violations: u64 = report
        .windows
        .iter()
        .flat_map(|w| w.classes.iter())
        .map(|c| c.slo_violations)
        .sum();
    assert_eq!(win_violations, obs.slo.violations_total);
    assert_eq!(obs.slo.windows_observed, report.windows.len() as u64);
    let by_class: u64 = obs.classes.iter().map(|c| c.slo_violations).sum();
    assert_eq!(by_class, obs.slo.violations_total);

    // The CAC tally rode along from workload construction.
    assert!(result.admission.accepted > 0);
    assert_eq!(result.admission.accepted, result.connections as u64);
}

#[test]
fn experiment_exposition_is_valid_and_covers_the_observatory() {
    let cfg = fig5_style(0.6).with_telemetry(TelemetrySpec::default());
    let result = run_experiment(&cfg);
    let prom = result.prometheus();
    let stats = mmr_core::sim::telemetry::validate_exposition(&prom)
        .expect("experiment exposition validates");
    assert!(stats.families >= 15, "only {} families", stats.families);
    for family in [
        "mmr_cycles",
        "mmr_stage_calls_total",
        "mmr_kernel_matchings",
        "mmr_delay_seconds",
        "mmr_jitter_seconds",
        "mmr_residency_seconds",
        "mmr_slo_violations_total",
        "mmr_admission_accepted_total",
        "mmr_admission_rejected_total",
    ] {
        assert!(
            prom.contains(&format!("# TYPE {family} ")),
            "exposition is missing family {family}"
        );
    }
    // A disarmed result exposes nothing.
    let plain = run_experiment(&fig5_style(0.6));
    assert_eq!(plain.prometheus(), "", "disarmed exposition must be empty");
}

#[test]
fn chaos_run_traces_fault_detections() {
    // The chaos pack's base-seed point, which runs to the fault-window
    // end so detections land in the retained ring tail.
    let mut cfg = compile_committed("chaos", Fidelity::Quick)
        .expect("the chaos pack compiles")
        .sweep
        .configs()
        .remove(0);
    let plan = cfg.fault.expect("the chaos pack carries faults").plan;
    assert_eq!(
        cfg.run,
        RunLength::Cycles(plan.window_start + plan.window_len)
    );
    cfg.telemetry = Some(TelemetrySpec::default());
    let result = run_experiment(&cfg);
    let report = result.telemetry.expect("armed run returns a report");
    let faults = report
        .counters
        .iter()
        .find(|c| c.name == "faults_detected")
        .unwrap()
        .value;
    assert!(faults > 0, "chaos run must detect faults");
}

#[test]
fn trace_ring_wraps_and_round_trips_through_jsonl() {
    // The ring on a real router run: the recorder must wrap many times,
    // keep the newest events in cycle order, and reproduce them exactly
    // after a JSONL dump/parse round-trip.
    let cfg = fig5_style(0.7);
    let mut router = build_router(&cfg, build_workload(&cfg));
    router.set_telemetry(TelemetryConfig::default());
    for t in 0..40_000 {
        router.step(FlitCycle(t), true);
    }
    let recorder = router.telemetry().recorder().expect("telemetry is armed");
    assert_eq!(recorder.len(), TRACE_CAPACITY, "ring is full");
    assert!(
        recorder.recorded() > 10 * TRACE_CAPACITY as u64,
        "run wraps the ring many times over"
    );
    let events: Vec<TraceEvent> = recorder.events().collect();
    assert!(
        events.windows(2).all(|w| w[0].cycle <= w[1].cycle),
        "retained events are oldest-first"
    );

    let dump = to_jsonl(recorder.events());
    assert_eq!(dump.lines().count(), TRACE_CAPACITY);
    let parsed = FlightRecorder::parse_jsonl(&dump).expect("dump parses back");
    assert_eq!(parsed, events, "JSONL round-trip is lossless");
}

#[test]
fn disarmed_router_reports_nothing() {
    let cfg = fig5_style(0.5);
    let mut router = build_router(&cfg, build_workload(&cfg));
    for t in 0..1_000 {
        router.step(FlitCycle(t), true);
    }
    assert!(!router.telemetry().is_enabled());
    let report = router.telemetry_report();
    assert!(report.counters.iter().all(|c| c.value == 0));
    assert!(report.stages.iter().all(|s| s.calls == 0));
    assert_eq!(report.windows.len(), 0);
    assert_eq!(report.trace_events_recorded, 0);
}

#[test]
fn windows_past_the_buffer_are_counted_as_dropped() {
    // 700 windows overrun the 512-window buffer: the report keeps the
    // first 512 in order and counts every later one.
    let cfg = fig5_style(0.5);
    let mut router = build_router(&cfg, build_workload(&cfg));
    router.set_telemetry(TelemetryConfig::default());
    let windows = 700u64;
    for t in 0..windows * SNAPSHOT_INTERVAL {
        router.step(FlitCycle(t), true);
    }
    let report = router.telemetry_report();
    assert_eq!(report.windows.len(), 512);
    assert_eq!(report.windows_dropped, windows - 512);
    for (i, w) in report.windows.iter().enumerate() {
        let start = i as u64 * SNAPSHOT_INTERVAL;
        assert_eq!(
            (w.index, w.start_cycle, w.end_cycle),
            (i as u64, start, start + SNAPSHOT_INTERVAL - 1)
        );
    }
}

#[test]
fn wall_clock_arming_times_stages_and_changes_nothing_else() {
    // A real clock fills the stages' wall time and nothing else: the
    // simulation, the RNG position, the counters and the stages' calls
    // and work read exactly as under default (clockless) arming.
    let cfg = fig5_style(0.7);
    let run = |wall_clock: bool| {
        let mut router = build_router(&cfg, build_workload(&cfg));
        router.set_telemetry(TelemetryConfig { wall_clock });
        for t in 0..2_000 {
            router.step(FlitCycle(t), true);
        }
        (
            router.summary(),
            router.rng_fingerprint(),
            router.telemetry_report(),
        )
    };
    let (plain_summary, plain_rng, plain) = run(false);
    let (timed_summary, timed_rng, timed) = run(true);
    assert_eq!(plain_summary, timed_summary);
    assert_eq!(plain_rng, timed_rng, "the clock consumed an RNG draw");
    assert_eq!(plain.counters, timed.counters);
    let calls_and_work = |r: &mmr_core::router::telemetry::TelemetryReport| {
        r.stages
            .iter()
            .map(|s| (s.name.clone(), s.calls, s.work))
            .collect::<Vec<_>>()
    };
    assert_eq!(calls_and_work(&plain), calls_and_work(&timed));
    assert!(plain.stages.iter().all(|s| s.wall_ns == 0));
    assert!(timed.stages.iter().map(|s| s.wall_ns).sum::<u64>() > 0);
}
