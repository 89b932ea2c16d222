//! End-to-end telemetry: the armed router's counters, stage profile,
//! kernel probes, snapshot windows, and flight recorder, exercised
//! through the public experiment API.
//!
//! Unit coverage for each telemetry component lives beside it
//! (`mmr_sim::telemetry`, `mmr_router::telemetry`); this suite pins the
//! cross-crate behaviour: what an armed Fig. 5-style run actually
//! reports, that the trace survives a round-trip through JSONL, and that
//! a panic mid-simulation leaves the trace on disk.

use mmr_core::config::{chaos, RunLength, SimConfig, TelemetrySpec, WorkloadSpec};
use mmr_core::experiment::{build_router, build_workload, run_experiment};
use mmr_core::router::telemetry::TelemetryConfig;
use mmr_core::sim::engine::CycleModel;
use mmr_core::sim::telemetry::recorder::{run_with_dump_on_panic, FlightRecorder, TraceEvent};
use mmr_core::sim::time::FlitCycle;
use mmr_core::workload_lang::Fidelity;

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
    let cfg = fig5_style(0.7).with_telemetry(TelemetrySpec {
        snapshot_interval: 1_000,
        ..TelemetrySpec::default()
    });
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

    // Stage profile: every pipeline stage ran every cycle; with the
    // deterministic null clock wall time stays zero.
    assert_eq!(report.stages.len(), 7);
    for stage in &report.stages {
        assert_eq!(stage.calls, 8_000, "stage {} call count", stage.name);
        assert_eq!(stage.wall_ns, 0, "null clock must report zero wall time");
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
    let cfg = fig5_style(0.7).with_telemetry(TelemetrySpec {
        snapshot_interval: 1_000,
        ..TelemetrySpec::default()
    });
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
fn observatory_opt_out_removes_the_report_section() {
    let cfg = fig5_style(0.6).with_telemetry(TelemetrySpec {
        observatory: false,
        ..TelemetrySpec::default()
    });
    let result = run_experiment(&cfg);
    let report = result.telemetry.as_ref().unwrap();
    assert!(report.observatory.is_none());
    assert!(
        report
            .windows
            .iter()
            .all(|w| w.classes.iter().all(|c| c.slo_violations == 0)),
        "no SLO accounting without the observatory"
    );
    let prom = result.prometheus();
    mmr_core::sim::telemetry::validate_exposition(&prom).expect("still valid");
    assert!(!prom.contains("mmr_delay_seconds"));
}

#[test]
fn chaos_run_traces_fault_detections() {
    // The hottest quick chaos point, truncated to the fault window so
    // detections land in the retained ring tail.
    let mut cfg = chaos(Fidelity::Quick)
        .configs()
        .pop()
        .expect("chaos spec has factors");
    let plan = cfg.fault.expect("chaos config carries faults").plan;
    cfg.run = RunLength::Cycles(plan.window_start + plan.window_len);
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
    // A small ring on a real router run: the recorder must wrap many
    // times, keep the newest events in cycle order, and reproduce them
    // exactly after a JSONL dump/parse round-trip.
    let cfg = fig5_style(0.7);
    let mut router = build_router(&cfg, build_workload(&cfg));
    router.set_telemetry(TelemetryConfig {
        trace_capacity: 256,
        ..TelemetryConfig::default()
    });
    for t in 0..4_000 {
        router.step(FlitCycle(t), true);
    }
    let recorder = router.telemetry().recorder();
    assert_eq!(recorder.len(), 256, "ring is full");
    assert!(
        recorder.recorded() > 10 * 256,
        "run wraps the ring many times over"
    );
    let events: Vec<TraceEvent> = recorder.events().collect();
    assert!(
        events.windows(2).all(|w| w[0].cycle <= w[1].cycle),
        "retained events are oldest-first"
    );

    let dump = recorder.dump_jsonl();
    assert_eq!(dump.lines().count(), 256);
    let parsed = FlightRecorder::parse_jsonl(&dump).expect("dump parses back");
    assert_eq!(parsed, events, "JSONL round-trip is lossless");
}

#[test]
fn panic_mid_simulation_dumps_the_trace() {
    let dir = std::env::temp_dir().join("mmr_telemetry_test");
    std::fs::create_dir_all(&dir).unwrap();
    let dump_path = dir.join(format!("panic_dump_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&dump_path);

    let mut recorder = FlightRecorder::new(64);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_with_dump_on_panic(&mut recorder, &dump_path, |rec| {
            for cycle in 0..100u64 {
                rec.record(TraceEvent::grant(cycle, 3, 5, 1));
                assert!(cycle < 80, "simulated assertion failure at cycle 80");
            }
        })
    }));
    assert!(outcome.is_err(), "the guarded run must panic");

    let dump = std::fs::read_to_string(&dump_path).expect("panic left a dump on disk");
    let events = FlightRecorder::parse_jsonl(&dump).expect("dump parses");
    assert_eq!(events.len(), 64, "ring capacity retained");
    assert_eq!(
        events.last().unwrap().cycle,
        80,
        "newest event is the failure cycle"
    );
    std::fs::remove_file(&dump_path).ok();
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
