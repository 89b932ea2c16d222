//! `mmr run` refuses a router, fabric, arbiter, run length or workload it
//! cannot build or measure: exit 2 and the bad field named on stderr,
//! never a panic inside `MmrRouter::new`, `Fabric::new`, an arbiter or a
//! workload builder.  `mmr gate` refuses such a pack before any run.
//! `mmr gate --pack` writes a router pack's four artifacts.

use mmr_core::arbiter::scheduler::ArbiterKind;
use mmr_core::config::{
    ChurnConfig, FabricSpec, FaultSpec, MixGroup, RampScheduleConfig, RampStepConfig, RunLength,
    SimConfig, TelemetrySpec, WorkloadSpec,
};
use mmr_core::router::config::{
    LinkPolicy, RouterConfig, MAX_CANDIDATE_LEVELS, MAX_VC_BUFFER_FLITS,
};
use mmr_core::router::fabric::Topology;
use mmr_core::sim::telemetry::recorder::{FlightRecorder, TraceKind};
use mmr_core::sim::telemetry::validate_exposition;
use mmr_core::sim::time::TimeBase;
use mmr_core::traffic::connection::TrafficClass;
use mmr_core::SweepPoint;
use std::process::Command;

#[test]
fn run_config_with_a_bad_router_exits_2_naming_the_field() {
    let d = SimConfig::default().router;
    let mut low_concurrency = d;
    low_concurrency.round.concurrency_factor = 0.5;
    let slot_table = LinkPolicy::SlotTable {
        backfill: false,
        table_len: 0,
    };
    let flit_bits = |flit_bits| RouterConfig {
        time: TimeBase {
            flit_bits,
            ..d.time
        },
        ..d
    };
    let cases = [
        (
            RouterConfig {
                candidate_levels: 0,
                ..d
            },
            "candidate level",
        ),
        (
            RouterConfig {
                candidate_levels: MAX_CANDIDATE_LEVELS + 1,
                ..d
            },
            "candidate levels exceed",
        ),
        (
            RouterConfig {
                vc_buffer_flits: 0,
                ..d
            },
            "one flit",
        ),
        (
            RouterConfig {
                vc_buffer_flits: MAX_VC_BUFFER_FLITS + 1,
                ..d
            },
            "flits exceed",
        ),
        (RouterConfig { ports: 0, ..d }, "at least one port"),
        (RouterConfig { ports: 257, ..d }, "at most 256"),
        (
            RouterConfig {
                link_policy: slot_table,
                ..d
            },
            "slot table",
        ),
        (low_concurrency, "concurrency factor"),
        (
            flit_bits(0),
            "router.time.flit_bits: flits must be at least one bit",
        ),
        (
            flit_bits(1_000),
            "router.time.flit_bits: flit width (1000) must be a multiple",
        ),
    ];
    let cases = cases.map(|(router, expected)| {
        (
            SimConfig {
                router,
                ..SimConfig::default()
            },
            expected,
        )
    });
    assert_run_config_exits_2("router", cases);
}

#[test]
fn run_config_with_a_bad_fabric_exits_2_naming_the_field() {
    let ring = FabricSpec::new(Topology::Ring { nodes: 4 });
    let fabric = |spec: FabricSpec| SimConfig::default().with_fabric(spec);
    let cases = [
        (
            fabric(FabricSpec::new(Topology::Ring { nodes: 1 })),
            "ring needs at least two nodes",
        ),
        (
            fabric(FabricSpec {
                link_latency: 0,
                ..ring
            }),
            "links need at least one cycle",
        ),
        (
            fabric(FabricSpec {
                host_ports: 0,
                ..ring
            }),
            "at least one host port",
        ),
        (fabric(ring.with_workers(0)), "fabric.workers"),
        (
            SimConfig {
                fault: Some(FaultSpec::default()),
                ..fabric(ring)
            },
            "fault: a fabric runs no fault plan",
        ),
        (
            fabric(ring).with_telemetry(TelemetrySpec::default()),
            "telemetry: telemetry arms the single router only",
        ),
    ];
    assert_run_config_exits_2("fabric", cases);
}

#[test]
fn run_with_a_bad_workload_exits_2_naming_the_field() {
    for (load, expected) in [("1.5", "load 1.5 must be"), ("-0.2", "load -0.2 must be")] {
        assert_mmr_exits_2(&["run", "--load", load], expected);
    }
    let mix = |ramp: Option<&[(u64, f64)]>, churn| SimConfig {
        workload: WorkloadSpec::Mix {
            target_load: 0.5,
            groups: vec![MixGroup {
                class: TrafficClass::CbrMedium,
                rate_bps: 1.54e6,
                weight: 1.0,
            }],
            ramp: ramp.map(|steps| RampScheduleConfig {
                steps: steps
                    .iter()
                    .map(|&(at_cycle, fraction)| RampStepConfig { at_cycle, fraction })
                    .collect(),
            }),
            churn,
        },
        ..SimConfig::default()
    };
    let inverted_churn = ChurnConfig {
        start: 9_000,
        end: 8_000,
        departures: 0.1,
        arrivals: 0.1,
    };
    assert_run_config_exits_2(
        "workload",
        [
            (
                mix(None, Some(inverted_churn)),
                "churn window 9000..8000 is empty",
            ),
            (
                mix(Some(&[(0, 2.0), (9, 1.0)]), None),
                "workload.ramp.steps[0].fraction: ramp fraction 2 outside",
            ),
            (
                mix(Some(&[(0, -1.0), (9, 1.0)]), None),
                "workload.ramp.steps[0].fraction: ramp fraction -1 outside",
            ),
            (
                mix(Some(&[(9, 0.5), (3, 1.0)]), None),
                "workload.ramp.steps[1].at_cycle: ramp steps overlap",
            ),
            (
                mix(Some(&[]), None),
                "workload.ramp.steps: the last ramp step",
            ),
        ],
    );
}

#[test]
fn run_with_zero_gops_names_the_workload_not_the_run() {
    // A VBR run's length derives from its GOP count, so the workload is
    // checked first: the error names `gops`, not the 0-cycle run.
    for vbr in ["sr", "bb"] {
        assert_mmr_exits_2(
            &["run", "--vbr", vbr, "--gops", "0"],
            "workload.gops: VBR workload needs at least one GOP",
        );
    }
}

#[test]
fn run_with_a_bad_arbiter_or_run_length_exits_2_naming_the_field() {
    for (args, expected) in [
        (&["--arbiter", "islip:0"][..], "arbiter.iterations"),
        (&["--arbiter", "pim:0"], "arbiter.iterations"),
        (
            &["--warmup", "5000", "--cycles", "100"],
            "run: a 100-cycle run ends inside its 5000-cycle warm-up",
        ),
        (&["--cycles", "0"], "run: a 0-cycle run ends inside"),
    ] {
        assert_mmr_exits_2(&[&["run"], args].concat(), expected);
    }
    let d = SimConfig::default();
    let drained = SimConfig {
        warmup_cycles: 5_000,
        run: RunLength::UntilDrained { max_cycles: 5_000 },
        ..d.clone()
    };
    assert_run_config_exits_2(
        "arbiter",
        [
            (
                d.with_arbiter(ArbiterKind::FrameFair { frame: 0 }),
                "arbiter.frame",
            ),
            (
                d.with_arbiter(ArbiterKind::CrosspointQueued { cap: 0 }),
                "arbiter.cap",
            ),
            (drained, "run: a 5000-cycle run ends inside"),
        ],
    );
}

#[test]
fn gate_refuses_a_pack_with_a_bad_arbiter_before_any_run() {
    let dir = std::env::temp_dir().join(format!("mmr-cli-gate-pack-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let pack = "[meta]\nname = \"zero_iterations\"\ndescription = \"iSLIP with no passes\"\n\n\
                [traffic]\npreset = \"paper-cbr\"\n\n[run]\nwarmup = 100\ncycles = 1000\n\n\
                [sweep]\nloads = [0.5]\narbiters = [\"islip:0\"]\nseeds = 1\n";
    std::fs::write(dir.join("zero_iterations.toml"), pack).expect("write pack");
    let out = Command::new(env!("CARGO_BIN_EXE_mmr"))
        .args(["gate", "--pack", "zero_iterations"])
        .env("MMR_WORKLOADS_DIR", &dir)
        .env("MMR_RESULTS_DIR", &dir)
        .output()
        .expect("mmr runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("arbiter.iterations"), "{stderr}");
    assert!(!stderr.contains("running pack"), "a run started: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_refuses_an_unknown_pack_even_when_listing() {
    for args in [
        &["gate", "--pack", "nosuch"][..],
        &["gate", "--list", "--pack", "nosuch"],
    ] {
        assert_mmr_exits_2(args, "no pack named `nosuch`");
    }
}

/// Write each config to a file, run `mmr run --config` on it, and expect
/// exit 2 with the paired message on stderr.
fn assert_run_config_exits_2<const N: usize>(tag: &str, cases: [(SimConfig, &str); N]) {
    let dir = std::env::temp_dir().join(format!("mmr-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (i, (cfg, expected)) in cases.into_iter().enumerate() {
        let path = dir.join(format!("sim{i}.json"));
        std::fs::write(
            &path,
            serde_json::to_string(&cfg).expect("config serializes"),
        )
        .expect("write config");
        let path = path.to_str().expect("UTF-8 temp path");
        assert_mmr_exits_2(&["run", "--config", path], expected);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Run `mmr` with `args` and expect exit 2 with `expected` on stderr.
fn assert_mmr_exits_2(args: &[&str], expected: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_mmr"))
        .args(args)
        .output()
        .expect("mmr runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{expected}: {stderr}");
    assert!(stderr.contains(expected), "{expected}: {stderr}");
}

#[test]
fn run_and_sweep_refuse_unknown_flags() {
    assert_mmr_exits_2(&["run", "--bogus", "1"], "unknown flag --bogus");
    // `--arbiters` is a sweep flag: `run` would otherwise run COA alone.
    assert_mmr_exits_2(&["run", "--arbiters", "coa,wfa"], "unknown flag --arbiters");
    assert_mmr_exits_2(&["sweep", "--bogus", "1"], "unknown flag --bogus");
}

#[test]
fn sweep_json_prints_every_point() {
    let out = Command::new(env!("CARGO_BIN_EXE_mmr"))
        .args([
            "sweep",
            "--json",
            "--loads",
            "0.3,0.5",
            "--arbiters",
            "coa",
            "--cycles",
            "3000",
            "--warmup",
            "1000",
        ])
        .output()
        .expect("mmr runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let points: Vec<SweepPoint> = serde_json::from_str(&stdout).expect("the sweep's points parse");
    let loads: Vec<f64> = points.iter().map(|p| p.target_load).collect();
    assert_eq!(loads, [0.3, 0.5]);
    assert!(points
        .iter()
        .all(|p| p.arbiter == ArbiterKind::Coa && p.results.len() == 1));
}

#[test]
fn gate_writes_the_chaos_artifacts() {
    let dir = std::env::temp_dir().join(format!("mmr-cli-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_mmr"))
        .args(["gate", "--pack", "chaos"])
        .env("MMR_RESULTS_DIR", &dir)
        .output()
        .expect("mmr runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "mmr gate --pack chaos failed: {stderr}"
    );
    let read = |ext: &str| {
        let path = dir.join(format!("workload_chaos.{ext}"));
        let body = std::fs::read_to_string(&path).unwrap_or_default();
        assert!(!body.is_empty(), "{} is missing or empty", path.display());
        body
    };
    read("html");
    serde_json::parse_value(&read("telemetry.json")).expect("the telemetry report parses");
    validate_exposition(&read("prom")).expect("the exposition validates");
    let trace = FlightRecorder::parse_jsonl(&read("trace.jsonl")).expect("the trace parses");
    assert!(
        trace.iter().any(|e| e.kind == TraceKind::FaultDetected),
        "the chaos trace holds no fault detection"
    );
    std::fs::remove_dir_all(&dir).ok();
}
