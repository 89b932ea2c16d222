//! `mmr run --config` refuses a router or fabric it cannot build: exit 2
//! and the bad field named on stderr, never a panic inside
//! `MmrRouter::new` or `Fabric::new`.  `mmr gate --pack` writes a router
//! pack's four artifacts.

use mmr_core::config::{FabricSpec, SimConfig};
use mmr_core::router::config::{
    LinkPolicy, RouterConfig, MAX_CANDIDATE_LEVELS, MAX_VC_BUFFER_FLITS,
};
use mmr_core::router::fabric::Topology;
use mmr_core::sim::telemetry::recorder::{FlightRecorder, TraceKind};
use mmr_core::sim::telemetry::validate_exposition;
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
    ];
    assert_run_config_exits_2("fabric", cases);
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
        let out = Command::new(env!("CARGO_BIN_EXE_mmr"))
            .args(["run", "--config"])
            .arg(&path)
            .output()
            .expect("mmr runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{expected}: {stderr}");
        assert!(stderr.contains(expected), "{expected}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
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
