//! `mmr run --config` refuses a router it cannot build: exit 2 and the
//! bad field named on stderr, never a panic inside `MmrRouter::new`.

use mmr_core::config::SimConfig;
use mmr_core::router::config::{LinkPolicy, RouterConfig};
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
                vc_buffer_flits: 0,
                ..d
            },
            "one flit",
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
    let dir = std::env::temp_dir().join(format!("mmr-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (i, (router, expected)) in cases.into_iter().enumerate() {
        let path = dir.join(format!("sim{i}.json"));
        let cfg = SimConfig {
            router,
            ..SimConfig::default()
        };
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
