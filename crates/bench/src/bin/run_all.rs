//! Run every figure/table reproduction in sequence (the EXPERIMENTS.md
//! driver): the claim gate over every workload pack, then the table and
//! ablation printers.  Forwards `--full` to each.

use std::process::Command;

/// Each run: a binary and its arguments.
const RUNS: &[&[&str]] = &[
    &["mmr", "gate"],
    &["table1_mpeg_stats"],
    &["fig6_trace_profile"],
    &["fig7_injection_models"],
    &["hw_cost_report"],
    &["ablation_levels"],
    &["ablation_priority"],
    &["ablation_buffers"],
    &["ablation_arbiters"],
    &["ablation_concurrency"],
    &["ablation_link_policy"],
    &["fabric_report"],
    &["ext_besteffort"],
    &["ext_hol_blocking"],
];

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe dir")
        .to_path_buf();
    let mut failures = Vec::new();
    for run in RUNS {
        let (bin, args) = (run[0], &run[1..]);
        eprintln!("\n=== {} ===", run.join(" "));
        let mut cmd = Command::new(exe_dir.join(bin));
        cmd.args(args);
        if full {
            cmd.arg("--full");
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                failures.push(bin);
            }
            Err(e) => {
                eprintln!("{bin} failed to launch: {e} (build with `cargo build --release -p mmr-bench` first)");
                failures.push(bin);
            }
        }
    }
    if failures.is_empty() {
        eprintln!(
            "\nall {} experiments completed; outputs in results/",
            RUNS.len()
        );
    } else {
        eprintln!("\nFAILED: {failures:?}");
        std::process::exit(1);
    }
}
