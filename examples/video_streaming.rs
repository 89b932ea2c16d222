//! Video streaming: route a mix of MPEG-2 streams (the paper's §5.2
//! workload) through the MMR and report the QoS the *application* sees —
//! frame delays and jitter — under both injection models.
//!
//! ```sh
//! cargo run --release --example video_streaming
//! ```

use mmr_core::arbiter::scheduler::ArbiterKind;
use mmr_core::config::{vbr_cycle_budget, InjectionKind, RunLength, SimConfig, WorkloadSpec};
use mmr_core::experiment::run_experiment;

fn main() {
    println!("MPEG-2 streaming through the MMR at 70% generated load\n");
    println!(
        "{:<9} {:>12} {:>18} {:>17} {:>16}",
        "model", "frames", "mean delay(µs)", "max delay(µs)", "mean jitter(µs)"
    );
    for injection in [InjectionKind::SmoothRate, InjectionKind::BackToBack] {
        let gops = 2;
        let cfg = SimConfig {
            workload: WorkloadSpec::Vbr {
                target_load: 0.7,
                gops,
                injection,
                enforce_peak: false,
            },
            arbiter: ArbiterKind::Coa,
            warmup_cycles: 0,
            run: RunLength::UntilDrained {
                max_cycles: vbr_cycle_budget(gops),
            },
            ..Default::default()
        };
        let r = run_experiment(&cfg);
        let m = &r.summary.metrics;
        println!(
            "{:<9} {:>12} {:>18.1} {:>17.1} {:>16.2}",
            injection.label(),
            m.frames_delivered,
            m.mean_frame_delay_us,
            m.max_frame_delay_us,
            m.mean_frame_jitter_us
        );
        assert!(r.drained, "all four GOPs should drain at 70% load");
    }
    println!(
        "\nMPEG-2 playback tolerates several *milliseconds* of jitter (§5.2);\n\
         the MMR keeps it in the microsecond range, so no frame misses its\n\
         33 ms display slot."
    );
}
