//! Ablation — the VBR concurrency factor (§2, "Connection Set up").
//!
//! With the peak-bandwidth admission test enforced, the concurrency
//! factor trades admitted load (how many VBR connections fit) against QoS
//! strength (how much the admitted ones can burst together).  This sweep
//! shows admitted load and resulting frame delay across factors.

use mmr_bench::{banner, emit, fidelity_from_args};
use mmr_core::config::vbr_cycle_budget;
use mmr_core::config::{InjectionKind, RunLength, SimConfig, WorkloadSpec};
use mmr_core::report::TextTable;
use mmr_core::sweep::{sweep, SweepSpec};
use mmr_core::workload_lang::Fidelity;
use mmr_router::config::RouterConfig;
use mmr_traffic::admission::RoundConfig;

fn main() {
    let fidelity = fidelity_from_args();
    let gops = match fidelity {
        Fidelity::Quick => 1,
        Fidelity::Full => 4,
    };
    let mut out = banner(
        "Ablation",
        "VBR concurrency factor (peak admission test enforced, COA, SR)",
        fidelity,
    );
    let mut table = TextTable::new(vec![
        "concurrency",
        "admitted load(%)",
        "connections",
        "frame delay(µs)",
        "max jitter(µs)",
    ]);
    for factor in [1.0f64, 1.5, 2.0, 3.0, 4.0] {
        let round = RoundConfig {
            concurrency_factor: factor,
            ..Default::default()
        };
        let base = SimConfig {
            router: RouterConfig {
                round,
                ..Default::default()
            },
            workload: WorkloadSpec::Vbr {
                target_load: 0.9, // ask for more than the CAC will grant
                gops,
                injection: InjectionKind::SmoothRate,
                enforce_peak: true,
            },
            warmup_cycles: 0,
            run: RunLength::UntilDrained {
                max_cycles: vbr_cycle_budget(gops),
            },
            ..Default::default()
        };
        let spec = SweepSpec {
            base,
            loads: vec![0.9],
            arbiters: vec![mmr_arbiter::scheduler::ArbiterKind::Coa],
            seeds: vec![0xB1ACA],
        };
        for p in sweep(&spec) {
            table.row(vec![
                format!("{factor:.1}"),
                format!("{:.1}", p.achieved_load * 100.0),
                format!("{}", p.results[0].connections),
                format!("{:.1}", p.frame_delay_us()),
                format!(
                    "{:.1}",
                    p.mean_of(|r| r.summary.metrics.max_frame_jitter_us)
                ),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "# a small factor admits little load but keeps bursts schedulable;\n\
                  # a large factor admits more but lets peaks collide (§2 trade-off)\n",
    );
    emit("ablation_concurrency.txt", &out);
}
