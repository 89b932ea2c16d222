//! Table 1 — MPEG-2 video sequence statistics (max/min/average frame
//! size in bits), regenerated from the synthetic trace generator.
//!
//! The paper tabulates these statistics for its seven real traces; ours
//! are synthesized (DESIGN.md §3), so this table doubles as the record of
//! the substitution's calibration.

use mmr_bench::{banner, emit, fidelity_from_args};
use mmr_core::report::TextTable;
use mmr_core::workload_lang::Fidelity;
use mmr_sim::rng::SimRng;
use mmr_sim::time::TimeBase;
use mmr_traffic::mpeg::{standard_sequences, MpegTrace};

fn main() {
    let fidelity = fidelity_from_args();
    let gops = match fidelity {
        Fidelity::Quick => 4,
        Fidelity::Full => 40,
    };
    let mut out = banner(
        "Table 1",
        "MPEG-2 video sequence statistics (bits)",
        fidelity,
    );
    let tb = TimeBase::default();
    let root = SimRng::seed_from_u64(0xB1ACA);
    let mut table = TextTable::new(vec![
        "Video Sequence",
        "Max",
        "Min",
        "Average",
        "Avg Mbps",
        "Peak Mbps",
    ]);
    for (i, params) in standard_sequences().iter().enumerate() {
        let mut rng = root.split(i as u64);
        let trace = MpegTrace::generate(params, gops, &tb, &mut rng);
        let s = trace.stats();
        table.row(vec![
            params.name.to_string(),
            format!("{}", s.max_bits),
            format!("{}", s.min_bits),
            format!("{:.0}", s.avg_bits),
            format!("{:.2}", s.avg_bandwidth.as_mbps()),
            format!("{:.2}", s.peak_bandwidth.as_mbps()),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\n({gops} GOPs per sequence, GOP = IBBPBBPBBPBBPBB, 33 ms frame time)\n"
    ));
    emit("table1_mpeg_stats.txt", &out);
}
