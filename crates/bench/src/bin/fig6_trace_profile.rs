//! Fig. 6 — bandwidth-vs-time profile of a typical MPEG-2 sequence
//! (Flower Garden): the per-frame bit rate over one second of video,
//! showing the I ≫ P ≫ B burst structure inside each GOP.

use mmr_bench::{banner, emit, fidelity_from_args};
use mmr_core::workload_lang::Fidelity;
use mmr_sim::rng::SimRng;
use mmr_sim::time::TimeBase;
use mmr_traffic::mpeg::{standard_sequences, MpegTrace, FRAME_TIME_SECS};

fn main() {
    let fidelity = fidelity_from_args();
    let gops = match fidelity {
        Fidelity::Quick => 2,
        Fidelity::Full => 8,
    };
    let mut out = banner(
        "Fig. 6",
        "Flower Garden sequence bandwidth profile",
        fidelity,
    );
    let params = standard_sequences()
        .into_iter()
        .find(|s| s.name == "Flower Garden")
        .expect("sequence table contains Flower Garden");
    let tb = TimeBase::default();
    let mut rng = SimRng::seed_from_u64(0xF10E);
    let trace = MpegTrace::generate(&params, gops, &tb, &mut rng);
    out.push_str("# time(ms)   rate(Mbit/s)   frame\n");
    for (i, (rate, frame)) in trace
        .rate_profile_mbps()
        .iter()
        .zip(&trace.frames)
        .enumerate()
    {
        let t_ms = i as f64 * FRAME_TIME_SECS * 1e3;
        let bar = "#".repeat((rate / 2.0).round() as usize);
        out.push_str(&format!(
            "{t_ms:>9.0} {rate:>12.1}   {:?} {bar}\n",
            frame.ty
        ));
    }
    let s = trace.stats();
    out.push_str(&format!(
        "\navg rate {:.1} Mbps, peak {:.1} Mbps (paper's Fig. 6 shows the same sawtooth: one I-frame spike per 15-frame GOP)\n",
        s.avg_bandwidth.as_mbps(),
        s.peak_bandwidth.as_mbps()
    ));
    emit("fig6_trace_profile.txt", &out);
}
