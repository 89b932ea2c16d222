//! MPEG-2 video traffic model.
//!
//! The paper's VBR workload replays frame sizes extracted from real MPEG-2
//! traces of seven well-known test sequences (Table 1).  The raw traces are
//! not available, so this module *synthesizes* statistically equivalent
//! traces (see DESIGN.md §3):
//!
//! * the GOP structure is the paper's `IBBPBBPBBPBBPBB` (15 frames: one I,
//!   four P, ten B) at one frame per 33 ms;
//! * each sequence has calibrated mean sizes per frame type with I ≫ P ≫ B,
//!   reproducing the within-GOP burst structure of Fig. 6;
//! * individual frame sizes get log-normal variation around the type mean,
//!   clamped to the sequence's min/max bounds — preserving the max/min/avg
//!   spread that Table 1 reports.
//!
//! Sizes are quantized to whole flits at generation time, because that is
//! the granularity every downstream component operates at.

use mmr_sim::rng::SimRng;
use mmr_sim::time::TimeBase;
use mmr_sim::units::{Bandwidth, DataSize};
use serde::{Deserialize, Serialize};

/// MPEG frame types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameType {
    /// Intra-coded — self-contained, largest.
    I,
    /// Predictive — coded against the previous I/P frame.
    P,
    /// Bidirectional — coded against neighbours on both sides, smallest.
    B,
}

/// The paper's GOP pattern: `IBBPBBPBBPBBPBB`.
pub const GOP_PATTERN: [FrameType; 15] = [
    FrameType::I,
    FrameType::B,
    FrameType::B,
    FrameType::P,
    FrameType::B,
    FrameType::B,
    FrameType::P,
    FrameType::B,
    FrameType::B,
    FrameType::P,
    FrameType::B,
    FrameType::B,
    FrameType::P,
    FrameType::B,
    FrameType::B,
];

/// Frame period: "Every 33 milliseconds, a frame must be injected" (§5.2).
pub const FRAME_TIME_SECS: f64 = 0.033;

/// Per-sequence statistical parameters for the synthetic generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequenceParams {
    /// Sequence name as in Table 1.
    pub name: &'static str,
    /// Mean I-frame size in bits.
    pub mean_i_bits: f64,
    /// Mean P-frame size in bits.
    pub mean_p_bits: f64,
    /// Mean B-frame size in bits.
    pub mean_b_bits: f64,
    /// Sigma of the log-normal multiplier applied to each frame.
    pub sigma: f64,
    /// Hard lower clamp on any frame, in bits.
    pub min_bits: f64,
    /// Hard upper clamp on any frame, in bits.
    pub max_bits: f64,
}

impl SequenceParams {
    /// Mean size of a frame of the given type.
    pub fn mean_for(&self, ty: FrameType) -> f64 {
        match ty {
            FrameType::I => self.mean_i_bits,
            FrameType::P => self.mean_p_bits,
            FrameType::B => self.mean_b_bits,
        }
    }
}

/// The seven sequences of Table 1 with calibrated parameters.
///
/// The scanned paper's Table 1 numerals are unreadable; means are
/// calibrated so sequence average rates span ≈7–21 Mbps — high-quality
/// MPEG-2, matching the regime the MMR papers simulate — and so the
/// high-motion sequences (Flower Garden, Mobile Calendar) are the heaviest,
/// as in the published trace literature.
pub fn standard_sequences() -> Vec<SequenceParams> {
    fn seq(name: &'static str, i: f64, p: f64, b: f64) -> SequenceParams {
        SequenceParams {
            name,
            mean_i_bits: i,
            mean_p_bits: p,
            mean_b_bits: b,
            sigma: 0.18,
            min_bits: 0.45 * b,
            max_bits: 1.6 * i,
        }
    }
    vec![
        seq("Ayersroc", 800e3, 400e3, 160e3),
        seq("Hook", 750e3, 350e3, 140e3),
        seq("Martin", 900e3, 450e3, 170e3),
        seq("Flower Garden", 1500e3, 900e3, 450e3),
        seq("Mobile Calendar", 1600e3, 1000e3, 500e3),
        seq("Table Tennis", 1100e3, 600e3, 260e3),
        seq("Football", 1300e3, 800e3, 400e3),
    ]
}

/// One synthesized frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceFrame {
    /// Frame type.
    pub ty: FrameType,
    /// Size in bits (pre-quantization).
    pub bits: u64,
    /// Size in whole flits.
    pub flits: u64,
}

/// A synthesized MPEG-2 trace: a frame-size sequence for some number of
/// GOPs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MpegTrace {
    /// Name of the source sequence.
    pub name: String,
    /// Frames in display order.
    pub frames: Vec<TraceFrame>,
    /// Flit width used for quantization.
    pub flit_bits: u32,
}

/// Summary statistics of a trace, as reported in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Largest frame, bits.
    pub max_bits: u64,
    /// Smallest frame, bits.
    pub min_bits: u64,
    /// Mean frame size, bits.
    pub avg_bits: f64,
    /// Average bandwidth implied by the trace at one frame per 33 ms.
    pub avg_bandwidth: Bandwidth,
    /// Peak bandwidth: the largest frame delivered within one frame time.
    pub peak_bandwidth: Bandwidth,
}

impl MpegTrace {
    /// Synthesize a trace of `gops` GOPs from `params`, deterministically
    /// from `rng`.
    ///
    /// ```
    /// use mmr_sim::{rng::SimRng, time::TimeBase};
    /// use mmr_traffic::mpeg::{standard_sequences, MpegTrace};
    ///
    /// let params = &standard_sequences()[3]; // Flower Garden
    /// let trace = MpegTrace::generate(
    ///     params, 4, &TimeBase::default(), &mut SimRng::seed_from_u64(7));
    /// assert_eq!(trace.len(), 60); // 4 GOPs x 15 frames
    /// let stats = trace.stats();
    /// assert!(stats.avg_bandwidth.as_mbps() > 10.0);
    /// ```
    pub fn generate(params: &SequenceParams, gops: usize, tb: &TimeBase, rng: &mut SimRng) -> Self {
        assert!(gops > 0, "need at least one GOP");
        // A log-normal multiplier with unit mean: exp(N(-sigma^2/2, sigma)).
        let mu = -params.sigma * params.sigma / 2.0;
        let mut frames = Vec::with_capacity(gops * GOP_PATTERN.len());
        for _ in 0..gops {
            for ty in GOP_PATTERN {
                let mult = rng.log_normal(mu, params.sigma);
                let bits = (params.mean_for(ty) * mult)
                    .clamp(params.min_bits, params.max_bits)
                    .round() as u64;
                let flits = DataSize::bits(bits).flits(tb.flit_bits);
                frames.push(TraceFrame { ty, bits, flits });
            }
        }
        MpegTrace {
            name: params.name.to_string(),
            frames,
            flit_bits: tb.flit_bits,
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True if the trace has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Total payload in flits.
    pub fn total_flits(&self) -> u64 {
        self.frames.iter().map(|f| f.flits).sum()
    }

    /// Table-1 style statistics.
    pub fn stats(&self) -> TraceStats {
        assert!(!self.frames.is_empty());
        let max_bits = self.frames.iter().map(|f| f.bits).max().unwrap();
        let min_bits = self.frames.iter().map(|f| f.bits).min().unwrap();
        let total: u64 = self.frames.iter().map(|f| f.bits).sum();
        let avg_bits = total as f64 / self.frames.len() as f64;
        TraceStats {
            max_bits,
            min_bits,
            avg_bits,
            avg_bandwidth: Bandwidth::bps(avg_bits / FRAME_TIME_SECS),
            peak_bandwidth: Bandwidth::bps(max_bits as f64 / FRAME_TIME_SECS),
        }
    }

    /// Per-frame bit rate samples (bits of each frame / frame time), for
    /// Fig. 6 style profiles.
    pub fn rate_profile_mbps(&self) -> Vec<f64> {
        self.frames
            .iter()
            .map(|f| f.bits as f64 / FRAME_TIME_SECS / 1e6)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Average bits per frame over one GOP.
    fn mean_frame_bits(params: &SequenceParams) -> f64 {
        let total: f64 = GOP_PATTERN.iter().map(|&ty| params.mean_for(ty)).sum();
        total / GOP_PATTERN.len() as f64
    }

    fn flower_trace(gops: usize) -> MpegTrace {
        let params = &standard_sequences()[3];
        let tb = TimeBase::default();
        let mut rng = SimRng::seed_from_u64(99);
        MpegTrace::generate(params, gops, &tb, &mut rng)
    }

    #[test]
    fn gop_pattern_has_paper_composition() {
        let i = GOP_PATTERN.iter().filter(|t| **t == FrameType::I).count();
        let p = GOP_PATTERN.iter().filter(|t| **t == FrameType::P).count();
        let b = GOP_PATTERN.iter().filter(|t| **t == FrameType::B).count();
        assert_eq!((i, p, b), (1, 4, 10));
        assert_eq!(GOP_PATTERN[0], FrameType::I);
    }

    #[test]
    fn trace_length_matches_gops() {
        let t = flower_trace(4);
        assert_eq!(t.len(), 60);
        assert!(!t.is_empty());
    }

    #[test]
    fn i_frames_dominate_b_frames() {
        let t = flower_trace(8);
        let avg = |ty: FrameType| {
            let xs: Vec<u64> = t
                .frames
                .iter()
                .filter(|f| f.ty == ty)
                .map(|f| f.bits)
                .collect();
            xs.iter().sum::<u64>() as f64 / xs.len() as f64
        };
        let (ai, ap, ab) = (avg(FrameType::I), avg(FrameType::P), avg(FrameType::B));
        assert!(ai > ap && ap > ab, "I={ai} P={ap} B={ab}");
        // The burst ratio that stresses the arbiter: I frames are ~3x B.
        assert!(ai / ab > 2.0);
    }

    #[test]
    fn frame_sizes_respect_clamps() {
        let params = &standard_sequences()[0];
        let t = {
            let tb = TimeBase::default();
            let mut rng = SimRng::seed_from_u64(7);
            MpegTrace::generate(params, 20, &tb, &mut rng)
        };
        for f in &t.frames {
            assert!(f.bits as f64 >= params.min_bits);
            assert!(f.bits as f64 <= params.max_bits);
            assert!(f.flits >= 1);
        }
    }

    #[test]
    fn stats_are_consistent() {
        let t = flower_trace(4);
        let s = t.stats();
        assert!(s.min_bits <= s.avg_bits as u64 + 1);
        assert!(s.avg_bits <= s.max_bits as f64);
        // Flower Garden calibration targets ~19 Mbps average.
        let mbps = s.avg_bandwidth.as_mbps();
        assert!((10.0..30.0).contains(&mbps), "avg rate {mbps} Mbps");
        assert!(s.peak_bandwidth.as_bps() >= s.avg_bandwidth.as_bps());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = flower_trace(2);
        let b = flower_trace(2);
        assert_eq!(a, b);
    }

    #[test]
    fn sequences_span_rate_range() {
        let seqs = standard_sequences();
        assert_eq!(seqs.len(), 7);
        let rates: Vec<f64> = seqs
            .iter()
            .map(|s| mean_frame_bits(s) / FRAME_TIME_SECS / 1e6)
            .collect();
        let lo = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = rates.iter().cloned().fold(0.0, f64::max);
        assert!(lo > 5.0 && hi < 25.0, "rates {rates:?}");
        assert!(hi / lo > 2.0, "sequences should differ in rate");
    }

    #[test]
    fn rate_profile_matches_frames() {
        let t = flower_trace(1);
        let prof = t.rate_profile_mbps();
        assert_eq!(prof.len(), 15);
        // The I-frame (index 0) is the per-GOP peak most of the time; at
        // minimum it must beat the B-frame average.
        let b_avg = prof[1..].iter().sum::<f64>() / 14.0;
        assert!(prof[0] > b_avg);
    }

    #[test]
    fn unit_mean_lognormal_preserves_long_run_average() {
        let params = &standard_sequences()[5];
        let tb = TimeBase::default();
        let mut rng = SimRng::seed_from_u64(1234);
        let t = MpegTrace::generate(params, 200, &tb, &mut rng);
        let measured = t.stats().avg_bits;
        let nominal = mean_frame_bits(params);
        let rel = (measured - nominal).abs() / nominal;
        assert!(
            rel < 0.05,
            "measured {measured}, nominal {nominal}, rel {rel}"
        );
    }
}
