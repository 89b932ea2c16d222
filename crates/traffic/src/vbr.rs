//! VBR sources: an MPEG-2 trace replayed through an injection model.
//!
//! The source walks its trace frame by frame.  Frame `k` starts at
//! `start + k * frame_time`; its flits are emitted at times dictated by
//! the injection model and each flit's `generated_at` is its *emission*
//! time.  The paper measures frame delay as "the delay suffered by the
//! last flit from the frame, because in this way, the measure is
//! independent of the injection model used" (§5.2) — which requires the
//! per-flit clock to start at injection, not at the frame boundary.
//! Connections are randomly GOP-phase aligned via `start`.

use crate::connection::ConnectionId;
use crate::flit::Flit;
use crate::injection::InjectionModel;
use crate::mpeg::MpegTrace;
use crate::source::{round_rc, TrafficSource};
use mmr_sim::time::{RouterCycle, TimeBase};

/// A finite VBR flit source replaying one trace.
#[derive(Debug, Clone)]
pub struct VbrSource {
    connection: ConnectionId,
    trace: MpegTrace,
    model: InjectionModel,
    tb: TimeBase,
    frame_time_rc: f64,
    start_rc: f64,
    // cursor
    frame_idx: usize,
    flit_in_frame: u64,
    /// Emission cycle of the flit under the cursor, refreshed once per
    /// `emit` (meaningless once the trace is exhausted).
    next_rc: u64,
    seq: u64,
    total: u64,
}

impl VbrSource {
    /// Create a source that starts its first frame at `start`.
    pub fn new(
        connection: ConnectionId,
        trace: MpegTrace,
        model: InjectionModel,
        start: RouterCycle,
        tb: &TimeBase,
    ) -> Self {
        assert!(!trace.is_empty(), "trace must contain frames");
        let frame_time_rc = crate::mpeg::FRAME_TIME_SECS / tb.router_cycle_secs();
        let total = trace.total_flits();
        VbrSource {
            connection,
            trace,
            model,
            tb: *tb,
            frame_time_rc,
            start_rc: start.0 as f64,
            frame_idx: 0,
            flit_in_frame: 0,
            // Flit 0 of frame 0 leaves at `start` exactly.
            next_rc: round_rc(start.0 as f64),
            seq: 0,
            total,
        }
    }

    /// Emission time (f64 router cycles) of flit `j` of frame `k`.
    fn emission_time(&self, k: usize, j: u64) -> f64 {
        let frame = &self.trace.frames[k];
        let iat = self
            .model
            .iat_router_cycles(frame.flits, self.frame_time_rc, &self.tb);
        self.start_rc + k as f64 * self.frame_time_rc + j as f64 * iat
    }
}

impl TrafficSource for VbrSource {
    fn connection(&self) -> ConnectionId {
        self.connection
    }

    fn peek_next(&self) -> Option<RouterCycle> {
        if self.frame_idx >= self.trace.len() {
            return None;
        }
        Some(RouterCycle(self.next_rc))
    }

    fn emit(&mut self) -> Flit {
        assert!(self.frame_idx < self.trace.len(), "source exhausted");
        let k = self.frame_idx;
        let frame_flits = self.trace.frames[k].flits;
        let last = self.flit_in_frame + 1 == frame_flits;
        let flit = Flit::vbr(
            self.connection,
            self.seq,
            RouterCycle(self.next_rc),
            k as u32,
            last,
        );
        self.seq += 1;
        self.flit_in_frame += 1;
        if last {
            self.frame_idx += 1;
            self.flit_in_frame = 0;
        }
        if self.frame_idx < self.trace.len() {
            self.next_rc = round_rc(self.emission_time(self.frame_idx, self.flit_in_frame));
        }
        flit
    }

    fn total_flits(&self) -> Option<u64> {
        Some(self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpeg::{standard_sequences, FRAME_TIME_SECS};
    use mmr_sim::rng::SimRng;

    fn source(model: InjectionModel, start: u64) -> VbrSource {
        let tb = TimeBase::default();
        let mut rng = SimRng::seed_from_u64(5);
        let trace = MpegTrace::generate(&standard_sequences()[0], 2, &tb, &mut rng);
        VbrSource::new(ConnectionId(0), trace, model, RouterCycle(start), &tb)
    }

    fn drain_all(s: &mut VbrSource) -> Vec<Flit> {
        let mut out = Vec::new();
        while s.peek_next().is_some() {
            out.push(s.emit());
        }
        out
    }

    #[test]
    fn emits_exactly_trace_flits() {
        let mut s = source(InjectionModel::SmoothRate, 0);
        let expected = s.total_flits().unwrap();
        let flits = drain_all(&mut s);
        assert_eq!(flits.len() as u64, expected);
        // Sequence numbers are dense.
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
        }
    }

    #[test]
    fn one_last_flit_per_frame() {
        let mut s = source(InjectionModel::SmoothRate, 0);
        let n_frames = s.trace.len();
        let flits = drain_all(&mut s);
        let lasts = flits.iter().filter(|f| f.is_frame_end()).count();
        assert_eq!(lasts, n_frames);
        // Frame indices are non-decreasing and cover 0..n_frames.
        let max_idx = flits.iter().map(|f| f.frame.unwrap().index).max().unwrap();
        assert_eq!(max_idx as usize, n_frames - 1);
    }

    #[test]
    fn generation_timestamps_equal_emission_times() {
        // A flit's clock starts when the source injects it (§5.2's
        // injection-model-independent frame-delay definition).
        let mut s = source(InjectionModel::SmoothRate, 1000);
        while let Some(t) = s.peek_next() {
            let f = s.emit();
            assert_eq!(f.generated_at, t);
        }
    }

    #[test]
    fn frame_boundaries_are_spaced_by_frame_time() {
        // Under Smooth-Rate each frame's first flit leaves on its boundary.
        let tb = TimeBase::default();
        let ft_rc = FRAME_TIME_SECS / tb.router_cycle_secs();
        let mut s = source(InjectionModel::SmoothRate, 1000);
        let n_frames = s.trace.len();
        let mut firsts = Vec::new();
        for f in drain_all(&mut s) {
            if firsts.len() == f.frame.unwrap().index as usize {
                firsts.push(f.generated_at.0);
            }
        }
        assert_eq!(firsts.len(), n_frames);
        for (k, &t) in firsts.iter().enumerate() {
            assert_eq!(t, (1000.0 + k as f64 * ft_rc).round() as u64);
        }
    }

    #[test]
    fn sr_emissions_stay_within_frame_time() {
        let tb = TimeBase::default();
        let ft_rc = FRAME_TIME_SECS / tb.router_cycle_secs();
        let mut s = source(InjectionModel::SmoothRate, 0);
        let mut emissions: Vec<(u32, u64)> = Vec::new(); // (frame, time)
        while let Some(t) = s.peek_next() {
            let f = s.emit();
            emissions.push((f.frame.unwrap().index, t.0));
        }
        for (frame, t) in emissions {
            let fstart = frame as f64 * ft_rc;
            assert!(
                (t as f64) >= fstart - 1.0 && (t as f64) < fstart + ft_rc + 1.0,
                "frame {frame} flit at {t} outside [{fstart}, {})",
                fstart + ft_rc
            );
        }
    }

    #[test]
    fn bb_bursts_then_idles() {
        let tb = TimeBase::default();
        // Peak sized for a much larger frame than any in the trace, so
        // bursts finish well before the frame time ends.
        let model = InjectionModel::back_to_back_for(5000, FRAME_TIME_SECS, &tb);
        let ft_rc = FRAME_TIME_SECS / tb.router_cycle_secs();
        let mut s = source(model, 0);
        let mut times_frame0 = Vec::new();
        while let Some(t) = s.peek_next() {
            let f = s.emit();
            if f.frame.unwrap().index == 0 {
                times_frame0.push(t.0);
            } else {
                break;
            }
        }
        let span = (times_frame0[times_frame0.len() - 1] - times_frame0[0]) as f64;
        assert!(
            span < 0.5 * ft_rc,
            "BB burst should finish early, span {span} of {ft_rc}"
        );
        // And the gaps are uniform (constant peak IAT).
        let gaps: Vec<u64> = times_frame0.windows(2).map(|w| w[1] - w[0]).collect();
        let (min, max) = (gaps.iter().min().unwrap(), gaps.iter().max().unwrap());
        assert!(max - min <= 1, "gaps {min}..{max}");
    }

    #[test]
    fn emission_times_are_monotone() {
        for model in [
            InjectionModel::SmoothRate,
            InjectionModel::back_to_back_for(2000, FRAME_TIME_SECS, &TimeBase::default()),
        ] {
            let mut s = source(model, 123);
            let mut last = 0;
            while let Some(t) = s.peek_next() {
                assert!(t.0 >= last, "time went backwards: {} < {last}", t.0);
                last = t.0;
                s.emit();
            }
        }
    }
}
