//! VBR injection models (paper Fig. 7).
//!
//! Once a video frame of `n` flits is generated at a frame-time boundary,
//! two policies decide *when* the flits enter the NIC:
//!
//! * **Back-to-Back (BB)** — all flits are emitted at a common peak rate,
//!   then the source idles until the next frame boundary.  The peak rate is
//!   chosen so the largest frame of any connection fits within one frame
//!   time.
//! * **Smooth-Rate (SR)** — the frame's flits are spread evenly across the
//!   whole frame time (per-frame IAT = 33 ms / n).

use mmr_sim::time::TimeBase;
use mmr_sim::units::Bandwidth;
use serde::{Deserialize, Serialize};

/// How a frame's flits are spaced within the frame time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InjectionModel {
    /// Emit at a fixed peak bandwidth, then idle (Fig. 7a).
    BackToBack {
        /// The common peak rate, shared by all connections.
        peak: Bandwidth,
    },
    /// Spread the frame's flits evenly over the frame time (Fig. 7b).
    SmoothRate,
}

impl InjectionModel {
    /// Back-to-Back with the peak sized so a frame of `max_frame_flits`
    /// fits in `frame_time_secs` exactly.
    pub fn back_to_back_for(max_frame_flits: u64, frame_time_secs: f64, tb: &TimeBase) -> Self {
        assert!(max_frame_flits > 0);
        let bits = max_frame_flits * tb.flit_bits as u64;
        InjectionModel::BackToBack {
            peak: Bandwidth::bps(bits as f64 / frame_time_secs),
        }
    }

    /// Inter-arrival time in router cycles between consecutive flits of a
    /// frame of `frame_flits` flits spanning `frame_time_rc` router cycles.
    pub fn iat_router_cycles(&self, frame_flits: u64, frame_time_rc: f64, tb: &TimeBase) -> f64 {
        assert!(frame_flits > 0);
        match *self {
            InjectionModel::BackToBack { peak } => tb.flit_iat_router_cycles(peak.as_bps()),
            InjectionModel::SmoothRate => frame_time_rc / frame_flits as f64,
        }
    }

    /// Short label for reports ("BB" / "SR").
    pub fn label(&self) -> &'static str {
        match self {
            InjectionModel::BackToBack { .. } => "BB",
            InjectionModel::SmoothRate => "SR",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bb_peak_fits_largest_frame() {
        let tb = TimeBase::default();
        let model = InjectionModel::back_to_back_for(1200, 0.033, &tb);
        let InjectionModel::BackToBack { peak } = model else {
            panic!()
        };
        // 1200 flits * 1024 bits / 33 ms ≈ 37.2 Mbps
        assert!((peak.as_mbps() - 37.236).abs() < 0.1, "{}", peak.as_mbps());
        // At that peak, exactly the largest frame fits in one frame time.
        let frame_time_rc = (0.033 / tb.router_cycle_secs()).round();
        let iat = model.iat_router_cycles(1200, frame_time_rc, &tb);
        let span = iat * 1200.0;
        assert!((span - frame_time_rc).abs() / frame_time_rc < 0.001);
    }

    #[test]
    fn bb_iat_independent_of_frame_size() {
        let tb = TimeBase::default();
        let model = InjectionModel::back_to_back_for(1000, 0.033, &tb);
        let ft = (0.033 / tb.router_cycle_secs()).round();
        let iat_small = model.iat_router_cycles(10, ft, &tb);
        let iat_large = model.iat_router_cycles(1000, ft, &tb);
        assert_eq!(iat_small, iat_large);
    }

    #[test]
    fn sr_spreads_over_frame_time() {
        let tb = TimeBase::default();
        let ft = (0.033 / tb.router_cycle_secs()).round();
        let model = InjectionModel::SmoothRate;
        // Small frames get large IATs, large frames small IATs; product is
        // always the frame time.
        for n in [1u64, 7, 100, 963] {
            let iat = model.iat_router_cycles(n, ft, &tb);
            assert!((iat * n as f64 - ft).abs() < 1e-6);
        }
    }

    #[test]
    fn sr_smoother_than_bb_for_small_frames() {
        let tb = TimeBase::default();
        let ft = (0.033 / tb.router_cycle_secs()).round();
        let bb = InjectionModel::back_to_back_for(1000, 0.033, &tb);
        let sr = InjectionModel::SmoothRate;
        // A 100-flit frame: BB bursts it in a tenth of the frame time.
        assert!(bb.iat_router_cycles(100, ft, &tb) < sr.iat_router_cycles(100, ft, &tb));
    }

    #[test]
    fn labels() {
        let tb = TimeBase::default();
        assert_eq!(InjectionModel::SmoothRate.label(), "SR");
        assert_eq!(
            InjectionModel::back_to_back_for(1, 0.033, &tb).label(),
            "BB"
        );
    }
}
