//! Connection Admission Control (paper §2, "Connection Set up").
//!
//! Link and switch-port bandwidth is split into flit cycles grouped into
//! rounds; the number of flit cycles per round is an integer multiple of
//! the number of virtual channels per link.  A connection reserves an
//! integer number of flit-cycle *slots* per round:
//!
//! * a **CBR** connection is accepted iff the slots allocated on each link
//!   it uses do not exceed the round length;
//! * a **VBR** connection is accepted iff (a) the *average* (permanent)
//!   slots on the link fit in a round, and (b) the total *peak* slots fit
//!   in `round length × concurrency factor`.
//!
//! The concurrency factor trades QoS strength against the number of VBR
//! connections serviced concurrently.

use mmr_sim::time::TimeBase;
use mmr_sim::units::Bandwidth;
use serde::{Deserialize, Serialize};

/// Round (bandwidth frame) configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundConfig {
    /// Flit cycles (slots) per round.
    pub cycles_per_round: u64,
    /// VBR concurrency factor (≥ 1.0).
    pub concurrency_factor: f64,
}

impl Default for RoundConfig {
    fn default() -> Self {
        // 16384 slots on a 1.24 Gbps link gives ~75.7 Kbps slot
        // granularity, fine enough to carry a 64 Kbps connection in one
        // slot without gross over-reservation.
        RoundConfig {
            cycles_per_round: 16_384,
            concurrency_factor: 2.0,
        }
    }
}

impl RoundConfig {
    /// Bandwidth of one slot on a link described by `tb`.
    pub fn slot_bandwidth(&self, tb: &TimeBase) -> Bandwidth {
        Bandwidth::bps(tb.link_bits_per_sec / self.cycles_per_round as f64)
    }

    /// Slots needed to carry `bw` (ceiling, minimum 1 for positive rates).
    pub fn slots_for(&self, bw: Bandwidth, tb: &TimeBase) -> u64 {
        if bw.as_bps() <= 0.0 {
            return 0;
        }
        let slot = self.slot_bandwidth(tb).as_bps();
        (bw.as_bps() / slot).ceil() as u64
    }

    /// Check the "integer multiple of the number of virtual channels"
    /// structural constraint from §2.
    pub fn is_multiple_of(&self, virtual_channels: u64) -> bool {
        virtual_channels > 0 && self.cycles_per_round.is_multiple_of(virtual_channels)
    }
}

/// Reason a connection was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionError {
    /// Average-bandwidth slots exceed the round on the input link.
    InputAverageExceeded,
    /// Average-bandwidth slots exceed the round on the output link.
    OutputAverageExceeded,
    /// Peak slots exceed round × concurrency factor on the input link.
    InputPeakExceeded,
    /// Peak slots exceed round × concurrency factor on the output link.
    OutputPeakExceeded,
}

impl core::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            AdmissionError::InputAverageExceeded => "input link average bandwidth exhausted",
            AdmissionError::OutputAverageExceeded => "output link average bandwidth exhausted",
            AdmissionError::InputPeakExceeded => "input link peak bandwidth exhausted",
            AdmissionError::OutputPeakExceeded => "output link peak bandwidth exhausted",
        };
        f.write_str(s)
    }
}

impl std::error::Error for AdmissionError {}

/// Per-link slot ledger.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct LinkLedger {
    avg_slots: u64,
    peak_slots: u64,
}

/// Admission controller for one router: a ledger per input link and per
/// output link.
///
/// ```
/// use mmr_sim::{time::TimeBase, units::Bandwidth};
/// use mmr_traffic::admission::{AdmissionControl, RoundConfig};
///
/// let mut cac = AdmissionControl::new(4, RoundConfig::default(), TimeBase::default());
/// let video = Bandwidth::mbps(55.0);
/// let slots = cac.admit(0, 2, video, video).expect("plenty of room");
/// assert_eq!(slots, 727); // slots per round; also the SIABP initial priority
/// assert!(cac.input_load(0) > 0.04);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdmissionControl {
    round: RoundConfig,
    tb: TimeBase,
    inputs: Vec<LinkLedger>,
    outputs: Vec<LinkLedger>,
}

impl AdmissionControl {
    /// Controller for a router with `ports` input and output links.
    pub fn new(ports: usize, round: RoundConfig, tb: TimeBase) -> Self {
        AdmissionControl {
            round,
            tb,
            inputs: vec![LinkLedger::default(); ports],
            outputs: vec![LinkLedger::default(); ports],
        }
    }

    /// The round configuration in force.
    pub fn round(&self) -> RoundConfig {
        self.round
    }

    /// Slots a connection of the given average bandwidth reserves —
    /// exposed because this integer is also the SIABP initial priority.
    pub fn reserved_slots(&self, avg: Bandwidth) -> u64 {
        self.round.slots_for(avg, &self.tb)
    }

    fn check_link(
        ledger: &LinkLedger,
        avg_req: u64,
        peak_req: u64,
        round: &RoundConfig,
        input: bool,
    ) -> Result<(), AdmissionError> {
        if ledger.avg_slots + avg_req > round.cycles_per_round {
            return Err(if input {
                AdmissionError::InputAverageExceeded
            } else {
                AdmissionError::OutputAverageExceeded
            });
        }
        let peak_cap = (round.cycles_per_round as f64 * round.concurrency_factor) as u64;
        if ledger.peak_slots + peak_req > peak_cap {
            return Err(if input {
                AdmissionError::InputPeakExceeded
            } else {
                AdmissionError::OutputPeakExceeded
            });
        }
        Ok(())
    }

    /// Try to admit a connection with the given QoS on `(input, output)`;
    /// on success the slots are reserved and the reserved average-slot
    /// count is returned.
    pub fn admit(
        &mut self,
        input: usize,
        output: usize,
        avg: Bandwidth,
        peak: Bandwidth,
    ) -> Result<u64, AdmissionError> {
        let avg_req = self.round.slots_for(avg, &self.tb);
        let peak_req = self.round.slots_for(peak, &self.tb);
        Self::check_link(&self.inputs[input], avg_req, peak_req, &self.round, true)?;
        Self::check_link(&self.outputs[output], avg_req, peak_req, &self.round, false)?;
        self.inputs[input].avg_slots += avg_req;
        self.inputs[input].peak_slots += peak_req;
        self.outputs[output].avg_slots += avg_req;
        self.outputs[output].peak_slots += peak_req;
        Ok(avg_req)
    }

    /// Fraction of the round already reserved (average slots) on an input
    /// link.
    pub fn input_load(&self, input: usize) -> f64 {
        self.inputs[input].avg_slots as f64 / self.round.cycles_per_round as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cac() -> AdmissionControl {
        AdmissionControl::new(4, RoundConfig::default(), TimeBase::default())
    }

    #[test]
    fn slot_granularity() {
        let round = RoundConfig::default();
        let tb = TimeBase::default();
        let slot = round.slot_bandwidth(&tb);
        assert!((slot.as_bps() - 75683.6).abs() < 1.0, "{}", slot.as_bps());
        assert_eq!(round.slots_for(Bandwidth::kbps(64.0), &tb), 1);
        assert_eq!(round.slots_for(Bandwidth::mbps(1.54), &tb), 21);
        assert_eq!(round.slots_for(Bandwidth::mbps(55.0), &tb), 727);
        assert_eq!(round.slots_for(Bandwidth::bps(0.0), &tb), 0);
    }

    #[test]
    fn round_multiple_check() {
        let round = RoundConfig::default();
        assert!(round.is_multiple_of(64));
        assert!(round.is_multiple_of(128));
        assert!(!round.is_multiple_of(100));
        assert!(!round.is_multiple_of(0));
    }

    #[test]
    fn cbr_admits_up_to_full_round() {
        let mut c = cac();
        // 55 Mbps = 727 slots; 16384/727 = 22 connections fit on one link pair.
        let bw = Bandwidth::mbps(55.0);
        let mut admitted = 0;
        while c.admit(0, 0, bw, bw).is_ok() {
            admitted += 1;
        }
        assert_eq!(admitted, 22);
        assert!(c.input_load(0) > 0.97);
        // A tiny connection still fits in the remainder.
        assert!(c
            .admit(0, 0, Bandwidth::kbps(64.0), Bandwidth::kbps(64.0))
            .is_ok());
    }

    #[test]
    fn output_link_is_policed_independently() {
        let mut c = cac();
        let bw = Bandwidth::mbps(55.0);
        // Fill output 2 from input 0.
        for _ in 0..22 {
            c.admit(0, 2, bw, bw).unwrap();
        }
        // Input 0 is now also full; use a different input to isolate the
        // output check.
        let err = c.admit(1, 2, bw, bw).unwrap_err();
        assert_eq!(err, AdmissionError::OutputAverageExceeded);
        // Same input toward a different output succeeds.
        assert!(c.admit(1, 3, bw, bw).is_ok());
    }

    #[test]
    fn vbr_peak_test_uses_concurrency_factor() {
        let round = RoundConfig {
            cycles_per_round: 1000,
            concurrency_factor: 2.0,
        };
        let tb = TimeBase::default();
        let mut c = AdmissionControl::new(2, round, tb);
        let slot = round.slot_bandwidth(&tb).as_bps();
        // avg 100 slots, peak 600 slots per connection.
        let avg = Bandwidth::bps(100.0 * slot);
        let peak = Bandwidth::bps(600.0 * slot);
        assert!(c.admit(0, 0, avg, peak).is_ok());
        assert!(c.admit(0, 0, avg, peak).is_ok());
        assert!(c.admit(0, 0, avg, peak).is_ok()); // peak 1800 <= 2000
        let err = c.admit(0, 0, avg, peak).unwrap_err(); // peak 2400 > 2000
        assert_eq!(err, AdmissionError::InputPeakExceeded);
        // With a larger concurrency factor the same connection fits.
        let round2 = RoundConfig {
            cycles_per_round: 1000,
            concurrency_factor: 4.0,
        };
        let mut c2 = AdmissionControl::new(2, round2, tb);
        for _ in 0..6 {
            c2.admit(0, 0, avg, peak).unwrap();
        }
    }

    #[test]
    fn vbr_peak_boundary_exactly_at_capacity_admits_one_slot_over_rejects() {
        // The peak ledger's capacity is round × concurrency factor =
        // 1000 × 2.0 = 2000 slots.  Slot-multiple bandwidths make the
        // arithmetic exact: landing *on* the cap admits, one slot past
        // it rejects.
        let round = RoundConfig {
            cycles_per_round: 1000,
            concurrency_factor: 2.0,
        };
        let tb = TimeBase::default();
        let slot = round.slot_bandwidth(&tb).as_bps();
        let avg = Bandwidth::bps(10.0 * slot);

        // Exactly at capacity: 1999 + 1 = 2000 == cap.
        let mut c = AdmissionControl::new(2, round, tb);
        c.admit(0, 0, avg, Bandwidth::bps(1999.0 * slot)).unwrap();
        assert!(
            c.admit(0, 0, avg, Bandwidth::bps(1.0 * slot)).is_ok(),
            "peak exactly at round x concurrency must admit"
        );

        // One slot over: 1999 + 2 = 2001 > cap.
        let mut c = AdmissionControl::new(2, round, tb);
        c.admit(0, 0, avg, Bandwidth::bps(1999.0 * slot)).unwrap();
        assert_eq!(
            c.admit(0, 0, avg, Bandwidth::bps(2.0 * slot)).unwrap_err(),
            AdmissionError::InputPeakExceeded,
            "one slot past the peak cap must reject"
        );
        // The failed admit must not have dirtied any ledger: the
        // one-slot connection still fits afterwards.
        assert!(c.admit(0, 0, avg, Bandwidth::bps(1.0 * slot)).is_ok());

        // A fractional concurrency factor truncates: 1000 × 1.5 = 1500.
        let round = RoundConfig {
            cycles_per_round: 1000,
            concurrency_factor: 1.5,
        };
        let mut c = AdmissionControl::new(2, round, tb);
        assert!(c.admit(0, 0, avg, Bandwidth::bps(1500.0 * slot)).is_ok());
        let mut c = AdmissionControl::new(2, round, tb);
        assert_eq!(
            c.admit(0, 0, avg, Bandwidth::bps(1501.0 * slot))
                .unwrap_err(),
            AdmissionError::InputPeakExceeded
        );
    }

    #[test]
    fn mixed_class_slot_exhaustion_fills_the_round_exactly() {
        // The paper's CBR mix on one link pair: 22 × 55 Mbps (727 slots
        // each = 15,994), 18 × 1.54 Mbps (21 each = 378), and the
        // remaining 12 slots taken by 64 Kbps connections one slot at a
        // time — landing on precisely 16,384 reserved slots.
        let mut c = cac();
        for _ in 0..22 {
            c.admit(0, 0, Bandwidth::mbps(55.0), Bandwidth::mbps(55.0))
                .unwrap();
        }
        for _ in 0..18 {
            c.admit(0, 0, Bandwidth::mbps(1.54), Bandwidth::mbps(1.54))
                .unwrap();
        }
        let voice = Bandwidth::kbps(64.0);
        for _ in 0..12 {
            c.admit(0, 0, voice, voice).unwrap();
        }
        assert_eq!(c.input_load(0), 1.0, "round must be exactly full");
        // Every class is now refused, smallest first — and the medium
        // class reports the same exhaustion, not a peak error.
        assert_eq!(
            c.admit(0, 0, voice, voice).unwrap_err(),
            AdmissionError::InputAverageExceeded
        );
        assert_eq!(
            c.admit(0, 0, Bandwidth::mbps(1.54), Bandwidth::mbps(1.54))
                .unwrap_err(),
            AdmissionError::InputAverageExceeded
        );
        // Other links are untouched by the full one.
        assert_eq!(c.input_load(1), 0.0);
        assert!(c.admit(1, 1, voice, voice).is_ok());
    }

    #[test]
    fn reserved_slots_matches_round_math() {
        let c = cac();
        assert_eq!(c.reserved_slots(Bandwidth::mbps(55.0)), 727);
        assert_eq!(c.reserved_slots(Bandwidth::kbps(64.0)), 1);
    }

    #[test]
    fn error_display_strings() {
        let e = AdmissionError::InputPeakExceeded;
        assert!(e.to_string().contains("peak"));
    }
}
