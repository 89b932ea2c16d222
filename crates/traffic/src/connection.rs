//! Connection descriptors.
//!
//! The MMR is connection-oriented for multimedia traffic: a routing probe
//! reserves link bandwidth and buffer space end to end (Pipelined Circuit
//! Switching), so by the time flits flow, each connection has a fixed
//! input port, output port, and a bandwidth reservation expressed in
//! flit-cycle slots per round.  Those reservations are exactly what the
//! SIABP priority function biases on.

use mmr_sim::units::Bandwidth;
use serde::{Deserialize, Serialize};

/// Dense connection identifier, unique within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ConnectionId(pub u32);

impl ConnectionId {
    /// Index into per-connection arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Reporting class of a connection; Fig. 5 plots each CBR class separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// 64 Kbps-style low-bandwidth CBR (audio).
    CbrLow,
    /// 1.54 Mbps-style medium CBR (T1 video conferencing).
    CbrMedium,
    /// 55 Mbps-style high CBR (uncompressed-quality video).
    CbrHigh,
    /// MPEG-2 VBR video.
    Vbr,
    /// Best-effort (no reservation); used by extension experiments.
    BestEffort,
}

impl TrafficClass {
    /// Short label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::CbrLow => "cbr-low",
            TrafficClass::CbrMedium => "cbr-med",
            TrafficClass::CbrHigh => "cbr-high",
            TrafficClass::Vbr => "vbr",
            TrafficClass::BestEffort => "best-effort",
        }
    }
}

/// QoS requirements carried by the connection-setup probe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosSpec {
    /// Average (permanent) bandwidth requirement.
    pub avg: Bandwidth,
    /// Peak bandwidth; equals `avg` for CBR.
    pub peak: Bandwidth,
}

impl QosSpec {
    /// CBR spec: peak = average.
    pub fn cbr(bw: Bandwidth) -> Self {
        QosSpec { avg: bw, peak: bw }
    }

    /// VBR spec with distinct average and peak rates.
    pub fn vbr(avg: Bandwidth, peak: Bandwidth) -> Self {
        QosSpec { avg, peak }
    }
}

/// What kind of source feeds the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnectionKind {
    /// Constant bit rate.
    Cbr,
    /// MPEG-2 variable bit rate; the index selects the sequence parameters
    /// used to synthesize its trace.
    Vbr {
        /// Index into the sequence-parameter table.
        sequence: usize,
    },
}

/// A fully set-up connection, ready for flit transport.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnectionSpec {
    /// Identifier; also the VC index allocation key.
    pub id: ConnectionId,
    /// Input physical port (NIC) the connection enters on.
    pub input: usize,
    /// Output physical port it leaves on.
    pub output: usize,
    /// Reporting class.
    pub class: TrafficClass,
    /// QoS requirements.
    pub qos: QosSpec,
    /// Source kind.
    pub kind: ConnectionKind,
    /// Flit-cycle slots per round reserved to service the *average*
    /// bandwidth; this integer is the SIABP initial priority (§3.1).
    pub reserved_slots: u64,
}

impl ConnectionSpec {
    /// Inter-arrival time of this connection's flits at its average rate,
    /// in router cycles — the denominator of the IABP priority function.
    pub fn iat_router_cycles(&self, tb: &mmr_sim::time::TimeBase) -> f64 {
        tb.flit_iat_router_cycles(self.qos.avg.as_bps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_sim::time::TimeBase;

    #[test]
    fn cbr_qos_peak_equals_avg() {
        let q = QosSpec::cbr(Bandwidth::mbps(1.54));
        assert_eq!(q.avg, q.peak);
    }

    #[test]
    fn class_labels_are_distinct() {
        let labels = [
            TrafficClass::CbrLow,
            TrafficClass::CbrMedium,
            TrafficClass::CbrHigh,
            TrafficClass::Vbr,
            TrafficClass::BestEffort,
        ]
        .map(TrafficClass::label);
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }

    #[test]
    fn iat_tracks_average_bandwidth() {
        let spec = ConnectionSpec {
            id: ConnectionId(0),
            input: 0,
            output: 1,
            class: TrafficClass::CbrHigh,
            qos: QosSpec::cbr(Bandwidth::mbps(55.0)),
            kind: ConnectionKind::Cbr,
            reserved_slots: 727,
        };
        let tb = TimeBase::default();
        let iat = spec.iat_router_cycles(&tb);
        assert!((iat - 1443.0).abs() < 5.0);
    }
}
