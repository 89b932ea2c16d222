//! Biased-priority functions for link scheduling (paper §3.1).
//!
//! The key idea: a head flit's priority combines the QoS its connection
//! *requested* (bandwidth reservation) with the QoS it is *receiving*
//! (queuing delay), so priorities grow as service falls behind, and grow
//! faster for bandwidth-hungry connections.
//!
//! * [`Iabp`] — Inter-Arrival Based Priority: `delay / IAT`.  The
//!   theoretical original; needs a divider per virtual channel, which is
//!   why the paper calls it impractical.
//! * [`Siabp`] — Simple IABP: priority starts at the connection's reserved
//!   slots per round and is *shifted left* every time the queuing-delay
//!   counter sets a new most-significant bit.  A shifter plus some
//!   combinational logic — the function the MMR actually uses.
//! * [`Fifo`] — oldest-first, QoS-blind.
//! * [`StaticPriority`] — reservation only, delay-blind.

use crate::candidate::Priority;
use serde::{Deserialize, Serialize};

/// A link-scheduling priority function.
pub trait LinkPriority: Send {
    /// Priority of a head flit given its connection's `reserved_slots`
    /// (slots per round), the connection's flit inter-arrival time
    /// `iat_rc` (router cycles), and the flit's queuing delay `waited_rc`
    /// (router cycles).
    fn priority(&self, reserved_slots: u64, iat_rc: f64, waited_rc: u64) -> Priority;

    /// Human-readable name.
    fn name(&self) -> &'static str;
}

/// Number of bits set-so-far in the delay counter: how many times SIABP
/// has doubled the initial priority.
#[inline]
fn delay_shifts(waited_rc: u64) -> u32 {
    64 - waited_rc.leading_zeros()
}

/// Maximum total bit width of a SIABP priority; keeps values exactly
/// representable in the `f64` carried by [`Priority`].
const SIABP_MAX_BITS: u32 = 52;

/// Simple Inter-Arrival Based Priority (§3.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct Siabp;

impl LinkPriority for Siabp {
    fn priority(&self, reserved_slots: u64, _iat_rc: f64, waited_rc: u64) -> Priority {
        // Initial value: reserved slots per round (an integer, unlike the
        // IAT).  Each time the delay counter sets a bit for the first
        // time, the priority shifts left one position.  The priority
        // register saturates at 2^52 (keeping values exact in the f64
        // carried by `Priority`); saturating the *value* rather than the
        // shift count preserves monotonicity in both the reservation and
        // the delay right up to the cap.
        let slots = reserved_slots.max(1);
        let shift = delay_shifts(waited_rc);
        let cap = (1u64 << SIABP_MAX_BITS) as f64;
        // 2^shift assembled from the exponent field (shift <= 64, far
        // inside the normal range): exact, and no libm call per head flit.
        let doublings = f64::from_bits((1023 + u64::from(shift)) << 52);
        Priority::new((slots as f64 * doublings).min(cap))
    }

    fn name(&self) -> &'static str {
        "SIABP"
    }
}

/// Inter-Arrival Based Priority: `queuing delay / IAT`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Iabp;

impl LinkPriority for Iabp {
    fn priority(&self, _reserved_slots: u64, iat_rc: f64, waited_rc: u64) -> Priority {
        debug_assert!(iat_rc > 0.0);
        Priority::new(waited_rc as f64 / iat_rc)
    }

    fn name(&self) -> &'static str {
        "IABP"
    }
}

/// Oldest-first (queuing delay only) — ignores QoS requirements.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl LinkPriority for Fifo {
    fn priority(&self, _reserved_slots: u64, _iat_rc: f64, waited_rc: u64) -> Priority {
        Priority::new(waited_rc as f64)
    }

    fn name(&self) -> &'static str {
        "FIFO"
    }
}

/// Reservation-only priority — ignores received QoS.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticPriority;

impl LinkPriority for StaticPriority {
    fn priority(&self, reserved_slots: u64, _iat_rc: f64, _waited_rc: u64) -> Priority {
        Priority::new(reserved_slots as f64)
    }

    fn name(&self) -> &'static str {
        "Static"
    }
}

/// Serializable priority-function selector for experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PriorityKind {
    /// Shift-based SIABP (default; what the MMR implements).
    Siabp,
    /// Division-based IABP.
    Iabp,
    /// Oldest-first.
    Fifo,
    /// Reservation-only.
    Static,
}

impl PriorityKind {
    /// Instantiate the function.
    pub fn instantiate(self) -> Box<dyn LinkPriority> {
        match self {
            PriorityKind::Siabp => Box::new(Siabp),
            PriorityKind::Iabp => Box::new(Iabp),
            PriorityKind::Fifo => Box::new(Fifo),
            PriorityKind::Static => Box::new(StaticPriority),
        }
    }

    /// Short label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            PriorityKind::Siabp => "SIABP",
            PriorityKind::Iabp => "IABP",
            PriorityKind::Fifo => "FIFO",
            PriorityKind::Static => "Static",
        }
    }

    /// All selectable functions.
    pub fn all() -> Vec<PriorityKind> {
        vec![
            PriorityKind::Siabp,
            PriorityKind::Iabp,
            PriorityKind::Fifo,
            PriorityKind::Static,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn siabp_initial_value_is_reservation() {
        let p = Siabp.priority(727, 1443.0, 0);
        assert_eq!(p.0, 727.0);
        let q = Siabp.priority(1, 1e6, 0);
        assert_eq!(q.0, 1.0);
    }

    #[test]
    fn siabp_doubles_on_each_new_delay_bit() {
        // delay 1 sets bit 0 -> one shift; delay 2..3 -> two shifts; etc.
        assert_eq!(Siabp.priority(10, 1.0, 1).0, 20.0);
        assert_eq!(Siabp.priority(10, 1.0, 2).0, 40.0);
        assert_eq!(Siabp.priority(10, 1.0, 3).0, 40.0);
        assert_eq!(Siabp.priority(10, 1.0, 4).0, 80.0);
        assert_eq!(Siabp.priority(10, 1.0, 1023).0, 10.0 * 1024.0);
    }

    #[test]
    fn siabp_monotone_in_delay() {
        let mut last = 0.0;
        for d in 0..1_000_000u64 {
            let p = Siabp.priority(21, 1.0, d).0;
            assert!(p >= last, "delay {d}: {p} < {last}");
            last = p;
        }
    }

    #[test]
    fn siabp_high_bandwidth_grows_faster() {
        // Same delay, larger reservation -> strictly larger priority.
        for d in [0u64, 5, 100, 10_000] {
            let hi = Siabp.priority(727, 1.0, d).0;
            let lo = Siabp.priority(1, 1.0, d).0;
            assert!(hi > lo);
        }
    }

    #[test]
    fn siabp_shift_saturates_safely() {
        // Huge delays must not overflow or lose exactness.
        let p = Siabp.priority(16_384, 1.0, u64::MAX).0;
        assert!(p.is_finite());
        assert!(p <= (1u64 << 52) as f64);
        assert_eq!(p as u64 as f64, p, "priority must stay an exact integer");
    }

    #[test]
    fn iabp_is_delay_over_iat() {
        let p = Iabp.priority(0, 500.0, 1000);
        assert_eq!(p.0, 2.0);
        assert_eq!(Iabp.priority(0, 500.0, 0).0, 0.0);
    }

    #[test]
    fn iabp_orders_like_bandwidth_at_equal_delay() {
        // Higher-bandwidth connection (smaller IAT) outranks at the same
        // queuing delay — the biasing rationale of §3.1.
        let hi = Iabp.priority(0, 1443.0, 10_000); // 55 Mbps
        let lo = Iabp.priority(0, 1_290_000.0, 10_000); // 64 Kbps
        assert!(hi > lo);
    }

    #[test]
    fn siabp_approximates_iabp_ordering() {
        // For two connections at the same delay, SIABP and IABP must agree
        // on who ranks first (slots ∝ bandwidth ∝ 1/IAT).
        let cases = [(727u64, 1443.0), (21, 53_000.0), (1, 1_290_000.0)];
        for (i, &(sa, ia)) in cases.iter().enumerate() {
            for &(sb, ib) in &cases[i + 1..] {
                // d = 0 excluded: IABP collapses to 0 there while SIABP
                // already reflects the reservation.
                for d in [64u64, 100, 65_536, 1 << 22] {
                    let s_ord = Siabp.priority(sa, ia, d).cmp(&Siabp.priority(sb, ib, d));
                    let i_ord = Iabp.priority(sa, ia, d).cmp(&Iabp.priority(sb, ib, d));
                    assert_eq!(s_ord, i_ord, "slots ({sa},{sb}) delay {d}");
                }
            }
        }
    }

    #[test]
    fn fifo_ignores_reservation() {
        assert_eq!(Fifo.priority(727, 1.0, 99), Fifo.priority(1, 9e9, 99));
        assert!(Fifo.priority(1, 1.0, 100) > Fifo.priority(727, 1.0, 99));
    }

    #[test]
    fn static_ignores_delay() {
        assert_eq!(
            StaticPriority.priority(5, 1.0, 0),
            StaticPriority.priority(5, 1.0, 1 << 40)
        );
    }

    #[test]
    fn kinds_instantiate_with_matching_labels() {
        for kind in PriorityKind::all() {
            let f = kind.instantiate();
            assert_eq!(f.name(), kind.label());
        }
    }
}
