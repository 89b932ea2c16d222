//! Fault injection and graceful degradation (chaos experiments).
//!
//! [`FaultState`] consumes a deterministic [`FaultPlan`] and turns its
//! events into concrete pipeline damage — corrupted/lost flits on input
//! links, lost or duplicated credit returns, stalled output ports, and
//! rogue sources violating their admitted contracts.  The matching
//! *recovery* mechanisms live here too:
//!
//! * **checksum discard** — the router ingress verifies every flit's
//!   header CRC ([`mmr_traffic::flit::Flit::integrity_ok`]); corrupted
//!   flits are discarded and their credit returned immediately;
//! * **credit watchdog** — every 64 flit cycles (`WATCHDOG_PERIOD`) the
//!   NIC-side credit counters are audited against actual VC occupancy and
//!   resynchronized on drift (covering silent link drops and phantom
//!   credits);
//! * **contract policing + quarantine** — per-connection generation rates
//!   are metered over [`RATE_WINDOW`]; a guaranteed connection exceeding
//!   1.5 × (`ROGUE_THRESHOLD`) its admitted rate is *quarantined*: its
//!   reservation is zeroed so the link schedulers treat it as
//!   best-effort, returning its slots to the best-effort pool while the
//!   remaining guaranteed connections keep their bounds.
//!
//! A router holds a [`FaultState`] only while a non-empty plan is
//! installed; without one it has no fault state at all.  Everything is
//! sized at install time and mutated in place, so an armed router stays
//! allocation-free in steady state.

use mmr_sim::fault::{FaultKind, FaultPlan};
use serde::{Deserialize, Serialize};

/// Credit-audit period of the watchdog, flit cycles.
const WATCHDOG_PERIOD: u64 = 64;

/// Observed/admitted generation-rate ratio that triggers quarantine.
const ROGUE_THRESHOLD: f64 = 1.5;

/// Rate-metering window of contract policing, flit cycles.
pub const RATE_WINDOW: u64 = 2_048;

/// What the fault subsystem saw and did during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultReport {
    /// Plan events consumed.
    pub events_fired: u64,
    /// Flits caught by the ingress checksum check and discarded.
    pub corrupted_flits: u64,
    /// Flits lost outright (silent link drops + phantom-credit guard).
    pub dropped_flits: u64,
    /// Credit returns lost on the return path.
    pub credits_lost: u64,
    /// Spurious duplicate credit returns injected.
    pub credits_duplicated: u64,
    /// Excess credits discarded by counter saturation.
    pub excess_credits_discarded: u64,
    /// Watchdog resynchronizations (one per drifted connection fixed).
    pub credit_resyncs: u64,
    /// Output-port × cycle units spent stalled.
    pub stall_cycles: u64,
    /// Extra flits injected by rogue sources.
    pub rogue_flits: u64,
    /// Connections currently quarantined (demoted to best-effort).
    pub quarantined_connections: u64,
}

impl FaultReport {
    /// Flits that never reached their output (corrupted + dropped).
    pub fn lost_flits(&self) -> u64 {
        self.corrupted_flits + self.dropped_flits
    }
}

/// What happened to a flit crossing the input link this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFate {
    /// Arrived untouched.
    Clean,
    /// Arrived with flipped bits (ingress checksum must catch it).
    Corrupted,
    /// Never arrived; the spent credit is gone with it.
    Dropped,
}

/// Runtime fault-injection and recovery state owned by the router.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    cursor: usize,
    /// Per output: first flit cycle at which the port accepts again.
    stall_until: Vec<u64>,
    max_stall_until: u64,
    /// Per input: corruptions/drops waiting for the next forwarded flit.
    pending_corrupt: Vec<u32>,
    pending_drop: Vec<u32>,
    /// Per connection: credit returns to steal / duplicates to inject.
    steal_returns: Vec<u32>,
    pending_dup: Vec<usize>,
    /// Per connection: rogue-source episode state.
    rogue_until: Vec<u64>,
    rogue_burst: Vec<u32>,
    rogue_seq: Vec<u64>,
    /// Per connection: quarantine flag and rate metering.
    quarantined: Vec<bool>,
    gen_in_window: Vec<u32>,
    /// Admitted flits per rate window, per connection (∞-free contract).
    contract_per_window: Vec<f64>,
    guaranteed: Vec<bool>,
    window_started: u64,
    newly_quarantined: Vec<usize>,
    salt: u16,
    report: FaultReport,
}

/// Sequence-number base for rogue-injected flits, far above any admitted
/// source's range so injected traffic is distinguishable in traces.
const ROGUE_SEQ_BASE: u64 = 1 << 48;

impl FaultState {
    /// Fault state for `ports` ports running `plan`;
    /// `contract_per_window[c]` is connection `c`'s admitted flit count
    /// per [`RATE_WINDOW`], and `guaranteed[c]` marks connections with a
    /// bandwidth reservation.  A router builds one only for a non-empty
    /// plan.
    pub fn new(
        ports: usize,
        plan: FaultPlan,
        contract_per_window: Vec<f64>,
        guaranteed: Vec<bool>,
    ) -> Self {
        let conns = contract_per_window.len();
        debug_assert_eq!(guaranteed.len(), conns);
        FaultState {
            plan,
            cursor: 0,
            stall_until: vec![0; ports],
            max_stall_until: 0,
            pending_corrupt: vec![0; ports],
            pending_drop: vec![0; ports],
            steal_returns: vec![0; conns],
            pending_dup: Vec::with_capacity(conns.max(4)),
            rogue_until: vec![0; conns],
            rogue_burst: vec![0; conns],
            rogue_seq: vec![ROGUE_SEQ_BASE; conns],
            quarantined: vec![false; conns],
            gen_in_window: vec![0; conns],
            contract_per_window,
            guaranteed,
            window_started: 0,
            newly_quarantined: Vec::with_capacity(conns.max(1)),
            salt: 0x9E37,
            report: FaultReport::default(),
        }
    }

    /// Accumulated counters (quarantine count refreshed live).
    pub fn report(&self) -> FaultReport {
        FaultReport {
            quarantined_connections: self.quarantined.iter().filter(|q| **q).count() as u64,
            ..self.report
        }
    }

    /// Reset counters at measurement start (quarantine and pending fault
    /// state persist — they are system state, not statistics).
    pub fn reset_stats(&mut self) {
        self.report = FaultReport::default();
    }

    /// Consume all events due at `now` (flit cycles) and account stalled
    /// ports.  Call once at the top of each router step.
    pub fn begin_cycle(&mut self, now: u64) {
        let events = self.plan.events();
        while self.cursor < events.len() && events[self.cursor].at <= now {
            let ev = events[self.cursor];
            self.cursor += 1;
            self.report.events_fired += 1;
            match ev.kind {
                FaultKind::CorruptFlit { input } => self.pending_corrupt[input] += 1,
                FaultKind::DropFlit { input } => self.pending_drop[input] += 1,
                FaultKind::DropCredit { conn } => self.steal_returns[conn] += 1,
                FaultKind::DuplicateCredit { conn } => {
                    self.pending_dup.push(conn);
                    self.report.credits_duplicated += 1;
                }
                FaultKind::StallOutput {
                    output,
                    flit_cycles,
                } => {
                    let until = (now + flit_cycles).max(self.stall_until[output]);
                    self.stall_until[output] = until;
                    self.max_stall_until = self.max_stall_until.max(until);
                }
                FaultKind::RogueSource {
                    conn,
                    flit_cycles,
                    extra_flits_per_cycle,
                } => {
                    self.rogue_until[conn] = (now + flit_cycles).max(self.rogue_until[conn]);
                    self.rogue_burst[conn] = self.rogue_burst[conn].max(extra_flits_per_cycle);
                }
            }
        }
        if self.max_stall_until > now {
            self.report.stall_cycles +=
                self.stall_until.iter().filter(|&&u| u > now).count() as u64;
        }
    }

    /// Drain duplicate-credit injections queued by `begin_cycle`.
    pub fn take_pending_dups(&mut self) -> std::vec::Drain<'_, usize> {
        self.pending_dup.drain(..)
    }

    /// True if `output` refuses flits this cycle.
    #[inline]
    pub fn output_stalled(&self, output: usize, now: u64) -> bool {
        self.stall_until[output] > now
    }

    /// True if any output is stalled this cycle (fast path gate).
    #[inline]
    pub fn any_stall(&self, now: u64) -> bool {
        self.max_stall_until > now
    }

    /// Apply link damage to a flit forwarded on `input`; mutates the flit
    /// in place on corruption.
    pub fn on_link_flit(&mut self, input: usize, flit: &mut mmr_traffic::flit::Flit) -> LinkFate {
        if self.pending_drop[input] > 0 {
            self.pending_drop[input] -= 1;
            self.report.dropped_flits += 1;
            return LinkFate::Dropped;
        }
        if self.pending_corrupt[input] > 0 {
            self.pending_corrupt[input] -= 1;
            flit.corrupt_in_transit(self.salt);
            // Roll the salt so repeated corruptions flip different bits.
            self.salt = self.salt.rotate_left(3) ^ 0x5DEE;
            return LinkFate::Corrupted;
        }
        LinkFate::Clean
    }

    /// Record an ingress-checksum catch (flit discarded, credit returned).
    pub fn note_corrupt_detected(&mut self) {
        self.report.corrupted_flits += 1;
    }

    /// Record a phantom-credit guard drop (flit arrived on a duplicated
    /// credit with no buffer slot free; discarding it without returning a
    /// credit annihilates the phantom).
    pub fn note_phantom_drop(&mut self) {
        self.report.dropped_flits += 1;
    }

    /// Steal `conn`'s next credit return if a loss is pending.
    pub fn steal_return(&mut self, conn: usize) -> bool {
        if self.steal_returns[conn] > 0 {
            self.steal_returns[conn] -= 1;
            self.report.credits_lost += 1;
            true
        } else {
            false
        }
    }

    /// Record credits discarded by counter saturation.
    pub fn note_excess_credits(&mut self, n: u32) {
        self.report.excess_credits_discarded += n as u64;
    }

    /// Record a watchdog resynchronization.
    pub fn note_resync(&mut self) {
        self.report.credit_resyncs += 1;
    }

    /// True when the credit watchdog should audit this cycle.
    #[inline]
    pub fn watchdog_due(&self, now: u64) -> bool {
        now.is_multiple_of(WATCHDOG_PERIOD)
    }

    /// Rogue extra flits for `conn` this cycle, with the next sequence
    /// number to stamp on them; advances the counter.
    pub fn rogue_take(&mut self, conn: usize, now: u64) -> Option<(u64, u32)> {
        if self.rogue_until[conn] > now && self.rogue_burst[conn] > 0 {
            let n = self.rogue_burst[conn];
            let seq = self.rogue_seq[conn];
            self.rogue_seq[conn] += n as u64;
            self.report.rogue_flits += n as u64;
            Some((seq, n))
        } else {
            None
        }
    }

    /// Meter one generated flit for contract policing.
    #[inline]
    pub fn note_generated(&mut self, conn: usize) {
        self.gen_in_window[conn] += 1;
    }

    /// Roll the rate-metering window if due; connections exceeding their
    /// contract are flagged and queued in
    /// [`FaultState::newly_quarantined`].
    pub fn poll_contracts(&mut self, now: u64) {
        if now < self.window_started + RATE_WINDOW {
            return;
        }
        for conn in 0..self.gen_in_window.len() {
            let observed = self.gen_in_window[conn] as f64;
            let allowed = ROGUE_THRESHOLD * self.contract_per_window[conn] + 2.0;
            if self.guaranteed[conn] && !self.quarantined[conn] && observed > allowed {
                self.quarantined[conn] = true;
                self.newly_quarantined.push(conn);
            }
            self.gen_in_window[conn] = 0;
        }
        self.window_started = now;
    }

    /// Connections quarantined since the last
    /// [`FaultState::clear_newly_quarantined`] — the router must demote
    /// their reservations.
    pub fn newly_quarantined(&self) -> &[usize] {
        &self.newly_quarantined
    }

    /// Acknowledge processed quarantine decisions.
    pub fn clear_newly_quarantined(&mut self) {
        self.newly_quarantined.clear();
    }

    /// Per-connection quarantine flags.
    pub fn quarantined(&self) -> &[bool] {
        &self.quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_sim::fault::FaultEvent;
    use mmr_sim::time::RouterCycle;
    use mmr_traffic::connection::ConnectionId;
    use mmr_traffic::flit::Flit;

    fn state_with(events: Vec<FaultEvent>) -> FaultState {
        FaultState::new(
            4,
            FaultPlan::from_events(events),
            vec![10.0; 8],
            vec![true; 8],
        )
    }

    #[test]
    fn events_fire_once_at_their_cycle() {
        let mut fs = state_with(vec![
            FaultEvent {
                at: 5,
                kind: FaultKind::CorruptFlit { input: 2 },
            },
            FaultEvent {
                at: 5,
                kind: FaultKind::DropFlit { input: 1 },
            },
            FaultEvent {
                at: 9,
                kind: FaultKind::DropCredit { conn: 3 },
            },
        ]);
        fs.begin_cycle(4);
        assert_eq!(fs.report().events_fired, 0);
        fs.begin_cycle(5);
        assert_eq!(fs.report().events_fired, 2);
        let mut f = Flit::cbr(ConnectionId(0), 0, RouterCycle(0));
        assert_eq!(fs.on_link_flit(1, &mut f), LinkFate::Dropped);
        assert_eq!(fs.on_link_flit(2, &mut f), LinkFate::Corrupted);
        assert!(!f.integrity_ok());
        assert_eq!(fs.on_link_flit(2, &mut f), LinkFate::Clean);
        fs.begin_cycle(9);
        assert!(fs.steal_return(3));
        assert!(!fs.steal_return(3));
    }

    #[test]
    fn stalls_expire_and_are_accounted() {
        let mut fs = state_with(vec![FaultEvent {
            at: 10,
            kind: FaultKind::StallOutput {
                output: 1,
                flit_cycles: 3,
            },
        }]);
        fs.begin_cycle(10);
        assert!(fs.output_stalled(1, 10));
        assert!(fs.any_stall(10));
        assert!(!fs.output_stalled(0, 10));
        assert!(!fs.output_stalled(1, 13));
        assert!(!fs.any_stall(13));
        assert_eq!(fs.report().stall_cycles, 1);
    }

    #[test]
    fn rogue_episode_injects_then_stops() {
        let mut fs = state_with(vec![FaultEvent {
            at: 0,
            kind: FaultKind::RogueSource {
                conn: 2,
                flit_cycles: 2,
                extra_flits_per_cycle: 3,
            },
        }]);
        fs.begin_cycle(0);
        let (seq0, n0) = fs.rogue_take(2, 0).unwrap();
        assert_eq!((seq0, n0), (ROGUE_SEQ_BASE, 3));
        let (seq1, _) = fs.rogue_take(2, 1).unwrap();
        assert_eq!(seq1, ROGUE_SEQ_BASE + 3);
        assert!(fs.rogue_take(2, 2).is_none(), "episode over");
        assert!(fs.rogue_take(1, 0).is_none(), "other conns untouched");
        assert_eq!(fs.report().rogue_flits, 6);
    }

    #[test]
    fn contract_policing_quarantines_violators_once() {
        let mut fs = FaultState::new(
            4,
            FaultPlan::from_events(vec![FaultEvent {
                at: 0,
                kind: FaultKind::DropCredit { conn: 0 },
            }]),
            vec![4.0, 4.0],
            vec![true, true],
        );
        // Connection 0 generates 20 flits in one rate window (contract
        // allows 1.5*4+2 = 8); connection 1 stays within contract.
        for _ in 0..20 {
            fs.note_generated(0);
        }
        for _ in 0..5 {
            fs.note_generated(1);
        }
        fs.poll_contracts(RATE_WINDOW - 1);
        assert!(
            fs.newly_quarantined().is_empty(),
            "the window is still open"
        );
        fs.poll_contracts(RATE_WINDOW);
        assert_eq!(fs.newly_quarantined(), &[0]);
        assert_eq!(fs.quarantined(), &[true, false]);
        assert_eq!(fs.report().quarantined_connections, 1);
        fs.clear_newly_quarantined();
        // Already-quarantined connections are not re-flagged.
        for _ in 0..20 {
            fs.note_generated(0);
        }
        fs.poll_contracts(2 * RATE_WINDOW);
        assert!(fs.newly_quarantined().is_empty());
    }
}
