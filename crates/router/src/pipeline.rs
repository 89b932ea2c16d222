//! The one switch pipeline every MMR runs (paper Fig. 4).
//!
//! [`SwitchCore`] owns what every MMR has — traffic sources behind their
//! injection calendar, NICs with their credit bank, the VC memory, one
//! link scheduler per input, the switch scheduler with its RNG, and the
//! crossbar — and exposes a flit cycle as one method per stage.  One
//! adapter steps it: the node of a [`Fabric`](crate::fabric::Fabric),
//! which calls the stages in order and supplies, as static-dispatch
//! closures, what surrounds them.  The single router,
//! [`MmrRouter`](crate::router::MmrRouter), is the one-node fabric.
//!
//! | stage | call | the node adapter supplies |
//! |---|---|---|
//! | source generation | [`inject`](SwitchCore::inject) | `on_generated`: buffers a `Generated` event; meters the flit for contract policing under faults |
//! | link scheduling | [`select`](SwitchCore::select) | `eligible`: a next-hop credit, and no stalled output under faults |
//! | switch scheduling | [`arbitrate`](SwitchCore::arbitrate) | — |
//! | crossbar traversal | [`cross`](SwitchCore::cross), [`recycle`](SwitchCore::recycle) | the loop over the crossed flits: eject (a `Delivered` event) or forward |
//! | NIC forwarding | [`forward`](SwitchCore::forward) | `ingress`: admits, or runs the link-fault checks under faults |
//! | credit return | [`queue_credit_return`](SwitchCore::queue_credit_return) per crossed flit, [`return_credits`](SwitchCore::return_credits) to end the cycle | which crossings return a credit to a NIC here; under faults the counters clamp and the watchdog audits them instead |
//!
//! Within a cycle `select` and `arbitrate` see the VC state from before
//! `forward`, so a flit spends one full cycle on its input link before it
//! can compete for the crossbar, and a credit returned in `cross` is
//! spendable the following cycle — the paper's short-link,
//! one-phit-credit timing.  The fabric also feeds the VC memory from its
//! in-links: it pushes into the crate-visible `mem` before `select`.
//!
//! **The arbitration RNG is passed in**, not derived here: a one-node
//! fabric (the single router) seeds it `seed ^ 0x4D4D_5221`, node *k* of
//! a larger fabric takes split *k* of `seed ^ 0x6E65_7477`, and every
//! golden result depends on those streams.
//!
//! **Histogram storage.**  A histogram family that grows with the
//! connection count is one block: the observatory's per-connection delay
//! histograms are one [`LogHistogramBank`](mmr_sim::stats::LogHistogramBank),
//! frame jitter is one aggregate histogram in the metrics collector.
//! Never a `Vec` of per-connection 4 KiB histograms, because of glibc:
//! a dropped router's hundreds of separately freed 4 KiB blocks coalesce
//! at the heap top, glibc trims the top once it passes its 128 KiB trim
//! threshold, and the next build page-faults it back, so set-up time (a
//! benchmark metric) hung on allocation order.  With that storage gone,
//! every topology — the one-node line (the single router) included — is
//! built by one builder, in one order, and no order is load-bearing.
//!
//! The stage methods are `#[inline(always)]`: the closures must fold into
//! the adapter's step, and plain `#[inline]` left the same shape out of
//! line at a measured 11 % of the saturated-CBR step (`drain_due`).

use crate::config::{LinkPolicy, RouterConfig};
use crate::credit::CreditBank;
use crate::crossbar::{Crossbar, CrossedFlit};
use crate::link_scheduler::{LinkScheduler, VcQosInfo};
use crate::nic::Nic;
use crate::tdm::TdmLinkScheduler;
use crate::vcmem::VcMemory;
use mmr_arbiter::candidate::CandidateSet;
use mmr_arbiter::matching::Matching;
use mmr_arbiter::priority::LinkPriority;
use mmr_arbiter::scheduler::SwitchScheduler;
use mmr_sim::rng::SimRng;
use mmr_sim::time::RouterCycle;
use mmr_traffic::calendar::InjectionCalendar;
use mmr_traffic::flit::Flit;
use mmr_traffic::source::TrafficSource;

/// A link scheduler of either policy (see [`LinkPolicy`]).
enum AnyLinkScheduler {
    Priority(LinkScheduler),
    Tdm(TdmLinkScheduler),
}

impl AnyLinkScheduler {
    fn select_where<F: Fn(usize) -> bool>(
        &mut self,
        mem: &VcMemory,
        qos: &[VcQosInfo],
        priority_fn: &dyn LinkPriority,
        now: RouterCycle,
        cs: &mut CandidateSet,
        eligible: F,
    ) -> usize {
        match self {
            AnyLinkScheduler::Priority(ls) => {
                ls.select_where(mem, qos, priority_fn, now, cs, eligible)
            }
            AnyLinkScheduler::Tdm(ts) => ts.select_where(mem, qos, priority_fn, now, cs, eligible),
        }
    }

    /// What `n` selections on an empty VC memory leave behind: only a
    /// TDM table's cursor carries per-call state.
    fn advance_idle(&mut self, n: u64) {
        if let AnyLinkScheduler::Tdm(ts) = self {
            ts.advance_cursor(n);
        }
    }
}

/// How a switch's VCs and sources attach to its ports — the two lookups
/// [`SwitchCore::new`] wires NICs and link schedulers from.
pub struct Wiring<I, S> {
    /// Input port of each VC.
    pub input_of_vc: I,
    /// The VC each traffic source (by index) injects into.
    pub vc_of_source: S,
}

/// What becomes of a flit a NIC just sent down its input link (its
/// credit is already spent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingress {
    /// The flit enters its VC buffer.
    Admit,
    /// The flit is lost and its credit with it.
    Discard,
    /// The flit is discarded at the router's edge, before it took a
    /// buffer slot: its credit goes straight back.
    DiscardAndReturnCredit,
}

/// One MMR's datapath; see the [module docs](self).
pub struct SwitchCore {
    sources: Vec<Box<dyn TrafficSource + Send>>,
    /// Next-injection cache over `sources`; only `inject` refreshes it.
    calendar: InjectionCalendar,
    /// Per source: (index into `nics`, slot within that NIC).
    source_slots: Vec<(u32, u32)>,
    /// One NIC per input port that sources traffic here, in port order.
    pub(crate) nics: Vec<Nic>,
    /// Input port of each NIC.
    nic_port: Vec<usize>,
    /// NIC-side credits, per VC.
    pub(crate) credits: CreditBank,
    pub(crate) mem: VcMemory,
    link_scheds: Vec<AnyLinkScheduler>,
    pub(crate) qos: Vec<VcQosInfo>,
    pub(crate) priority_fn: Box<dyn LinkPriority>,
    pub(crate) arbiter: Box<dyn SwitchScheduler>,
    rng: SimRng,
    pub(crate) candidates: CandidateSet,
    pub(crate) matching: Matching,
    pub(crate) crossbar: Crossbar,
    crossed: Vec<CrossedFlit>,
    drain: Vec<Flit>,
}

impl SwitchCore {
    /// Wire a `cfg.ports`-port switch over `qos.len()` VCs: a link
    /// scheduler of `cfg.link_policy` per input, a NIC per input that
    /// has sources, credits and buffers of `cfg.vc_buffer_flits`.
    /// `rng` drives only arbitration tie-breaks.
    pub fn new<I: Fn(usize) -> usize, S: Fn(usize) -> usize>(
        cfg: &RouterConfig,
        qos: Vec<VcQosInfo>,
        sources: Vec<Box<dyn TrafficSource + Send>>,
        wiring: Wiring<I, S>,
        arbiter: Box<dyn SwitchScheduler>,
        priority_fn: Box<dyn LinkPriority>,
        rng: SimRng,
    ) -> Self {
        let (ports, vcs) = (cfg.ports, qos.len());
        let mut by_input: Vec<Vec<usize>> = vec![Vec::new(); ports];
        for vc in 0..vcs {
            by_input[(wiring.input_of_vc)(vc)].push(vc);
        }
        // NIC queues in source order, sized up front (a port sources at
        // most its own VCs; grown by `push` they cost measurable set-up).
        // `source_slots` holds the port until the dense NIC index is known.
        let mut nic_vcs: Vec<Vec<usize>> = by_input
            .iter()
            .map(|vcs| Vec::with_capacity(vcs.len()))
            .collect();
        let mut source_slots = Vec::with_capacity(sources.len());
        for i in 0..sources.len() {
            let vc = (wiring.vc_of_source)(i);
            let port = (wiring.input_of_vc)(vc);
            source_slots.push((port as u32, nic_vcs[port].len() as u32));
            nic_vcs[port].push(vc);
        }
        let mut nics = Vec::new();
        let mut nic_port = Vec::new();
        let mut nic_of_port = vec![u32::MAX; ports];
        for (port, list) in nic_vcs.into_iter().enumerate() {
            if !list.is_empty() {
                nic_of_port[port] = nics.len() as u32;
                nic_port.push(port);
                nics.push(Nic::new(list));
            }
        }
        for s in &mut source_slots {
            s.0 = nic_of_port[s.0 as usize];
        }
        let link_scheds = by_input
            .into_iter()
            .enumerate()
            .map(|(p, vcs)| match cfg.link_policy {
                LinkPolicy::Priority => AnyLinkScheduler::Priority(LinkScheduler::new(p, vcs)),
                LinkPolicy::SlotTable {
                    backfill,
                    table_len,
                } => AnyLinkScheduler::Tdm(TdmLinkScheduler::new(
                    p,
                    vcs.iter().map(|&vc| (vc, qos[vc].reserved_slots)).collect(),
                    cfg.round.cycles_per_round,
                    table_len,
                    backfill,
                )),
            })
            .collect();
        SwitchCore {
            calendar: InjectionCalendar::from_sources(&sources),
            sources,
            source_slots,
            nics,
            nic_port,
            credits: CreditBank::new(vcs, cfg.vc_buffer_flits as u32),
            mem: VcMemory::new(vcs, cfg.vc_buffer_flits, cfg.vc_ram_banks),
            link_scheds,
            qos,
            priority_fn,
            arbiter,
            rng,
            candidates: CandidateSet::new(ports, cfg.candidate_levels),
            matching: Matching::new(ports),
            crossbar: Crossbar::new(ports),
            crossed: Vec::with_capacity(ports),
            drain: Vec::new(),
        }
    }

    /// Queue `flit` at the NIC slot of source `source`.
    #[inline(always)]
    pub fn enqueue(&mut self, source: usize, flit: Flit) {
        let (nic, slot) = self.source_slots[source];
        self.nics[nic as usize].enqueue(slot as usize, flit);
    }

    /// Stage 1: every source due at `now` injects into its NIC queue;
    /// `on_generated(source)` runs once per flit, in (source, emission)
    /// order.  O(1) on the many cycles with nothing due.
    #[inline(always)]
    pub fn inject(&mut self, now: RouterCycle, mut on_generated: impl FnMut(usize)) {
        let (nics, slots) = (&mut self.nics, &self.source_slots);
        self.calendar
            .drain_due(&mut self.sources, now, &mut self.drain, |i, flit| {
                let (nic, slot) = slots[i];
                nics[nic as usize].enqueue(slot as usize, flit);
                on_generated(i);
            });
    }

    /// Stage 2: each input's link scheduler offers its best head flits
    /// among the VCs `eligible(vc, qos)` admits.  Returns the number of
    /// candidates offered.
    #[inline(always)]
    pub fn select(
        &mut self,
        now: RouterCycle,
        eligible: impl Fn(usize, &VcQosInfo) -> bool,
    ) -> u64 {
        self.candidates.clear();
        if self.mem.total_occupancy() == 0 {
            // No buffered flit anywhere, so no candidate: skip the scans
            // and leave behind what the empty selections would have.
            for ls in &mut self.link_scheds {
                ls.advance_idle(1);
            }
            return 0;
        }
        let (mem, qos, priority_fn) = (&self.mem, &self.qos, self.priority_fn.as_ref());
        let mut offered = 0;
        for ls in &mut self.link_scheds {
            offered += ls.select_where(mem, qos, priority_fn, now, &mut self.candidates, |vc| {
                eligible(vc, &qos[vc])
            }) as u64;
        }
        offered
    }

    /// Stage 3: the switch scheduler matches the candidates into
    /// `matching` (reused, like the arbiters' scratch — the step stays
    /// allocation-free).  Returns the matching's size.
    #[inline(always)]
    pub fn arbitrate(&mut self) -> usize {
        if self.candidates.is_empty() {
            // Skipping the kernel, not handing it an empty set, leaves
            // the RNG stream and kernel probes untouched on idle cycles:
            // the pinned results in tests/determinism.rs depend on it.
            self.matching.clear();
        } else {
            self.arbiter
                .schedule_into(&self.candidates, &mut self.rng, &mut self.matching);
        }
        self.matching.size()
    }

    /// Stage 4: matched head flits leave the VC memory through the
    /// crossbar.  The returned buffer is the core's scratch: hand it
    /// back with [`recycle`](Self::recycle) once the flits are routed.
    #[inline(always)]
    pub fn cross(&mut self, measuring: bool) -> Vec<CrossedFlit> {
        let mut crossed = std::mem::take(&mut self.crossed);
        self.crossbar
            .transfer(&self.matching, &mut self.mem, measuring, &mut crossed);
        crossed
    }

    /// Return the buffer [`cross`](Self::cross) lent out.
    #[inline(always)]
    pub fn recycle(&mut self, crossed: Vec<CrossedFlit>) {
        self.crossed = crossed;
    }

    /// Stage 5: each NIC sends at most one credit-holding flit down its
    /// input link, spending the credit; `ingress(mem, input, vc, flit)`
    /// decides its fate, and an admitted flit is buffered as of `arrival`
    /// (the cycle's end: it cannot be scheduled in the cycle it was sent).
    #[inline(always)]
    pub fn forward(
        &mut self,
        arrival: RouterCycle,
        mut ingress: impl FnMut(&VcMemory, usize, usize, &mut Flit) -> Ingress,
    ) {
        for (nic, &input) in self.nics.iter_mut().zip(&self.nic_port) {
            let credits = &self.credits;
            let Some((vc, mut flit)) = nic.forward_one(|c| credits.has_credit(c)) else {
                continue;
            };
            self.credits.spend(vc);
            match ingress(&self.mem, input, vc, &mut flit) {
                Ingress::Admit => self.mem.push(vc, flit, arrival),
                Ingress::Discard => {}
                Ingress::DiscardAndReturnCredit => self.credits.queue_return(vc),
            }
        }
        debug_assert!(
            self.mem.index_consistent() && self.nics.iter().all(Nic::index_consistent),
            "occupancy index out of sync"
        );
    }

    /// A crossed flit freed a buffer slot a NIC here feeds: its credit
    /// is on its way back, spendable after [`return_credits`](Self::return_credits).
    #[inline(always)]
    pub fn queue_credit_return(&mut self, vc: usize) {
        self.credits.queue_return(vc);
    }

    /// Stage 6: credits queued this cycle become spendable the next.
    #[inline(always)]
    pub fn return_credits(&mut self) {
        self.credits.apply_returns();
    }

    /// Flits buffered in the NICs and the VC memory.
    pub fn backlog(&self) -> usize {
        self.nics.iter().map(Nic::total_depth).sum::<usize>() + self.mem.total_occupancy()
    }

    /// Router cycle of the earliest upcoming injection, exact between
    /// cycles (`inject` is the calendar's only mutator);
    /// [`mmr_traffic::calendar::NEVER`] once every source is exhausted.
    pub fn next_injection_rc(&self) -> u64 {
        self.calendar.min_lower_bound()
    }

    /// Fingerprint of the arbitration RNG's stream position: equal
    /// fingerprints mean identical draw sequences were consumed.
    pub fn rng_fingerprint(&self) -> u64 {
        self.rng.clone().next_u64_raw()
    }
}
