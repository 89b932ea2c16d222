//! Sharded multi-router fabric: a parallel mesh/torus/ring/line of MMRs.
//!
//! The paper closes by noting the MMR "must be further extended to a
//! network composed of several MMRs"; this module is that extension at
//! scale, and the one simulator: the single router
//! ([`MmrRouter`](crate::router::MmrRouter)) is its one-node case.  A
//! [`Topology`] instantiates N router nodes — each one the shared
//! [`SwitchCore`] pipeline ([`crate::pipeline`]) behind the node adapter,
//! which runs its link ends (wire arrivals feed the VC memory before the
//! stages, crossed flits are ejected or forwarded after them), the fault
//! hooks and the telemetry brackets — wires them with
//! point-to-point links, and places every admitted connection on a
//! deterministic dimension-order path ([`mmr_traffic::path`], the
//! Pipelined Circuit Switching reserved-path model).  Per-connection
//! virtual channels make the hop-by-hop credit chains self-waiting only,
//! so the fabric is deadlock-free even across torus wrap links.
//!
//! # Shard/epoch execution contract (DESIGN.md §17)
//!
//! Inter-node links carry flits *and* the matching upstream credits
//! with a latency of `link_latency` flit cycles.  A message sent at
//! cycle `t` is applied at its destination at cycle `t + link_latency`,
//! so any epoch of at most `link_latency` cycles can execute with **no
//! intra-epoch communication**: every message produced inside the epoch
//! is due at or after the epoch boundary.  Nodes are therefore fully
//! independent within an epoch.  The fabric is split once per run into
//! `workers` contiguous chunks (a `Chunk` view: nodes plus exactly their
//! mailbox lanes, carved with `split_at_mut`), and which thread steps
//! which chunk is pure scheduling, so the result is bit-identical for
//! any worker count.
//!
//! Every epoch has two phases.  In the **parallel phase** each chunk
//! runs its nodes through the epoch, appending outbound wire messages
//! to its outbox lanes and buffering metric events per node.  In the
//! **serial phase** one thread — the *leader*, the caller of
//! [`Fabric::run_parallel`] — commits the buffered events in canonical
//! (cycle offset, node, emission) order, swaps outbox and inbox lanes
//! per directed link (the vectors move, buffers are reused — no
//! steady-state allocation).  The committed events feed the `Ledger`,
//! the end-to-end accounts both [`Fabric::summary`] and
//! [`Fabric::end_to_end_summary`] read.
//! [`CycleModel::step`] is the same two phases on one chunk, inline,
//! with one-cycle epochs.
//!
//! ## Node-major epochs
//!
//! Inside a chunk the order is *node-major*: `for node { run_epoch }`,
//! each node executing all of the epoch's cycles back to back before
//! the next node starts, rather than every node taking turns cycle by
//! cycle.  The contract above is what makes the two orders equivalent —
//! a node's inputs for the whole epoch are fixed when it starts — and
//! the order is what keeps a node's VC memory, credit banks, candidate
//! set and arbiter scratch in L1 between its consecutive cycles instead
//! of being evicted by the other nodes' state in between.  Events carry
//! their cycle offset, so the leader's commit order, and with it every
//! floating-point accumulation, is the same as under a cycle-major
//! sweep.
//!
//! ## Two-stage mailbox
//!
//! A lane is an outbox `Vec` at the sender and an `Rx` at the receiver:
//! the *inbox* — the sender's outbox of the previous epoch, swapped in
//! whole — consumed **in place** through a cursor, and a *pending*
//! deque.  A full-length epoch consumes its whole inbox (everything in
//! it is due before the epoch ends) and hands it back empty for the
//! next swap; only a *shortened* epoch (the warm-up boundary, the end of
//! a run, every one-cycle `step`) leaves a tail, and only that tail is
//! copied into the pending deque, to be applied — first, it was sent
//! first — in the epochs that follow.  Message `due` values are
//! monotone per lane, so application order is send order.
//!
//! ## Persistent epoch workers
//!
//! `run_parallel` opens one scope of `std::thread`s per call and spawns
//! `threads - 1` *helpers* that live until it returns; nothing is
//! spawned, allocated or joined per epoch.  Leader and helpers meet in a
//! `HandOff`: the leader publishes the epoch's parameters and bumps an
//! epoch counter (`Release`); each helper, spinning on that counter
//! (`Acquire`), runs its chunks and bumps a done counter (`Release`);
//! the leader runs its own chunks, waits for the done counter
//! (`Acquire`), performs the serial phase and loops.  The two
//! release/acquire edges order the phases: everything a helper wrote in
//! epoch *n* happens before the leader's serial phase *n*, which happens
//! before any helper's epoch *n + 1*.  Waiting is a bounded spin
//! followed by `yield_now` per probe — never an unbounded pure spin, so
//! a descheduled partner costs a time slice, not a livelock.
//!
//! Each chunk sits behind a `Mutex`, and that lock is **never
//! contended**: a thread locks a chunk only in the parallel phase, the
//! leader locks all of them only in the serial phase, and the hand-off
//! keeps the phases disjoint.  The lock is the safe-Rust vehicle that
//! carries `&mut Chunk` from helper to leader and back (the workspace
//! has no `unsafe`); it is also what makes the chunk data itself
//! visible across threads, independently of the counters.
//!
//! **Threads are capped, chunks are not.**  `workers` fixes the chunk
//! count (at most one chunk per node); the thread count is
//! `min(chunks, available_parallelism())` and thread *k* runs chunks
//! *k*, *k* + threads, ….  So `workers = 8` on a 2-CPU host still
//! exercises the 8-way split — the bit-identity tests keep their
//! meaning everywhere — but never runs more spinning threads than
//! cores, which is what would turn the spin-wait into a collapse.
//!
//! **Panics propagate.**  A helper that unwinds raises a flag on its way
//! out and the leader's wait panics instead of waiting for a report
//! that will never come; a leader that unwinds (its own chunk, the
//! serial phase, or that wait) shuts the hand-off down from a drop
//! guard, so the helpers return and the scope joins them before the
//! panic continues out of `run_parallel`.
//!
//! Every node executes every cycle, busy or idle, so every wire message
//! is applied on exactly its `due` cycle (debug-asserted on both lanes).

use crate::config::RouterConfig;
use crate::credit::CreditBank;
use crate::fault::{FaultReport, FaultState, LinkFate};
use crate::link_scheduler::VcQosInfo;
use crate::metrics::{class_index, MetricsCollector, MetricsReport, ALL_CLASSES, CLASS_COUNT};
use crate::nic::Nic;
use crate::output::{Delivery, OutputPorts};
use crate::pipeline::{Ingress, SwitchCore, Wiring};
use crate::router::RouterSummary;
use crate::telemetry::{RouterTelemetry, Stage};
use mmr_arbiter::priority::{LinkPriority, PriorityKind};
use mmr_arbiter::scheduler::{ArbiterKind, SwitchScheduler};
use mmr_sim::check::{within_span, ConfigError};
use mmr_sim::engine::CycleModel;
use mmr_sim::ensure;
use mmr_sim::rng::SimRng;
use mmr_sim::time::{FlitCycle, RouterCycle};
use mmr_traffic::calendar;
use mmr_traffic::connection::{ConnectionId, ConnectionSpec, TrafficClass};
use mmr_traffic::flit::Flit;
use mmr_traffic::path::{mesh_route, Dir, HostMap};
use mmr_traffic::source::TrafficSource;
use mmr_traffic::workload::Workload;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Fabric topology: how many routers and how they are wired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// `stages` routers in tandem, joined by `ports` parallel links per
    /// hop; a one-stage line is the single router.
    Line {
        /// Router count.
        stages: usize,
    },
    /// A bidirectional ring.
    Ring {
        /// Router count (at least 2).
        nodes: usize,
    },
    /// A 2D mesh with dimension-order (X then Y) routing.
    Mesh {
        /// Grid width.
        x: usize,
        /// Grid height.
        y: usize,
    },
    /// A 2D torus (wrap-around mesh); routes take the shorter way
    /// around each axis.
    Torus {
        /// Grid width (at least 2).
        x: usize,
        /// Grid height (at least 2).
        y: usize,
    },
}

impl Topology {
    /// Number of router nodes.
    pub fn node_count(&self) -> usize {
        match *self {
            Topology::Line { stages } => stages,
            Topology::Ring { nodes } => nodes,
            Topology::Mesh { x, y } | Topology::Torus { x, y } => x * y,
        }
    }

    /// Inter-node ports per router (0 for the line, whose hops use the
    /// full `ports`-wide bundle).
    fn degree(&self) -> usize {
        match self {
            Topology::Line { .. } => 0,
            Topology::Ring { .. } => 2,
            Topology::Mesh { .. } | Topology::Torus { .. } => 4,
        }
    }

    /// The grid a directional topology lays its nodes on, as `(width,
    /// height, wraps)`: a ring is one wrapping row; the line has none.
    fn grid(&self) -> Option<(usize, usize, bool)> {
        match *self {
            Topology::Line { .. } => None,
            Topology::Ring { nodes } => Some((nodes, 1, true)),
            Topology::Mesh { x, y } => Some((x, y, false)),
            Topology::Torus { x, y } => Some((x, y, true)),
        }
    }

    /// The node one step from `node` toward `dir`, if that link exists:
    /// a ring has X links only, a mesh stops at its edges and a torus
    /// wraps.
    fn neighbor(&self, node: usize, dir: Dir) -> Option<usize> {
        let (x, y, wrap) = self.grid()?;
        let (gx, gy) = (node % x, node / x);
        // One step along an axis of `len` nodes; an axis of one node has
        // no links.
        let step = |at: usize, len: usize, plus: bool| {
            let inside = if plus { at + 1 < len } else { at > 0 };
            let to = (if plus { at + 1 } else { at + len - 1 }) % len;
            (len > 1 && (wrap || inside)).then_some(to)
        };
        match dir {
            Dir::XPlus | Dir::XMinus => Some(gy * x + step(gx, x, dir == Dir::XPlus)?),
            Dir::YPlus | Dir::YMinus => Some(step(gy, y, dir == Dir::YPlus)? * x + gx),
        }
    }

    /// Crossbar ports per node.
    pub fn node_ports(&self, router_ports: usize, host_ports: usize) -> usize {
        match self {
            Topology::Line { .. } => router_ports,
            _ => self.degree().saturating_add(host_ports),
        }
    }

    /// Port count the workload builder should target: the line keeps the
    /// single-router port space; other topologies expose one flat host
    /// link per `(node, host port)` pair.
    pub fn workload_ports(&self, router_ports: usize, host_ports: usize) -> usize {
        match self {
            Topology::Line { .. } => router_ports,
            _ => self.node_count() * host_ports,
        }
    }

    /// Short label for reports, e.g. `mesh-4x4`.
    pub fn label(&self) -> String {
        match *self {
            Topology::Line { stages } => format!("line-{stages}"),
            Topology::Ring { nodes } => format!("ring-{nodes}"),
            Topology::Mesh { x, y } => format!("mesh-{x}x{y}"),
            Topology::Torus { x, y } => format!("torus-{x}x{y}"),
        }
    }

    /// Check the shape, naming what is wrong with it.
    fn check(&self) -> Result<(), ConfigError> {
        let nodes = match *self {
            Topology::Mesh { x, y } | Topology::Torus { x, y } => x.checked_mul(y),
            _ => Some(self.node_count()),
        };
        ensure!(nodes.is_some_and(|n| n <= MAX_NODES); "topology",
            "a fabric holds at most {MAX_NODES} routers");
        let (ok, msg) = match *self {
            Topology::Line { stages } => (stages >= 1, "line needs at least one stage"),
            Topology::Ring { nodes } => (nodes >= 2, "ring needs at least two nodes"),
            Topology::Mesh { x, y } => (x >= 1 && y >= 1, "mesh axes need at least one node"),
            Topology::Torus { x, y } => (
                x >= 2 && y >= 2,
                "torus axes need at least two nodes (use a mesh)",
            ),
        };
        ensure!(ok; "topology", "{msg}");
        Ok(())
    }
}

/// Most routers a fabric may hold.
pub const MAX_NODES: usize = 1024;

/// Multi-router fabric geometry on top of the per-router
/// [`RouterConfig`] (the paper-§6 extension at scale), serialized with
/// the rest of a simulation config.
///
/// Workload builders target the fabric's flat host-port space
/// ([`Topology::workload_ports`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricSpec {
    /// Topology to instantiate.
    pub topology: Topology,
    /// Inter-node link latency in flit cycles (>= 1).  Also the epoch
    /// length of the sharded executor: larger values amortize the
    /// per-epoch hand-off, at the cost of modelling longer links.
    pub link_latency: u64,
    /// Host (injection/ejection) links per router for ring/mesh/torus
    /// topologies; ignored for the line.
    pub host_ports: usize,
    /// Chunks the fabric is split into for parallel execution, run on
    /// at most as many threads as the host has CPUs
    /// ([`Fabric::thread_count`]).  Results are bit-identical for every
    /// value, so this is a performance knob, not a semantic one.
    pub workers: usize,
}

impl FabricSpec {
    /// A fabric of `topology` with defaults: single-cycle links for the
    /// line (independent routers on short links: a flit advances one
    /// hop per flit cycle), 4-cycle links otherwise, one host port per
    /// router, one worker.
    pub fn new(topology: Topology) -> Self {
        FabricSpec {
            topology,
            link_latency: match topology {
                Topology::Line { .. } => 1,
                _ => 4,
            },
            host_ports: 1,
            workers: 1,
        }
    }

    /// A copy with a different worker count.
    pub fn with_workers(self, workers: usize) -> Self {
        FabricSpec { workers, ..self }
    }

    /// Check the geometry over `router`, naming the first nonsense
    /// field: the workers, the topology's shape, the links, the host
    /// ports and the router every node is built from, whose port count
    /// the topology sets.
    pub fn check(&self, router: &RouterConfig) -> Result<(), ConfigError> {
        ensure!(self.workers > 0; "workers", "a fabric needs at least one worker");
        self.topology.check()?;
        ensure!(self.link_latency > 0; "link_latency", "links need at least one cycle");
        within_span(self.link_latency, "link_latency")?;
        ensure!(matches!(self.topology, Topology::Line { .. }) || self.host_ports > 0; "host_ports",
            "ring/mesh/torus fabrics need at least one host port");
        self.node_router(router)
            .check()
            .map_err(|e| e.within("node"))
    }

    /// The configuration of each node's router.
    fn node_router(&self, router: &RouterConfig) -> RouterConfig {
        RouterConfig {
            ports: self.topology.node_ports(router.ports, self.host_ports),
            ..*router
        }
    }
}

/// One message on a link lane: applied at its destination at cycle
/// `due`, to that node's local VC `vc`.
#[derive(Debug, Clone, Copy)]
struct Wire<P> {
    due: u64,
    vc: u32,
    load: P,
}

/// A flit travelling downstream, landing in the destination's VC `vc`.
type FlitWire = Wire<Flit>;

/// A credit travelling upstream: frees one buffer slot of the *sender*
/// node's local VC `vc`.
type CredWire = Wire<()>;

/// The receiving end of one lane: the second stage of the two-stage
/// mailbox (module docs).  `inbox` is the sender's outbox of the
/// previous epoch, swapped in whole and consumed **in place** from
/// `head`; `pend` holds only what a shortened epoch left unconsumed.
/// Dues are monotone per lane and `pend` was sent before `inbox`, so
/// "`pend` first, then `inbox`" is send order.
struct Rx<P> {
    pend: VecDeque<Wire<P>>,
    inbox: Vec<Wire<P>>,
    head: usize,
}

impl<P: Copy> Rx<P> {
    fn new() -> Self {
        Rx {
            pend: VecDeque::new(),
            inbox: Vec::new(),
            head: 0,
        }
    }

    /// Take the next message if it is due at or before cycle `u`.
    #[inline]
    fn pop_due(&mut self, u: u64) -> Option<Wire<P>> {
        if let Some(m) = self.pend.front() {
            // Everything in `inbox` is due no earlier than this.
            return if m.due <= u {
                self.pend.pop_front()
            } else {
                None
            };
        }
        let m = *self.inbox.get(self.head).filter(|m| m.due <= u)?;
        self.head += 1;
        Some(m)
    }

    /// Epoch end: carry the unconsumed tail (non-empty only after a
    /// shortened epoch) and leave `inbox` empty for the swap, capacity
    /// retained on both sides.
    fn close_epoch(&mut self) {
        self.pend.extend(self.inbox[self.head..].iter().copied());
        self.inbox.clear();
        self.head = 0;
    }

    /// Unconsumed messages.
    fn len(&self) -> usize {
        self.pend.len() + self.inbox.len() - self.head
    }
}

#[derive(Clone, Copy)]
struct Timing {
    rc_per_flit: u64,
    crossing_rc: u64,
    link_latency: u64,
}

/// Where a local VC's flits go after crossing this node's crossbar.
#[derive(Debug, Clone, Copy)]
enum HopNext {
    /// Final hop: eject to the destination host.
    Deliver,
    /// Forward on the node-local `out` link, arriving in the next
    /// node's local VC `next_vc`.
    Forward { out: u32, next_vc: u32 },
}

/// Where this node returns a credit when a local VC's flit crosses.
#[derive(Debug, Clone, Copy)]
enum HopBack {
    /// First hop: the credit frees the injecting NIC's budget.
    Nic,
    /// The credit rides the node-local in-link `link` upstream, freeing
    /// the previous node's local VC `up_vc`.
    Wire { link: u32, up_vc: u32 },
}

#[derive(Debug, Clone, Copy)]
struct VcRoute {
    next: HopNext,
    back: HopBack,
    class: TrafficClass,
}

/// One hop of a reserved path, as the builder lays it out.
#[derive(Clone, Copy)]
struct Hop {
    conn: u32,
    node: u32,
    /// The in port the connection enters the node on.
    inp: u32,
    /// The node-local VC the hop occupies.
    vc: u32,
}

/// The connection a node's traffic source feeds.
#[derive(Debug, Clone, Copy)]
struct Feed {
    conn: ConnectionId,
    class: TrafficClass,
}

/// A flit ejected at cycle offset `off` of the epoch.
struct NodeEvent {
    off: u32,
    delivery: Delivery,
}

/// One node's link ends, carved out of its chunk's lanes: `flit_out` /
/// `cred_rx` in node-local out-link order, `flit_rx` / `cred_out` in
/// node-local in-link order.
struct Lanes<'a> {
    flit_out: &'a mut [Vec<FlitWire>],
    cred_rx: &'a mut [Rx<()>],
    flit_rx: &'a mut [Rx<Flit>],
    cred_out: &'a mut [Vec<CredWire>],
}

/// One router node (shard unit) of the fabric: the node adapter over
/// the shared [`SwitchCore`].  Around the stages it runs the link ends,
/// the fault hooks and the telemetry brackets, and it buffers its
/// ejections and generation counts for the ledger.
///
/// Aligned to two cache lines so that neighbouring nodes, which may be
/// stepped by different workers, never share one: the counters a node
/// writes on every flit (`generated`) otherwise sit in the line that
/// holds the next node's first `SwitchCore` fields.
#[repr(align(128))]
pub(crate) struct FabricNode {
    /// The switch pipeline over this node's local VC space.  Its NICs
    /// and their credits serve the first-hop VCs of the connections
    /// sourced here.
    pub(crate) core: SwitchCore,
    /// Free space of the *next-hop* VC buffer per local VC (unused for
    /// final-hop VCs, which eject without back-pressure).
    credits_down: CreditBank,
    route: Vec<VcRoute>,
    /// Per traffic source of the core.
    feeds: Vec<Feed>,
    out_count: usize,
    in_count: usize,
    events: Vec<NodeEvent>,
    /// Events of the current epoch already committed by the leader.
    committed: usize,
    /// Flits generated this epoch, per class (the ledger only counts
    /// them, so their order does not matter).
    generated: [u64; CLASS_COUNT],
    /// The cycle after the one at whose end every source here had run
    /// dry, since measurement start.
    exhausted_at: Option<u64>,
    /// Fault injection and recovery: `None` unless a non-empty plan is
    /// installed, which happens on a one-node fabric only, where source,
    /// local VC and connection indices coincide.
    pub(crate) faults: Option<Box<FaultState>>,
    /// Observability hooks: empty unless armed (the single router only),
    /// costing one branch per probe point.
    pub(crate) telemetry: RouterTelemetry,
}

impl FabricNode {
    /// Fault-subsystem counters (all zero without a fault plan).
    pub(crate) fn fault_report(&self) -> FaultReport {
        let faults = self.faults.as_ref();
        faults.map_or_else(FaultReport::default, |f| f.report())
    }

    /// Execute one whole epoch of this node: its cycles back to back —
    /// legal because nothing another node sends inside the epoch is due
    /// before its end (module docs) — then close its receiving lanes.
    fn run_epoch(&mut self, ep: Epoch, t: Timing, mut lanes: Lanes<'_>) {
        for u in ep.a..ep.b {
            self.step_cycle(u, (u - ep.a) as u32, ep.measuring, t, &mut lanes);
        }
        lanes.cred_rx.iter_mut().for_each(Rx::close_epoch);
        lanes.flit_rx.iter_mut().for_each(Rx::close_epoch);
    }

    /// Execute cycle `u` (offset `off` into its epoch) of this node.
    fn step_cycle(&mut self, u: u64, off: u32, measuring: bool, t: Timing, lanes: &mut Lanes<'_>) {
        let now_rc = RouterCycle(u * t.rc_per_flit);

        // Fault events due this cycle fire before anything moves.
        if let Some(faults) = &mut self.faults {
            faults.begin_cycle(u);
            for vc in faults.take_pending_dups() {
                // A phantom credit return materializes on the return path.
                self.core.credits.queue_return(vc);
            }
        }

        // Credit arrivals become spendable before arbitration — a
        // crossing at cycle c downstream frees the upstream slot at
        // c + link_latency (next-cycle visibility at latency 1).
        for rx in lanes.cred_rx.iter_mut() {
            while let Some(m) = rx.pop_due(u) {
                debug_assert_eq!(m.due, u, "credit message applied late");
                self.credits_down.queue_return(m.vc as usize);
            }
        }
        self.credits_down.apply_returns();

        // Flit arrivals enter the VC memory, schedulable this cycle
        // (their upstream crossing finished `link_latency` ago).
        for rx in lanes.flit_rx.iter_mut() {
            while let Some(m) = rx.pop_due(u) {
                debug_assert_eq!(m.due, u, "flit message applied late");
                self.core.arrive(m.vc as usize, m.load, now_rc);
            }
        }

        // 1. Source generation into the NIC queues.
        let t_gen = self.telemetry.stage_begin();
        let mut gen_count = 0u64;
        self.core.inject(now_rc, |i| {
            let class = self.feeds[i].class;
            gen_count += 1;
            self.generated[class_index(class)] += 1;
            self.telemetry.on_generated(class);
            if let Some(faults) = &mut self.faults {
                faults.note_generated(i);
            }
        });
        gen_count += self.police_contracts(u, now_rc);
        self.telemetry.stage_end(Stage::SourceGen, t_gen, gen_count);

        // 2. Link scheduling.  A VC needs a downstream credit (final-hop
        // VCs never spend theirs, so they stay at capacity), and VCs
        // routed to a stalled output are ineligible — offering them would
        // waste crossbar grants on a port that cannot accept.  A node
        // without out-links (the single router) skips the credit test:
        // it runs on every non-empty VC, every cycle.
        let t_ls = self.telemetry.stage_begin();
        let credits = &self.credits_down;
        let stalls = self.faults.as_deref().filter(|f| f.any_stall(u));
        let cand_count = if let Some(faults) = stalls {
            self.core.select(now_rc, |vc, q| {
                credits.has_credit(vc) && !faults.output_stalled(q.output, u)
            })
        } else if self.out_count == 0 {
            self.core.select(now_rc, |_, _| true)
        } else {
            self.core.select(now_rc, |vc, _| credits.has_credit(vc))
        };
        self.telemetry
            .stage_end(Stage::LinkSchedule, t_ls, cand_count);

        // 3. Switch scheduling.
        let t_arb = self.telemetry.stage_begin();
        let matched = self.core.arbitrate();
        self.telemetry
            .stage_end(Stage::Arbitration, t_arb, matched as u64);
        if self.telemetry.is_enabled() {
            self.trace_arbitration(u);
        }

        // 4. Crossbar traversal.  Each crossed flit is ejected or
        // forwarded on its reserved out-link, and returns a credit
        // upstream: to the NIC at the first hop, on the wire otherwise.
        let t_xbar = self.telemetry.stage_begin();
        let crossed = self.core.cross(measuring);
        self.telemetry
            .stage_end(Stage::Crossbar, t_xbar, crossed.len() as u64);
        let t_dlv = self.telemetry.stage_begin();
        let mut returns_queued = 0u64;
        for cf in &crossed {
            let route = self.route[cf.vc];
            match route.next {
                HopNext::Deliver => {
                    debug_assert_eq!(
                        self.credits_down.available(cf.vc),
                        self.credits_down.capacity(),
                        "a final-hop VC spent a downstream credit"
                    );
                    let delivery = Delivery {
                        flit: cf.buffered.flit,
                        output: cf.output,
                        delivered_at: RouterCycle(now_rc.0 + t.crossing_rc),
                    };
                    self.telemetry.on_delivered(
                        route.class,
                        cf.vc,
                        delivery.delay().0,
                        delivery.delivered_at.0 - cf.buffered.entered_at.0,
                    );
                    self.events.push(NodeEvent { off, delivery });
                }
                HopNext::Forward { out, next_vc } => {
                    self.credits_down.spend(cf.vc);
                    lanes.flit_out[out as usize].push(Wire {
                        due: u + t.link_latency,
                        vc: next_vc,
                        load: cf.buffered.flit,
                    });
                }
            }
            match route.back {
                // A credit return stolen on the return path leaves the
                // NIC's counter low until the watchdog resynchronizes.
                HopBack::Nic => {
                    let stolen = self.faults.as_mut().is_some_and(|f| f.steal_return(cf.vc));
                    if !stolen {
                        self.core.queue_credit_return(cf.vc);
                        returns_queued += 1;
                    }
                }
                HopBack::Wire { link, up_vc } => lanes.cred_out[link as usize].push(Wire {
                    due: u + t.link_latency,
                    vc: up_vc,
                    load: (),
                }),
            }
        }
        self.telemetry
            .stage_end(Stage::Delivery, t_dlv, crossed.len() as u64);
        self.core.recycle(crossed);

        // 5. NICs feed the first-hop VC buffers, one flit per input link.
        let t_fwd = self.telemetry.stage_begin();
        let mut forwarded = 0u64;
        let arrival = RouterCycle(now_rc.0 + t.rc_per_flit);
        self.core.forward(arrival, |mem, input, vc, flit| {
            forwarded += 1;
            self.telemetry.on_credit_consumed(u, vc);
            let Some(faults) = &mut self.faults else {
                return Ingress::Admit;
            };
            if faults.on_link_flit(input, flit) == LinkFate::Dropped {
                // Silent loss: the spent credit vanishes with the flit;
                // only the watchdog can recover it.
                return Ingress::Discard;
            }
            if !flit.integrity_ok() {
                // Ingress checksum catch: discard the damaged flit and
                // return its credit immediately (the buffer slot was
                // never consumed).
                faults.note_corrupt_detected();
                self.telemetry.on_fault_detected(u, 0);
                returns_queued += 1;
                return Ingress::DiscardAndReturnCredit;
            }
            if mem.free_space(vc) == 0 {
                // Phantom-credit guard: a duplicated credit let the NIC
                // send into a full buffer.  Discarding the flit without a
                // credit return annihilates the phantom.
                faults.note_phantom_drop();
                self.telemetry.on_fault_detected(u, 1);
                return Ingress::Discard;
            }
            Ingress::Admit
        });
        self.telemetry
            .stage_end(Stage::NicForward, t_fwd, forwarded);

        // 6. Credit returns become visible next cycle.  Under fault
        // injection the counters saturate instead of panicking, and the
        // watchdog periodically audits them against VC occupancy.
        let t_cr = self.telemetry.stage_begin();
        self.return_credits(u);
        self.telemetry
            .stage_end(Stage::CreditReturn, t_cr, returns_queued);

        // The injection bound reaches NEVER on exactly the cycle the last
        // source here drains (finite workloads only).
        if self.exhausted_at.is_none() && self.core.next_injection_rc() == calendar::NEVER {
            self.exhausted_at = Some(u + 1);
        }

        // Close the telemetry cycle (gauges + snapshot-window roll); the
        // backlog scan runs only when armed.
        if self.telemetry.is_enabled() {
            let backlog = self.core.backlog() as u64;
            self.telemetry.end_cycle(u, backlog);
        }
    }

    /// Rogue sources inject beyond their admitted contract; the rate
    /// meter sees the excess and may quarantine the connection.  Returns
    /// the flits injected (none without a fault plan).
    fn police_contracts(&mut self, u: u64, now_rc: RouterCycle) -> u64 {
        let Some(faults) = &mut self.faults else {
            return 0;
        };
        let mut injected = 0;
        for i in 0..self.feeds.len() {
            let Some((seq0, n)) = faults.rogue_take(i, u) else {
                continue;
            };
            let Feed { conn, class } = self.feeds[i];
            for k in 0..n as u64 {
                self.core.enqueue(i, Flit::cbr(conn, seq0 + k, now_rc));
                self.generated[class_index(class)] += 1;
                self.telemetry.on_generated(class);
                faults.note_generated(i);
            }
            injected += n as u64;
        }
        faults.poll_contracts(u);
        for &vc in faults.newly_quarantined() {
            // Degradation policy: the violator loses its reservation, so
            // the link schedulers treat it as best-effort and its slots
            // return to the best-effort pool.
            self.core.qos[vc].reserved_slots = 0;
            self.telemetry.on_quarantine(u, vc);
        }
        faults.clear_newly_quarantined();
        injected
    }

    /// Trace the grants, and the inputs that offered a head candidate but
    /// went unmatched (VC stalled for at least this cycle).
    fn trace_arbitration(&mut self, u: u64) {
        let core = &self.core;
        for g in core.matching.grants() {
            self.telemetry.on_grant(u, g.input, g.output, g.vc);
        }
        for input in 0..core.matching.ports() {
            if !core.matching.input_matched(input) {
                if let Some(c) = core.candidates.get(input, 0) {
                    self.telemetry.on_vc_stall(u, input, c.output, c.vc);
                }
            }
        }
    }

    /// Apply the cycle's credit returns.  Under a fault plan they
    /// saturate, and the watchdog resynchronizes any counter that drifted
    /// from its VC's occupancy.
    fn return_credits(&mut self, u: u64) {
        let Some(faults) = &mut self.faults else {
            self.core.return_credits();
            return;
        };
        let credits = &mut self.core.credits;
        let excess = credits.apply_returns_clamped();
        if excess > 0 {
            faults.note_excess_credits(excess);
        }
        if faults.watchdog_due(u) {
            for vc in 0..self.route.len() {
                let occupancy = self.core.mem.len(vc);
                if !credits.consistent(vc, occupancy) {
                    let expected = credits.capacity() - occupancy as u32;
                    credits.resync(vc, expected);
                    faults.note_resync();
                    self.telemetry.on_fault_detected(u, 2);
                }
            }
        }
    }
}

/// Parameters of one epoch: execute cycles `[a, b)`,
/// `b - a <= link_latency`.  What the leader publishes through the
/// [`HandOff`] and every chunk runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Epoch {
    a: u64,
    b: u64,
    measuring: bool,
}

/// A contiguous run of nodes together with exactly their mailbox lanes:
/// the unit of parallel work.  Out-link-ordered lanes (`flit_out`,
/// `cred_rx`) start at global slot `out_base`, in-link-ordered ones
/// (`flit_rx`, `cred_out`) at `in_base`.  Node results depend only on
/// the epoch and prior state, never on how the fabric is chunked or
/// which thread runs a chunk.
struct Chunk<'a> {
    nodes: &'a mut [FabricNode],
    out_base: usize,
    in_base: usize,
    flit_out: &'a mut [Vec<FlitWire>],
    cred_rx: &'a mut [Rx<()>],
    flit_rx: &'a mut [Rx<Flit>],
    cred_out: &'a mut [Vec<CredWire>],
}

/// Move the first `n` elements of `rest` into their own slice.
fn split_front<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(n);
    *rest = tail;
    head
}

impl<'a> Chunk<'a> {
    /// Split the first `n` nodes and their lanes off into their own
    /// chunk; `self` keeps the remainder.  The one place the fabric is
    /// partitioned, for every worker count.
    fn split_front(&mut self, n: usize) -> Chunk<'a> {
        let nodes = split_front(&mut self.nodes, n);
        let outs: usize = nodes.iter().map(|nd| nd.out_count).sum();
        let ins: usize = nodes.iter().map(|nd| nd.in_count).sum();
        let head = Chunk {
            nodes,
            out_base: self.out_base,
            in_base: self.in_base,
            flit_out: split_front(&mut self.flit_out, outs),
            cred_rx: split_front(&mut self.cred_rx, outs),
            flit_rx: split_front(&mut self.flit_rx, ins),
            cred_out: split_front(&mut self.cred_out, ins),
        };
        self.out_base += outs;
        self.in_base += ins;
        head
    }

    /// Execute one epoch for this chunk's nodes, node-major: each node
    /// runs the whole epoch before the next one starts, so its state
    /// stays cache-resident across the epoch's cycles.
    fn run(&mut self, ep: Epoch, t: Timing) {
        debug_assert!(
            ep.b > ep.a && ep.b - ep.a <= t.link_latency,
            "epoch exceeds lookahead"
        );
        let (mut o, mut i) = (0usize, 0usize);
        for node in self.nodes.iter_mut() {
            let (oc, ic) = (node.out_count, node.in_count);
            let lanes = Lanes {
                flit_out: &mut self.flit_out[o..o + oc],
                cred_rx: &mut self.cred_rx[o..o + oc],
                flit_rx: &mut self.flit_rx[i..i + ic],
                cred_out: &mut self.cred_out[i..i + ic],
            };
            node.run_epoch(ep, t, lanes);
            o += oc;
            i += ic;
        }
    }
}

/// Outcome of a [`Fabric::run_parallel`] call; mirrors
/// [`mmr_sim::engine::RunOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricRunOutcome {
    /// Flit cycles executed.
    pub executed: u64,
    /// Cycles that counted toward measurement (post-warm-up).
    pub measured: u64,
}

/// A sharded multi-router fabric of MMRs.
pub struct Fabric {
    spec: FabricSpec,
    router: RouterConfig,
    pub(crate) nodes: Vec<FabricNode>,
    flit_out: Vec<Vec<FlitWire>>,
    flit_rx: Vec<Rx<Flit>>,
    cred_out: Vec<Vec<CredWire>>,
    cred_rx: Vec<Rx<()>>,
    pub(crate) ledger: Ledger,
    /// The out port taken at each hop, connection `c`'s at
    /// `path_start[c]..path_start[c + 1]`.
    path_out: Vec<usize>,
    path_start: Vec<usize>,
    timing: Timing,
}

impl Fabric {
    /// Build a fabric.  Connection specs address the topology's
    /// [`Topology::workload_ports`] flat port space; each connection is
    /// placed on its deterministic reserved path (dimension-order for
    /// mesh/torus, shorter-way for rings, seeded random bundle ports
    /// for line hops — the path a routing probe would have reserved).
    /// Panics with [`FabricSpec::check`]'s message on a nonsense
    /// configuration.  A one-node fabric is the single router: its
    /// arbitration RNG is the router's `seed ^ 0x4D4D_5221` stream, node
    /// *k* of a larger fabric takes split *k* of `seed ^ 0x6E65_7477`.
    pub fn new(
        spec: FabricSpec,
        router: RouterConfig,
        workload: Workload,
        arbiter_kind: ArbiterKind,
        priority: PriorityKind,
        seed: u64,
    ) -> Self {
        let ports = spec.node_router(&router).ports;
        Fabric::build(spec, router, workload, seed, || {
            (arbiter_kind.instantiate(ports), priority.instantiate())
        })
    }

    /// [`Fabric::new`] with each node's switch scheduler and link-priority
    /// function made by `switch`, called once per node in node order.
    pub(crate) fn build(
        spec: FabricSpec,
        router: RouterConfig,
        workload: Workload,
        seed: u64,
        mut switch: impl FnMut() -> (Box<dyn SwitchScheduler>, Box<dyn LinkPriority>),
    ) -> Self {
        if let Err(e) = spec.check(&router) {
            panic!("{e}");
        }
        let Workload {
            connections: specs,
            sources,
            ..
        } = workload;
        let n = specs.len();
        let nnodes = spec.topology.node_count();
        let degree = spec.topology.degree();
        let node_ports = spec.topology.node_ports(router.ports, spec.host_ports);
        let workload_ports = spec.topology.workload_ports(router.ports, spec.host_ports);
        let hm = HostMap {
            nodes: nnodes,
            host_ports: spec.host_ports,
        };

        // ---- Wiring: the directed link list of the topology. --------
        // (from node, from port) -> (to node, to port).
        let mut links: Vec<(usize, usize, usize, usize)> = Vec::new();
        match spec.topology {
            Topology::Line { stages } => {
                for s in 0..stages.saturating_sub(1) {
                    for p in 0..node_ports {
                        links.push((s, p, s + 1, p));
                    }
                }
            }
            Topology::Ring { .. } | Topology::Mesh { .. } | Topology::Torus { .. } => {
                for node in 0..nnodes {
                    for dir in [Dir::XPlus, Dir::XMinus, Dir::YPlus, Dir::YMinus] {
                        if let Some(to) = spec.topology.neighbor(node, dir) {
                            links.push((node, dir.index(), to, dir.opposite().index()));
                        }
                    }
                }
            }
        }
        let nlinks = links.len();
        // Slot orderings: out slots contiguous per source node, in slots
        // contiguous per destination node, both port-ordered.
        let mut out_order: Vec<usize> = (0..nlinks).collect();
        out_order.sort_by_key(|&l| (links[l].0, links[l].1));
        let mut in_order: Vec<usize> = (0..nlinks).collect();
        in_order.sort_by_key(|&l| (links[l].2, links[l].3));
        let mut out_slot = vec![0usize; nlinks];
        let mut in_slot = vec![0usize; nlinks];
        for (slot, &l) in out_order.iter().enumerate() {
            out_slot[l] = slot;
        }
        for (slot, &l) in in_order.iter().enumerate() {
            in_slot[l] = slot;
        }
        let mut out_start = vec![0usize; nnodes + 1];
        let mut in_start = vec![0usize; nnodes + 1];
        for &(from, _, to, _) in &links {
            out_start[from + 1] += 1;
            in_start[to + 1] += 1;
        }
        for nd in 0..nnodes {
            out_start[nd + 1] += out_start[nd];
            in_start[nd + 1] += in_start[nd];
        }
        // Node-local lookup: out port -> local out-link index, in port
        // -> local in-link index, node `nd`'s at `nd * node_ports + port`.
        let mut out_of_port = vec![u32::MAX; nnodes * node_ports];
        let mut in_of_port = vec![u32::MAX; nnodes * node_ports];
        for (slot, &l) in out_order.iter().enumerate() {
            let (from, port, _, _) = links[l];
            out_of_port[from * node_ports + port] = (slot - out_start[from]) as u32;
        }
        for (slot, &l) in in_order.iter().enumerate() {
            let (_, _, to, port) = links[l];
            in_of_port[to * node_ports + port] = (slot - in_start[to]) as u32;
        }

        // ---- Reserved paths: connection `c`'s hops are
        // `path_start[c]..path_start[c + 1]`, hop `h` leaves its node on
        // `path_out[h]`, and a hop's local VC numbers the hops through
        // its node in connection order. -----------------------------------
        let mut path_rng = SimRng::seed_from_u64(seed ^ 0x4C49_4E45);
        let mut hops: Vec<Hop> = Vec::with_capacity(n);
        let mut path_out = Vec::with_capacity(n);
        let mut path_start = Vec::with_capacity(n + 1);
        let (mut visits, mut sourced) = (vec![0u32; nnodes], vec![0usize; nnodes]);
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.id.idx(), i, "connection ids must be dense");
            assert!(
                s.input < workload_ports && s.output < workload_ports,
                "spec port outside the fabric's workload port space"
            );
            path_start.push(hops.len());
            let mut hop = |node: usize, inp: usize, out: usize| {
                hops.push(Hop {
                    conn: i as u32,
                    node: node as u32,
                    inp: inp as u32,
                    vc: visits[node],
                });
                visits[node] += 1;
                path_out.push(out);
            };
            match spec.topology {
                Topology::Line { stages } => {
                    // One draw per intermediate hop, in connection
                    // order: recorded line results depend on it.
                    let mut inp = s.input;
                    for stage in 0..stages {
                        let out = if stage + 1 == stages {
                            s.output
                        } else {
                            path_rng.index(node_ports)
                        };
                        hop(stage, inp, out);
                        inp = out;
                    }
                }
                Topology::Ring { .. } | Topology::Mesh { .. } | Topology::Torus { .. } => {
                    let (gx, gy, wrap) = spec.topology.grid().expect("a directional topology");
                    let src = hm.node_of(s.input);
                    let dst = hm.node_of(s.output);
                    let route = mesh_route(gx, gy, src, dst, wrap);
                    let mut node = src;
                    let mut inp = degree + hm.slot_of(s.input);
                    for &d in &route {
                        hop(node, inp, d.index());
                        node = spec
                            .topology
                            .neighbor(node, d)
                            .expect("routes stay on links");
                        inp = d.opposite().index();
                    }
                    hop(node, inp, degree + hm.slot_of(s.output));
                }
            }
            sourced[hops[path_start[i]].node as usize] += 1;
        }
        path_start.push(hops.len());
        // Each node's hops in local VC order: node `nd`'s are
        // `by_node[node_first[nd]..node_first[nd + 1]]`.
        let mut node_first = vec![0usize; nnodes + 1];
        for nd in 0..nnodes {
            node_first[nd + 1] = node_first[nd] + visits[nd] as usize;
        }
        let mut by_node = vec![0u32; hops.len()];
        for (h, hop) in hops.iter().enumerate() {
            by_node[node_first[hop.node as usize] + hop.vc as usize] = h as u32;
        }

        // ---- Per-node construction: each node is one `SwitchCore`
        // over its local VC space, plus its link ends. -----------------
        let rc_per_flit = router.router_cycles_per_flit();
        let node_cfg = spec.node_router(&router);
        let arb_base = SimRng::seed_from_u64(seed ^ 0x6E65_7477);
        let arb_rng = |nd: usize| match nnodes {
            1 => SimRng::seed_from_u64(seed ^ 0x4D4D_5221),
            _ => arb_base.split(nd as u64),
        };
        // Per node: its sources and the connection each one feeds.
        type NodeSources = (Vec<Box<dyn TrafficSource + Send>>, Vec<u32>);
        let mut node_sources: Vec<NodeSources> = (sourced.iter())
            .map(|&k| (Vec::with_capacity(k), Vec::with_capacity(k)))
            .collect();
        for (conn, src) in sources.into_iter().enumerate() {
            let (srcs, conns) = &mut node_sources[hops[path_start[conn]].node as usize];
            srcs.push(src);
            conns.push(conn as u32);
        }

        let mut nodes = Vec::with_capacity(nnodes);
        for (nd, (sources, source_conn)) in node_sources.into_iter().enumerate() {
            let locals = &by_node[node_first[nd]..node_first[nd + 1]];
            let nloc = locals.len();
            let mut qos = Vec::with_capacity(nloc);
            let mut route = Vec::with_capacity(nloc);
            for &h in locals {
                let h = h as usize;
                let (Hop { conn, inp, .. }, out) = (hops[h], path_out[h]);
                let (conn, inp) = (conn as usize, inp as usize);
                let c = &specs[conn];
                qos.push(VcQosInfo {
                    output: out,
                    reserved_slots: c.reserved_slots,
                    iat_rc: c.iat_router_cycles(&router.time),
                });
                let next = if h + 1 == path_start[conn + 1] {
                    HopNext::Deliver
                } else {
                    HopNext::Forward {
                        out: out_of_port[nd * node_ports + out],
                        next_vc: hops[h + 1].vc,
                    }
                };
                debug_assert!(
                    !matches!(next, HopNext::Forward { out: u32::MAX, .. }),
                    "route uses an unwired out port"
                );
                let back = if h == path_start[conn] {
                    HopBack::Nic
                } else {
                    HopBack::Wire {
                        link: in_of_port[nd * node_ports + inp],
                        up_vc: hops[h - 1].vc,
                    }
                };
                route.push(VcRoute {
                    next,
                    back,
                    class: c.class,
                });
            }
            let (arbiter, priority_fn) = switch();
            let core = SwitchCore::new(
                &node_cfg,
                qos,
                sources,
                Wiring {
                    input_of_vc: |vc: usize| hops[locals[vc] as usize].inp as usize,
                    vc_of_source: |i: usize| hops[path_start[source_conn[i] as usize]].vc as usize,
                },
                arbiter,
                priority_fn,
                arb_rng(nd),
            );
            let feeds = source_conn
                .iter()
                .map(|&c| Feed {
                    conn: specs[c as usize].id,
                    class: specs[c as usize].class,
                })
                .collect();
            nodes.push(FabricNode {
                core,
                credits_down: CreditBank::new(nloc, router.vc_buffer_flits as u32),
                route,
                feeds,
                out_count: out_start[nd + 1] - out_start[nd],
                in_count: in_start[nd + 1] - in_start[nd],
                // An epoch's worth of ejections (at most one per port and
                // cycle): the steady state never grows the buffer.
                events: Vec::with_capacity(spec.link_latency as usize * node_ports),
                committed: 0,
                generated: [0; CLASS_COUNT],
                exhausted_at: None,
                faults: None,
                telemetry: RouterTelemetry::default(),
            });
        }

        Fabric {
            nodes,
            flit_out: (0..nlinks).map(|_| Vec::new()).collect(),
            flit_rx: (0..nlinks).map(|_| Rx::new()).collect(),
            cred_out: (0..nlinks).map(|_| Vec::new()).collect(),
            cred_rx: (0..nlinks).map(|_| Rx::new()).collect(),
            ledger: Ledger {
                metrics: MetricsCollector::new(n, router.time),
                outputs: OutputPorts::new(workload_ports),
                link_slots: (0..nlinks).map(|l| (out_slot[l], in_slot[l])).collect(),
                specs,
                generated_total: 0,
                delivered_total: 0,
                generation_ended_at: None,
                delivered_in_window: 0,
            },
            path_out,
            path_start,
            timing: Timing {
                rc_per_flit,
                crossing_rc: router.crossing_latency_flits * rc_per_flit,
                link_latency: spec.link_latency,
            },
            spec,
            router,
        }
    }

    /// The router configuration every node is built from (its `ports`
    /// sizes the line bundle).
    pub(crate) fn router_config(&self) -> &RouterConfig {
        &self.router
    }

    /// Router count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The reserved path of one connection: out port at each hop.
    pub fn path_of(&self, conn: usize) -> &[usize] {
        &self.path_out[self.path_start[conn]..self.path_start[conn + 1]]
    }

    /// Flits buffered anywhere: NICs, VC memories, and in flight on
    /// links (both mailbox stages).
    pub fn backlog(&self) -> usize {
        self.nodes.iter().map(|nd| nd.core.backlog()).sum::<usize>()
            + self.flit_rx.iter().map(Rx::len).sum::<usize>()
            + self.flit_out.iter().map(Vec::len).sum::<usize>()
    }

    /// True when sources are exhausted and nothing is buffered or in
    /// flight.
    pub fn drained(&self) -> bool {
        self.nodes
            .iter()
            .all(|nd| nd.core.next_injection_rc() == calendar::NEVER)
            && self.backlog() == 0
    }

    /// Per-node arbitration-RNG fingerprints: the next raw draw of a
    /// clone of each node's RNG.  Bit-identical across worker counts
    /// and engine modes.
    pub fn rng_fingerprints(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|nd| nd.core.rng_fingerprint())
            .collect()
    }

    /// Run summary.
    pub fn summary(&self) -> FabricSummary {
        let l = &self.ledger;
        FabricSummary {
            topology: self.spec.topology.label(),
            nodes: self.nodes.len(),
            links: l.link_slots.len(),
            connections: l.specs.len(),
            mean_hops: self.path_out.len() as f64 / l.specs.len().max(1) as f64,
            metrics: l.metrics.report(),
            node_utilization: self
                .nodes
                .iter()
                .map(|nd| nd.core.crossbar.mean_utilization())
                .collect(),
            generated_flits: l.generated_total,
            delivered_flits: l.delivered_total,
            backlog_flits: self.backlog(),
        }
    }

    /// The fabric as one switch: end-to-end results in the single
    /// router's terms.  A one-node fabric reports exactly the router's
    /// numbers.  Across nodes, crossbar utilization and busy fraction
    /// are node means, reconfigurations add up, and the high-water marks
    /// are the worst node's.
    pub fn end_to_end_summary(&self) -> RouterSummary {
        let l = &self.ledger;
        let head = &self.nodes[0];
        let xbars = || self.nodes.iter().map(|nd| &nd.core.crossbar);
        let node_mean = |v: f64| v / self.nodes.len() as f64;
        // Best-effort connections, with zero reservation, are excluded.
        let reserved: Vec<f64> = l.specs.iter().map(|s| s.reserved_slots as f64).collect();
        RouterSummary {
            arbiter: head.core.arbiter.name().to_string(),
            priority_fn: head.core.priority_fn.name().to_string(),
            reservation_fairness: l.metrics.jain_fairness(&reserved),
            metrics: l.metrics.report(),
            crossbar_utilization: node_mean(xbars().map(|x| x.mean_utilization()).sum()),
            crossbar_busy_fraction: node_mean(xbars().map(|x| x.busy_fraction()).sum()),
            reconfigurations: xbars().map(|x| x.reconfigurations()).sum(),
            measured_cycles: head.core.crossbar.cycles(),
            generated_flits: l.generated_total,
            delivered_flits: l.delivered_total,
            delivered_per_output: l.outputs.per_port().to_vec(),
            peak_nic_depth: (self.nodes.iter())
                .flat_map(|nd| nd.core.nics.iter().map(Nic::peak_depth))
                .max()
                .unwrap_or(0),
            peak_vc_occupancy: (self.nodes.iter())
                .map(|nd| nd.core.mem.peak_occupancy())
                .max()
                .unwrap_or(0),
            backlog_flits: self.backlog(),
            generation_window_cycles: l.generation_ended_at,
            delivered_in_window: l.delivered_in_window,
            // Faults install on a one-node fabric only.
            faults: head.fault_report(),
        }
    }

    /// Split the fabric into its two views: all nodes and lanes as one
    /// chunk (the state the parallel phase works on, to be split
    /// further per worker) and the ledger only the leader touches.
    fn parts(&mut self) -> (Chunk<'_>, &mut Ledger) {
        (
            Chunk {
                nodes: &mut self.nodes,
                out_base: 0,
                in_base: 0,
                flit_out: &mut self.flit_out,
                cred_rx: &mut self.cred_rx,
                flit_rx: &mut self.flit_rx,
                cred_out: &mut self.cred_out,
            },
            &mut self.ledger,
        )
    }

    /// Chunks `workers` splits the fabric into: one per worker, at most
    /// one per node.
    fn chunk_count(&self, workers: usize) -> usize {
        workers.clamp(1, self.nodes.len().max(1))
    }

    /// Threads [`Fabric::run_parallel`] runs `workers` chunks on (the
    /// caller's included): one per chunk, capped at the host's
    /// available parallelism.
    pub fn thread_count(&self, workers: usize) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.chunk_count(workers).min(cores)
    }

    /// Run `bound` flit cycles (with `warmup` of them as warm-up) as
    /// `workers` chunks, batching execution into epochs of
    /// `link_latency` cycles.  The final fabric state and the outcome are
    /// bit-identical to [`mmr_sim::engine::Runner`] driving
    /// [`CycleModel::step`] for the same `warmup`/`bound`, for every
    /// worker count.
    ///
    /// The last argument is accepted and ignored.  It selected the
    /// retired quiescent-cycle skipping and is kept only because
    /// `benchmark/src/sut.rs` passes it; it goes when the benchmark stops
    /// naming the engine (ROADMAP item 1).
    ///
    /// The chunks are run by [`Fabric::thread_count`] threads that live
    /// for this call (module docs); a panic on any of them panics out
    /// of this call.
    pub fn run_parallel(
        &mut self,
        warmup: u64,
        bound: u64,
        workers: usize,
        _retired_skip: bool,
    ) -> FabricRunOutcome {
        let e = self.timing.link_latency.max(1);
        let timing = self.timing;
        let nchunks = self.chunk_count(workers);
        let threads = self.thread_count(workers);
        let (mut rest, ledger) = self.parts();
        let (base, rem) = (rest.nodes.len() / nchunks, rest.nodes.len() % nchunks);
        let chunks: Vec<Mutex<Chunk<'_>>> = (0..nchunks)
            .map(|k| Mutex::new(rest.split_front(base + usize::from(k < rem))))
            .collect();
        // Thread `id` runs chunks `id, id + threads, ...` every epoch.
        let run_share = |id: usize, ep: Epoch| {
            for chunk in chunks.iter().skip(id).step_by(threads) {
                lock_chunk(chunk).run(ep, timing);
            }
        };
        let handoff = HandOff::new(threads - 1);
        std::thread::scope(|s| {
            let _release = ReleaseOnDrop(&handoff);
            for id in 1..threads {
                let (handoff, run_share) = (&handoff, &run_share);
                s.spawn(move || handoff.serve(|ep| run_share(id, ep)));
            }
            // Between epochs the leader holds every chunk.
            let mut held: Vec<MutexGuard<'_, Chunk<'_>>> = Vec::with_capacity(nchunks);
            held.extend(chunks.iter().map(lock_chunk));
            let mut t = 0u64;
            let mut out = FabricRunOutcome {
                executed: 0,
                measured: 0,
            };
            while t < bound {
                if t == warmup {
                    ledger.measurement_start(&mut held);
                }
                let measuring = t >= warmup;
                let mut b = (t + e).min(bound);
                if t < warmup {
                    b = b.min(warmup);
                }
                let ep = Epoch { a: t, b, measuring };
                // Parallel phase: hand the chunks to the threads.
                held.clear();
                handoff.publish(ep);
                run_share(0, ep);
                handoff.wait();
                // Serial phase: take them all back.
                held.extend(chunks.iter().map(lock_chunk));
                ledger.finish_epoch(&mut held, ep);
                out.executed += b - t;
                if measuring {
                    out.measured += b - t;
                }
                t = b;
            }
            out
        })
    }
}

/// Lock one chunk.  Never contended: the hand-off alternates the
/// chunks between their threads (parallel phase) and the leader (serial
/// phase), so the lock only carries the `&mut` across.
fn lock_chunk<'m, 'a>(chunk: &'m Mutex<Chunk<'a>>) -> MutexGuard<'m, Chunk<'a>> {
    chunk
        .lock()
        .expect("a fabric worker panicked while holding this chunk")
}

/// The state only the leader touches, between epochs: the end-to-end
/// accounts node events are committed into, and how the mailbox lanes
/// are wired.  Its methods are the serial phase, written once over chunk
/// views — `C` is a lock guard under [`Fabric::run_parallel`] and a plain
/// `&mut` under [`Fabric::step`].
pub(crate) struct Ledger {
    pub(crate) specs: Vec<ConnectionSpec>,
    /// Per link: (out slot, in slot) — the double-buffer swap map.
    link_slots: Vec<(usize, usize)>,
    pub(crate) metrics: MetricsCollector,
    /// Deliveries per workload output port.
    outputs: OutputPorts,
    generated_total: u64,
    delivered_total: u64,
    /// Flit cycle at which every node's sources had run dry (the end of
    /// the generation window), once that has happened.
    generation_ended_at: Option<u64>,
    /// Flits delivered while sources were still generating.
    delivered_in_window: u64,
}

impl Ledger {
    /// Open the measurement window: forget everything recorded so far.
    fn measurement_start<'c, C: DerefMut<Target = Chunk<'c>>>(&mut self, chunks: &mut [C]) {
        self.metrics.reset();
        self.outputs.reset();
        for node in chunks.iter_mut().flat_map(|c| c.nodes.iter_mut()) {
            node.core.crossbar.reset_stats();
            if let Some(faults) = &mut node.faults {
                faults.reset_stats();
            }
            node.exhausted_at = None;
        }
        self.generated_total = 0;
        self.delivered_total = 0;
        self.generation_ended_at = None;
        self.delivered_in_window = 0;
    }

    /// Close epoch `ep`: commit events, swap mailboxes.
    fn finish_epoch<'c, C: DerefMut<Target = Chunk<'c>>>(&mut self, chunks: &mut [C], ep: Epoch) {
        self.commit_events(chunks, ep);
        self.swap_boxes(chunks);
    }

    /// Commit per-node generation counts and deliveries into the
    /// end-to-end accounts, deliveries in deterministic (cycle offset,
    /// node, emission) order — the same order for every chunking, so
    /// float accumulation is bit-identical.  A cycle's deliveries count
    /// toward the generation window unless it closed at an earlier
    /// cycle's end.
    fn commit_events<'c, C: DerefMut<Target = Chunk<'c>>>(&mut self, chunks: &mut [C], ep: Epoch) {
        for node in chunks.iter_mut().flat_map(|c| c.nodes.iter_mut()) {
            for (class, n) in ALL_CLASSES.into_iter().zip(&mut node.generated) {
                self.generated_total += *n;
                if ep.measuring {
                    self.metrics.record_generated_n(class, *n);
                }
                *n = 0;
            }
        }
        for off in 0..(ep.b - ep.a) as u32 {
            for node in chunks.iter_mut().flat_map(|c| c.nodes.iter_mut()) {
                let mut c = node.committed;
                while let Some(NodeEvent { delivery, .. }) =
                    node.events.get(c).filter(|e| e.off == off)
                {
                    let spec = &self.specs[delivery.flit.connection.idx()];
                    self.delivered_total += 1;
                    self.outputs.record(spec.output);
                    if self.generation_ended_at.is_none() {
                        self.delivered_in_window += 1;
                    }
                    if ep.measuring {
                        self.metrics.record_delivery(delivery, spec.class);
                    }
                    c += 1;
                }
                node.committed = c;
            }
            if self.generation_ended_at.is_none() {
                self.generation_ended_at = generation_end(chunks, ep.a + u64::from(off) + 1);
            }
        }
        for node in chunks.iter_mut().flat_map(|c| c.nodes.iter_mut()) {
            debug_assert_eq!(node.committed, node.events.len(), "uncommitted events");
            node.events.clear();
            node.committed = 0;
        }
    }

    /// Swap the double-buffered mailbox lanes at an epoch boundary:
    /// outboxes become inboxes (the vectors move, buffers are reused).
    /// A link's two ends may sit in different chunks, so each lane is
    /// lifted out of its chunk for the exchange.
    fn swap_boxes<'c, C: DerefMut<Target = Chunk<'c>>>(&self, chunks: &mut [C]) {
        for &(o, i) in &self.link_slots {
            let co = chunks.partition_point(|c| c.out_base <= o) - 1;
            let ci = chunks.partition_point(|c| c.in_base <= i) - 1;
            let (lo, li) = (o - chunks[co].out_base, i - chunks[ci].in_base);
            let mut flits = std::mem::take(&mut chunks[co].flit_out[lo]);
            std::mem::swap(&mut flits, &mut chunks[ci].flit_rx[li].inbox);
            chunks[co].flit_out[lo] = flits;
            let mut creds = std::mem::take(&mut chunks[ci].cred_out[li]);
            std::mem::swap(&mut creds, &mut chunks[co].cred_rx[lo].inbox);
            chunks[ci].cred_out[li] = creds;
        }
    }
}

/// The end of the generation window if every node's sources had run dry
/// by cycle `by`: the latest node's.
fn generation_end<'c, C: Deref<Target = Chunk<'c>>>(chunks: &[C], by: u64) -> Option<u64> {
    let mut end = 0;
    for node in chunks.iter().flat_map(|c| c.nodes.iter()) {
        end = end.max(node.exhausted_at.filter(|&e| e <= by)?);
    }
    Some(end)
}

/// Spins a waiter burns before it starts yielding its time slice: long
/// enough to cover a serial phase or a chunk-length skew (microseconds),
/// short enough that a descheduled partner costs one yield, not a
/// quantum.
const SPIN_LIMIT: u32 = 256;

/// Wait for `ready`: a bounded spin, then `yield_now` per probe.
fn wait_until(mut ready: impl FnMut() -> bool) {
    let mut spins = 0u32;
    while !ready() {
        if spins < SPIN_LIMIT {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// The per-epoch hand-shake between the leader (the thread inside
/// [`Fabric::run_parallel`]) and its helpers.
///
/// Leader: [`publish`](Self::publish) an epoch, work, then
/// [`wait`](Self::wait) for every helper.  Helper:
/// [`serve`](Self::serve) runs its closure once per published epoch
/// until the leader shuts the hand-off down.
///
/// Ordering.  `publish` writes the parameters `Relaxed` and then bumps
/// `epoch` with `Release`; a helper reads `epoch` with `Acquire` and
/// then the parameters `Relaxed`, so it sees the parameters of the
/// epoch it saw.  A helper reports with a `Release` add on `done`;
/// `wait` reads `done` with `Acquire`, so everything a helper did in
/// the epoch — its parameter reads included — happens before the
/// leader's serial phase and before the next `publish` overwrites the
/// parameters.  `epoch` moves by one per `publish` and never before
/// every helper reported, so no helper can miss or repeat an epoch.
struct HandOff {
    helpers: u64,
    /// Epochs published so far, or [`HandOff::SHUTDOWN`].
    epoch: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    measuring: AtomicBool,
    /// Helper reports, summed over all epochs.
    done: AtomicU64,
    /// A helper unwound out of its closure.
    failed: AtomicBool,
}

impl HandOff {
    const SHUTDOWN: u64 = u64::MAX;

    fn new(helpers: usize) -> Self {
        HandOff {
            helpers: helpers as u64,
            epoch: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            measuring: AtomicBool::new(false),
            done: AtomicU64::new(0),
            failed: AtomicBool::new(false),
        }
    }

    /// Leader: start the next epoch on every helper.
    fn publish(&self, ep: Epoch) {
        self.a.store(ep.a, Ordering::Relaxed);
        self.b.store(ep.b, Ordering::Relaxed);
        self.measuring.store(ep.measuring, Ordering::Relaxed);
        // Only the leader writes `epoch`.
        let next = self.epoch.load(Ordering::Relaxed) + 1;
        self.epoch.store(next, Ordering::Release);
    }

    /// Leader: wait until every helper finished the published epoch.
    /// Panics if a helper panicked — it will never report.
    fn wait(&self) {
        let due = self.epoch.load(Ordering::Relaxed) * self.helpers;
        wait_until(|| {
            assert!(
                !self.failed.load(Ordering::Acquire),
                "a fabric worker panicked"
            );
            self.done.load(Ordering::Acquire) == due
        });
    }

    /// Leader: make every `serve` return.
    fn shutdown(&self) {
        self.epoch.store(Self::SHUTDOWN, Ordering::Release);
    }

    /// Helper: run `work` once per published epoch, report after each,
    /// return at shutdown.  If `work` panics the leader's `wait` does.
    fn serve(&self, mut work: impl FnMut(Epoch)) {
        struct FailOnUnwind<'a>(&'a AtomicBool);
        impl Drop for FailOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Release);
                }
            }
        }
        let _fail = FailOnUnwind(&self.failed);
        let mut seen = 0u64;
        loop {
            let mut epoch = seen;
            wait_until(|| {
                epoch = self.epoch.load(Ordering::Acquire);
                epoch != seen
            });
            seen = epoch;
            if seen == Self::SHUTDOWN {
                return;
            }
            work(Epoch {
                a: self.a.load(Ordering::Relaxed),
                b: self.b.load(Ordering::Relaxed),
                measuring: self.measuring.load(Ordering::Relaxed),
            });
            self.done.fetch_add(1, Ordering::Release);
        }
    }
}

/// Shuts the hand-off down when the leader leaves its scope, normally
/// or unwinding, so the helpers return and the scope can join them.
struct ReleaseOnDrop<'a>(&'a HandOff);

impl Drop for ReleaseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

impl CycleModel for Fabric {
    fn step(&mut self, now: FlitCycle, measuring: bool) {
        // One cycle is a degenerate epoch on one chunk through the same
        // two phases the parallel path uses — there is a single
        // algorithm, not two.
        let timing = self.timing;
        let (mut whole, ledger) = self.parts();
        let ep = Epoch {
            a: now.0,
            b: now.0 + 1,
            measuring,
        };
        whole.run(ep, timing);
        ledger.finish_epoch(&mut [&mut whole], ep);
    }

    fn on_measurement_start(&mut self, _now: FlitCycle) {
        let (mut whole, ledger) = self.parts();
        ledger.measurement_start(&mut [&mut whole]);
    }

    fn is_done(&self, _now: FlitCycle) -> bool {
        self.drained()
    }
}

/// Aggregate results of a fabric run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricSummary {
    /// Topology label (e.g. `mesh-4x4`).
    pub topology: String,
    /// Router count.
    pub nodes: usize,
    /// Directed inter-node link count.
    pub links: usize,
    /// Admitted connections.
    pub connections: usize,
    /// Mean reserved-path length in hops.
    pub mean_hops: f64,
    /// End-to-end QoS metrics.
    pub metrics: MetricsReport,
    /// Mean crossbar utilization per node.
    pub node_utilization: Vec<f64>,
    /// Flits generated.
    pub generated_flits: u64,
    /// Flits delivered end to end.
    pub delivered_flits: u64,
    /// Flits buffered or in flight at snapshot.
    pub backlog_flits: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmr_sim::engine::{Runner, StopCondition};
    use mmr_traffic::admission::RoundConfig;
    use mmr_traffic::workload::CbrMixBuilder;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::{available_parallelism, scope};

    fn fabric(topology: Topology, load: f64, seed: u64) -> Fabric {
        let router = RouterConfig::default();
        let spec = FabricSpec::new(topology);
        let ports = topology.workload_ports(router.ports, spec.host_ports);
        let mut rng = SimRng::seed_from_u64(seed);
        let w = CbrMixBuilder::new(ports, router.time, RoundConfig::default())
            .target_load(load)
            .build(&mut rng);
        Fabric::new(spec, router, w, ArbiterKind::Coa, PriorityKind::Siabp, seed)
    }

    #[test]
    fn mesh_fabric_delivers_and_keeps_pace() {
        let mut f = fabric(Topology::Mesh { x: 3, y: 3 }, 0.3, 1);
        assert_eq!(f.node_count(), 9);
        Runner::new(500, StopCondition::Cycles(6_000)).run(&mut f);
        let s = f.summary();
        assert!(s.delivered_flits > 0, "mesh delivered nothing");
        assert!(s.mean_hops > 1.0, "mesh paths must be multi-hop");
        assert!(
            s.backlog_flits < 60,
            "mesh backlog {} at low load",
            s.backlog_flits
        );
    }

    #[test]
    fn torus_and_ring_fabrics_deliver() {
        for topo in [Topology::Torus { x: 3, y: 3 }, Topology::Ring { nodes: 5 }] {
            let mut f = fabric(topo, 0.25, 2);
            Runner::new(500, StopCondition::Cycles(6_000)).run(&mut f);
            let s = f.summary();
            assert!(s.delivered_flits > 0, "{} delivered nothing", s.topology);
        }
    }

    #[test]
    fn neighbors_follow_each_topology() {
        use Dir::{XMinus, XPlus, YMinus, YPlus};
        let steps = |t: Topology, node| [XPlus, XMinus, YPlus, YMinus].map(|d| t.neighbor(node, d));
        let ring = Topology::Ring { nodes: 3 };
        assert_eq!(steps(ring, 0), [Some(1), Some(2), None, None], "X only");
        let mesh = Topology::Mesh { x: 3, y: 2 };
        assert_eq!(steps(mesh, 0), [Some(1), None, Some(3), None], "bounded");
        assert_eq!(steps(mesh, 5), [None, Some(4), None, Some(2)]);
        let torus = Topology::Torus { x: 3, y: 2 };
        assert_eq!(
            steps(torus, 0),
            [Some(1), Some(2), Some(3), Some(3)],
            "wraps"
        );
        assert_eq!(Topology::Line { stages: 2 }.neighbor(0, XPlus), None);
    }

    #[test]
    fn torus_wrap_shortens_paths() {
        let mesh = fabric(Topology::Mesh { x: 4, y: 4 }, 0.2, 3).summary();
        let torus = fabric(Topology::Torus { x: 4, y: 4 }, 0.2, 3).summary();
        assert!(
            torus.mean_hops < mesh.mean_hops,
            "torus {} vs mesh {}",
            torus.mean_hops,
            mesh.mean_hops
        );
    }

    #[test]
    fn worker_counts_are_bit_identical() {
        let run = |workers: usize| {
            let mut f = fabric(Topology::Mesh { x: 3, y: 3 }, 0.4, 7);
            let outcome = f.run_parallel(400, 4_000, workers, false);
            (f.summary(), f.rng_fingerprints(), outcome)
        };
        let (s1, r1, o1) = run(1);
        // Uneven splits, one chunk per node, more workers than nodes.
        for w in [2, 3, 4, 5, 8, 9, 17] {
            let (sw, rw, ow) = run(w);
            assert_eq!(s1, sw, "summary diverged at {w} workers");
            assert_eq!(r1, rw, "RNG stream diverged at {w} workers");
            assert_eq!(o1, ow);
        }
    }

    #[test]
    fn parallel_runner_matches_sequential_cycle_model() {
        let check = |topo: Topology, seed: u64, warmup: u64, bound: u64, cases: &[usize]| {
            let seq = {
                let mut f = fabric(topo, 0.35, seed);
                let o = Runner::new(warmup, StopCondition::Cycles(bound)).run(&mut f);
                (f.summary(), f.rng_fingerprints(), o.executed, o.measured)
            };
            for &workers in cases {
                let mut f = fabric(topo, 0.35, seed);
                let o = f.run_parallel(warmup, bound, workers, false);
                assert_eq!(
                    seq,
                    (f.summary(), f.rng_fingerprints(), o.executed, o.measured),
                    "{}: run_parallel({workers}) diverged from Runner::run",
                    topo.label()
                );
            }
        };
        let mesh = Topology::Mesh { x: 3, y: 3 };
        check(mesh, 9, 300, 3_000, &[1, 2, 3]);
        // `warmup` and `bound` off the `link_latency` (4) grid: the
        // measurement boundary falls inside an epoch and the last epoch
        // is short.  Every chunk shape: uneven splits, one chunk per
        // node, more workers than nodes.
        let shapes = [1, 2, 3, 5, 8, 9, 17];
        for topo in [
            mesh,
            Topology::Ring { nodes: 5 },
            Topology::Torus { x: 3, y: 3 },
        ] {
            check(topo, 13, 301, 2_999, &shapes);
        }
    }

    #[test]
    fn thread_count_caps_threads_not_chunks() {
        let f = fabric(Topology::Mesh { x: 3, y: 3 }, 0.2, 3);
        let cores = available_parallelism().map_or(1, |n| n.get());
        assert_eq!(f.chunk_count(0), 1);
        assert_eq!(f.chunk_count(8), 8);
        assert_eq!(f.chunk_count(17), 9, "at most one chunk per node");
        for w in [1, 2, 8, 17] {
            assert_eq!(f.thread_count(w), f.chunk_count(w).min(cores));
        }
    }

    #[test]
    fn rx_consumes_in_send_order_and_carries_only_a_short_epochs_tail() {
        let wire = |due: u64, vc: u32| Wire { due, vc, load: () };
        let taken = |rx: &mut Rx<()>, u: u64| -> Vec<u32> {
            std::iter::from_fn(|| rx.pop_due(u)).map(|m| m.vc).collect()
        };
        let next_due = |rx: &Rx<()>| {
            let next = rx.pend.front().or_else(|| rx.inbox.get(rx.head));
            next.map(|m| m.due)
        };
        let mut rx = Rx::new();
        // A full epoch's inbox (sent over cycles 0..4, latency 4) is
        // consumed in place: nothing reaches `pend`.
        rx.inbox = vec![wire(4, 0), wire(4, 1), wire(6, 2), wire(7, 3)];
        assert_eq!((rx.len(), next_due(&rx)), (4, Some(4)));
        assert_eq!(taken(&mut rx, 4), [0, 1]);
        assert_eq!(taken(&mut rx, 5), [] as [u32; 0]);
        assert_eq!(taken(&mut rx, 7), [2, 3]);
        rx.close_epoch();
        assert!(rx.pend.is_empty() && rx.inbox.is_empty());
        assert_eq!((rx.head, rx.len(), next_due(&rx)), (0, 0, None));

        // A shortened epoch (cycles 8..10) leaves a tail: it is carried,
        // and the inbox goes back empty for the swap.
        rx.inbox = vec![wire(8, 4), wire(9, 5), wire(10, 6), wire(11, 7)];
        assert_eq!(taken(&mut rx, 8), [4]);
        assert_eq!(taken(&mut rx, 9), [5]);
        rx.close_epoch();
        assert!(rx.inbox.is_empty());
        assert_eq!((rx.head, rx.len(), next_due(&rx)), (0, 2, Some(10)));

        // The carried tail was sent first, so it is applied first, and
        // the swapped-in inbox only after it.
        rx.inbox = vec![wire(12, 8), wire(13, 9)];
        assert_eq!(rx.len(), 4);
        assert_eq!(taken(&mut rx, 10), [6]);
        assert_eq!(taken(&mut rx, 11), [7]);
        assert_eq!(taken(&mut rx, 12), [8]);
        assert_eq!(next_due(&rx), Some(13));
        // One-cycle epochs (`Fabric::step`): every epoch is short.
        rx.close_epoch();
        assert_eq!((rx.len(), next_due(&rx)), (1, Some(13)));
        assert_eq!(taken(&mut rx, 13), [9]);
        assert_eq!(rx.len(), 0);
    }

    fn epoch(n: u64) -> Epoch {
        Epoch {
            a: 4 * n,
            b: 4 * n + 1 + n % 4,
            measuring: n.is_multiple_of(2),
        }
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn hand_off_delivers_every_epoch_once_to_every_helper() {
        const HELPERS: usize = 3;
        const EPOCHS: u64 = 500;
        let h = HandOff::new(HELPERS);
        let logs: Vec<Mutex<Vec<Epoch>>> = (0..HELPERS).map(|_| Mutex::new(Vec::new())).collect();
        scope(|s| {
            for log in &logs {
                let h = &h;
                s.spawn(move || h.serve(|ep| log.lock().unwrap().push(ep)));
            }
            let _release = ReleaseOnDrop(&h);
            for n in 1..=EPOCHS {
                h.publish(epoch(n));
                h.wait();
                // `wait` returned: every helper ran exactly this epoch.
                for log in &logs {
                    let log = log.lock().unwrap();
                    assert_eq!(log.len() as u64, n);
                    assert_eq!(log.last(), Some(&epoch(n)));
                }
            }
        });
        let want: Vec<Epoch> = (1..=EPOCHS).map(epoch).collect();
        for log in &logs {
            assert_eq!(*log.lock().unwrap(), want);
        }
    }

    #[test]
    fn hand_off_wait_panics_when_a_helper_panics() {
        let h = HandOff::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| h.serve(|_| panic!("helper fails")));
                s.spawn(|| h.serve(|_| {}));
                let _release = ReleaseOnDrop(&h);
                h.publish(epoch(1));
                h.wait();
                unreachable!("wait returned although a helper never reported");
            })
        }));
        let msg = panic_message(caught.expect_err("the scope must panic"));
        assert!(msg.contains("a fabric worker panicked"), "got: {msg}");
    }

    #[test]
    fn hand_off_leader_unwind_releases_the_helpers() {
        let h = HandOff::new(2);
        let served = AtomicU64::new(0);
        // Returning from the scope at all proves the helpers were
        // released: it joins them first.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        h.serve(|_| {
                            served.fetch_add(1, Ordering::Relaxed);
                        })
                    });
                }
                let _release = ReleaseOnDrop(&h);
                h.publish(epoch(1));
                h.wait();
                panic!("leader fails");
            })
        }));
        let msg = panic_message(caught.expect_err("the leader's panic must propagate"));
        assert!(msg.contains("leader fails"), "got: {msg}");
        assert_eq!(served.load(Ordering::Relaxed), 2);
    }

    // ---- Line fabrics: the paper's "network composed of several MMRs"
    // in its simplest form. --------------------------------------------

    fn line(stages: usize, load: f64, seed: u64) -> Fabric {
        fabric(Topology::Line { stages }, load, seed)
    }

    #[test]
    fn one_stage_behaves_like_single_router() {
        let mut net = line(1, 0.3, 1);
        Runner::new(200, StopCondition::Cycles(3_000)).run(&mut net);
        let s = net.summary();
        assert!(s.delivered_flits > 0);
        assert!(s.backlog_flits < 20);
    }

    #[test]
    fn three_stages_deliver_with_higher_latency() {
        let run = |stages| {
            let mut net = line(stages, 0.3, 2);
            Runner::new(500, StopCondition::Cycles(8_000)).run(&mut net);
            net.summary()
        };
        let one = run(1);
        let three = run(3);
        assert!(three.delivered_flits > 0);
        let d1 = one
            .metrics
            .classes
            .iter()
            .map(|c| c.mean_delay_us)
            .fold(0.0, f64::max);
        let d3 = three
            .metrics
            .classes
            .iter()
            .map(|c| c.mean_delay_us)
            .fold(0.0, f64::max);
        assert!(d3 > d1, "3-hop delay {d3} must exceed 1-hop {d1}");
        assert_eq!(three.node_utilization.len(), 3);
    }

    #[test]
    fn backlog_drains_at_low_load() {
        let mut net = line(2, 0.2, 3);
        // Sources are infinite (CBR), so run fixed cycles then verify the
        // network kept pace.
        Runner::new(500, StopCondition::Cycles(6_000)).run(&mut net);
        assert!(net.backlog() < 30, "backlog {}", net.backlog());
        assert!(!net.drained(), "CBR sources never exhaust");
    }

    #[test]
    fn all_stages_carry_traffic() {
        let mut net = line(3, 0.4, 4);
        Runner::new(500, StopCondition::Cycles(6_000)).run(&mut net);
        for (i, u) in net.summary().node_utilization.iter().enumerate() {
            assert!(*u > 0.1, "stage {i} utilization {u}");
        }
    }

    #[test]
    fn line_fabric_matches_line_semantics() {
        // One-stage line: every connection takes exactly one hop and the
        // reserved path is the spec output.
        let f = fabric(Topology::Line { stages: 1 }, 0.3, 4);
        for conn in 0..f.ledger.specs.len() {
            assert_eq!(f.path_of(conn).len(), 1);
            assert_eq!(f.path_of(conn)[0], f.ledger.specs[conn].output);
        }
        let mut f = fabric(Topology::Line { stages: 3 }, 0.3, 4);
        assert_eq!(f.ledger.link_slots.len(), 2 * RouterConfig::default().ports);
        Runner::new(300, StopCondition::Cycles(4_000)).run(&mut f);
        assert!(f.summary().delivered_flits > 0);
    }
}
