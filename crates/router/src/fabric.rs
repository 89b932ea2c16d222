//! Sharded multi-router fabric: a parallel mesh/torus/ring/line of MMRs.
//!
//! The paper closes by noting the MMR "must be further extended to a
//! network composed of several MMRs"; this module is that extension at
//! scale.  A [`Topology`] instantiates N router nodes built from the
//! single-router components (VC memory, link schedulers, switch
//! scheduler, crossbar, credit banks), wires them with point-to-point
//! links, and places every admitted connection on a deterministic
//! dimension-order path ([`mmr_traffic::path`], the Pipelined Circuit
//! Switching reserved-path model).  Per-connection virtual channels
//! make the hop-by-hop credit chains self-waiting only, so the fabric
//! is deadlock-free even across torus wrap links.
//!
//! # Shard/epoch execution contract (DESIGN.md §17)
//!
//! Inter-node links carry flits *and* the matching upstream credits
//! with a latency of `link_latency` flit cycles.  A message sent at
//! cycle `t` is applied at its destination at cycle `t + link_latency`,
//! so any epoch of at most `link_latency` cycles can execute with **no
//! intra-epoch communication**: every message produced inside the epoch
//! is due at or after the epoch boundary.  Nodes are therefore fully
//! independent within an epoch, and the fabric runs them on worker
//! threads via the same deterministic chunked `split_at_mut` dispatch
//! as [`mmr_core` sweeps]: which worker steps which node is pure
//! scheduling, so the result is bit-identical for any worker count.
//!
//! Boundary exchange is double-buffered per directed link: the producer
//! appends to its outbox lane during the epoch, the main thread swaps
//! outbox/inbox vectors (pointer swaps, buffers reused — no steady-state
//! allocation) at the barrier, and the consumer drains its inboxes into
//! per-link pending queues at the next epoch start.  Message `due`
//! values are monotone per link, so application order is deterministic.
//!
//! The event-horizon engine extends to the fabric: each shard computes
//! its local `next_event` (backlog ⇒ next cycle; otherwise the earliest
//! of its injection calendar and in-flight message dues) and the fabric
//! fast-forwards to the minimum across shards plus any in-flight wire
//! messages.  Credits alone never gate the horizon: pending credit
//! returns are applied with a `due <= now` drain, which is
//! indistinguishable from eager application because a credit can only
//! be *observed* by an arbitration, and arbitrations only happen on
//! cycles with buffered flits — which the horizon never skips.

use crate::config::RouterConfig;
use crate::credit::CreditBank;
use crate::crossbar::{Crossbar, CrossedFlit};
use crate::link_scheduler::{LinkScheduler, VcQosInfo};
use crate::metrics::{MetricsCollector, MetricsReport};
use crate::nic::Nic;
use crate::output::Delivery;
use crate::vcmem::VcMemory;
use mmr_arbiter::candidate::CandidateSet;
use mmr_arbiter::matching::Matching;
use mmr_arbiter::priority::{LinkPriority, PriorityKind};
use mmr_arbiter::scheduler::{ArbiterKind, SwitchScheduler};
use mmr_sim::engine::CycleModel;
use mmr_sim::rng::SimRng;
use mmr_sim::time::{FlitCycle, RouterCycle};
use mmr_traffic::connection::ConnectionSpec;
use mmr_traffic::flit::Flit;
use mmr_traffic::path::{mesh_route, Dir, HostMap};
use mmr_traffic::workload::Workload;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Fabric topology: how many routers and how they are wired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// `stages` routers in tandem, joined by `ports` parallel links per
    /// hop (the PR-era `LineNetwork`, now a degenerate fabric).
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

    /// Crossbar ports per node.
    pub fn node_ports(&self, router_ports: usize, host_ports: usize) -> usize {
        match self {
            Topology::Line { .. } => router_ports,
            _ => self.degree() + host_ports,
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

    fn validate(&self) {
        match *self {
            Topology::Line { stages } => assert!(stages >= 1, "line needs at least one stage"),
            Topology::Ring { nodes } => assert!(nodes >= 2, "ring needs at least two nodes"),
            Topology::Mesh { x, y } => assert!(x >= 1 && y >= 1 && x * y >= 1, "empty mesh"),
            Topology::Torus { x, y } => {
                assert!(x >= 2 && y >= 2, "torus axes need >= 2 nodes (use Mesh)")
            }
        }
    }
}

/// Fabric geometry and timing knobs on top of the per-router
/// [`RouterConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Per-router configuration (buffer depths, timing, candidate
    /// levels; `ports` sizes the line bundle).
    pub router: RouterConfig,
    /// Topology to instantiate.
    pub topology: Topology,
    /// Inter-node link latency in flit cycles (>= 1).  Also the epoch
    /// length of the sharded executor: larger values amortize the
    /// per-epoch barrier, at the cost of modelling longer links.
    pub link_latency: u64,
    /// Host (injection/ejection) links per router for ring/mesh/torus
    /// topologies; ignored for the line.
    pub host_ports: usize,
}

impl FabricConfig {
    /// A fabric of `topology` with defaults: single-cycle links for the
    /// line (preserving `LineNetwork` timing), 4-cycle links otherwise,
    /// one host port per router.
    pub fn new(router: RouterConfig, topology: Topology) -> Self {
        FabricConfig {
            router,
            topology,
            link_latency: match topology {
                Topology::Line { .. } => 1,
                _ => 4,
            },
            host_ports: 1,
        }
    }
}

/// One message on a link's flit lane: due at `due`, landing in the
/// destination node's local VC `vc`.
#[derive(Debug, Clone, Copy)]
struct FlitWire {
    due: u64,
    vc: u32,
    flit: Flit,
}

/// One message on a link's credit lane, travelling upstream: frees one
/// buffer slot of the *sender* node's local VC `vc`.
#[derive(Debug, Clone, Copy)]
struct CredWire {
    due: u64,
    vc: u32,
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
}

struct NodeSource {
    conn: u32,
    nic: u32,
    slot: u32,
    src: Box<dyn mmr_traffic::source::TrafficSource + Send>,
}

struct NodeEvent {
    off: u32,
    kind: EventKind,
}

enum EventKind {
    Generated { conn: u32 },
    Delivered { delivery: Delivery },
}

/// One router node (shard unit) of the fabric.
struct FabricNode {
    mem: VcMemory,
    link_scheds: Vec<LinkScheduler>,
    qos: Vec<VcQosInfo>,
    priority_fn: Box<dyn LinkPriority>,
    arbiter: Box<dyn SwitchScheduler>,
    matching: Matching,
    crossbar: Crossbar,
    /// Free space of the *next-hop* VC buffer per local VC (unused for
    /// final-hop VCs, which eject without back-pressure).
    credits_down: CreditBank,
    candidates: CandidateSet,
    rng: SimRng,
    route: Vec<VcRoute>,
    nics: Vec<Nic>,
    nic_credits: CreditBank,
    sources: Vec<NodeSource>,
    out_count: usize,
    in_count: usize,
    drain_buf: Vec<Flit>,
    crossed_buf: Vec<CrossedFlit>,
    events: Vec<NodeEvent>,
    /// Local next-event horizon computed at epoch end (absolute cycle).
    horizon: u64,
}

impl FabricNode {
    /// Execute one cycle of this node.  `flit_out`/`cred_pend` are the
    /// node's out-link lanes (in node-local out-link order),
    /// `flit_pend`/`cred_out` its in-link lanes (node-local in-link
    /// order).  Mirrors the `LineNetwork` stage pipeline exactly at
    /// `link_latency == 1`.
    #[allow(clippy::too_many_arguments)]
    fn step_cycle(
        &mut self,
        u: u64,
        off: u32,
        measuring: bool,
        t: Timing,
        flit_out: &mut [Vec<FlitWire>],
        cred_pend: &mut [VecDeque<CredWire>],
        flit_pend: &mut [VecDeque<FlitWire>],
        cred_out: &mut [Vec<CredWire>],
    ) {
        let now_rc = RouterCycle(u * t.rc_per_flit);

        // 1. Credit arrivals become spendable before arbitration — a
        //    crossing at cycle c downstream frees the upstream slot at
        //    c + link_latency, matching the line network's next-cycle
        //    visibility at latency 1.  Drained with `due <= u` so a
        //    horizon skip that jumped past a credit-only cycle applies
        //    it here, unobservably (see module docs).
        for q in cred_pend.iter_mut() {
            while q.front().is_some_and(|m| m.due <= u) {
                let m = q.pop_front().expect("checked front");
                self.credits_down.queue_return(m.vc as usize);
            }
        }
        self.credits_down.apply_returns();

        // 2. Flit arrivals enter the VC memory, schedulable this cycle
        //    (their upstream crossing finished `link_latency` ago).
        for q in flit_pend.iter_mut() {
            while q.front().is_some_and(|m| m.due <= u) {
                let m = q.pop_front().expect("checked front");
                debug_assert_eq!(m.due, u, "flit message applied late");
                self.mem.push(m.vc as usize, m.flit, now_rc);
            }
        }

        // 3. Sources inject into the NIC queues.
        for s in self.sources.iter_mut() {
            self.drain_buf.clear();
            s.src.drain_until(now_rc, &mut self.drain_buf);
            for &flit in self.drain_buf.iter() {
                self.nics[s.nic as usize].enqueue(s.slot as usize, flit);
                self.events.push(NodeEvent {
                    off,
                    kind: EventKind::Generated { conn: s.conn },
                });
            }
        }

        // 4. Candidate selection: final-hop VCs eject freely; others
        //    need a downstream credit.
        self.candidates.clear();
        if self.mem.total_occupancy() > 0 {
            let route = &self.route;
            let credits = &self.credits_down;
            for ls in self.link_scheds.iter_mut() {
                ls.select_where(
                    &self.mem,
                    &self.qos,
                    self.priority_fn.as_ref(),
                    now_rc,
                    &mut self.candidates,
                    |vc| matches!(route[vc].next, HopNext::Deliver) || credits.has_credit(vc),
                );
            }
        }

        // 5. Switch scheduling.  An empty candidate set skips the kernel
        //    so quiescent cycles leave the RNG stream untouched — the
        //    property that makes executing a quiescent cycle identical
        //    to skipping it (DESIGN.md §12).
        if self.candidates.is_empty() {
            self.matching.clear();
        } else {
            self.arbiter
                .schedule_into(&self.candidates, &mut self.rng, &mut self.matching);
        }

        // 6. Crossbar traversal, then route each crossed flit: eject or
        //    forward on its reserved out-link, and return a credit
        //    upstream (to the NIC at the first hop, on the wire
        //    otherwise).
        let mut crossed = std::mem::take(&mut self.crossed_buf);
        self.crossbar
            .transfer(&self.matching, &mut self.mem, measuring, &mut crossed);
        for cf in &crossed {
            match self.route[cf.vc].next {
                HopNext::Deliver => {
                    self.events.push(NodeEvent {
                        off,
                        kind: EventKind::Delivered {
                            delivery: Delivery {
                                flit: cf.buffered.flit,
                                output: cf.output,
                                delivered_at: RouterCycle(now_rc.0 + t.crossing_rc),
                            },
                        },
                    });
                }
                HopNext::Forward { out, next_vc } => {
                    self.credits_down.spend(cf.vc);
                    flit_out[out as usize].push(FlitWire {
                        due: u + t.link_latency,
                        vc: next_vc,
                        flit: cf.buffered.flit,
                    });
                }
            }
            match self.route[cf.vc].back {
                HopBack::Nic => self.nic_credits.queue_return(cf.vc),
                HopBack::Wire { link, up_vc } => cred_out[link as usize].push(CredWire {
                    due: u + t.link_latency,
                    vc: up_vc,
                }),
            }
        }
        self.crossed_buf = crossed;

        // 7. NIC link controllers feed the first-hop VC buffers; pushes
        //    land with end-of-cycle arrival so they cannot be
        //    re-scheduled this cycle.
        let arrival = RouterCycle(now_rc.0 + t.rc_per_flit);
        for nic in self.nics.iter_mut() {
            let credits = &self.nic_credits;
            if let Some((vc, flit)) = nic.forward_one(|c| credits.has_credit(c)) {
                self.nic_credits.spend(vc);
                self.mem.push(vc, flit, arrival);
            }
        }

        // 8. NIC credit returns become visible next cycle.
        self.nic_credits.apply_returns();

        debug_assert!(
            self.mem.index_consistent() && self.nics.iter().all(Nic::index_consistent),
            "occupancy index out of sync at cycle {u}"
        );
    }

    fn backlog(&self) -> usize {
        self.nics.iter().map(Nic::total_depth).sum::<usize>() + self.mem.total_occupancy()
    }
}

/// Local next-event horizon of one node after executing cycle `now`:
/// any backlog means state can move next cycle; otherwise the earliest
/// of the injection calendars and pending in-flight flit dues.  Pending
/// credits never gate the horizon (module docs).
fn node_horizon(
    node: &FabricNode,
    flit_pend: &[VecDeque<FlitWire>],
    now: u64,
    rc_per_flit: u64,
) -> u64 {
    if node.backlog() > 0 {
        return now + 1;
    }
    let mut h = u64::MAX;
    for s in &node.sources {
        if let Some(rc) = s.src.peek_next() {
            h = h.min(rc.0.div_ceil(rc_per_flit).max(now + 1));
        }
    }
    for q in flit_pend {
        if let Some(m) = q.front() {
            h = h.min(m.due);
        }
    }
    h
}

/// Execute cycles `[a, b)` for one chunk of nodes.  The six mailbox
/// slices cover exactly the chunk's links: out-link-ordered
/// (`flit_out`, `cred_in`, `cred_pend`) and in-link-ordered (`flit_in`,
/// `cred_out`, `flit_pend`).  Runs identically inline (1 worker) or on
/// a scoped thread — node results depend only on `(a, b)` and prior
/// state, never on the chunking.
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    nodes: &mut [FabricNode],
    flit_out: &mut [Vec<FlitWire>],
    cred_in: &mut [Vec<CredWire>],
    cred_pend: &mut [VecDeque<CredWire>],
    flit_in: &mut [Vec<FlitWire>],
    cred_out: &mut [Vec<CredWire>],
    flit_pend: &mut [VecDeque<FlitWire>],
    a: u64,
    b: u64,
    measuring: bool,
    t: Timing,
    compute_horizon: bool,
) {
    debug_assert!(b > a && b - a <= t.link_latency, "epoch exceeds lookahead");
    // Epoch start: drain the swapped-in inbox lanes into the pending
    // queues (capacity is retained on both sides — steady state is
    // allocation-free).
    let (mut o, mut i) = (0usize, 0usize);
    for node in nodes.iter() {
        for k in 0..node.in_count {
            flit_pend[i + k].extend(flit_in[i + k].drain(..));
        }
        for k in 0..node.out_count {
            cred_pend[o + k].extend(cred_in[o + k].drain(..));
        }
        o += node.out_count;
        i += node.in_count;
    }
    for u in a..b {
        let off = (u - a) as u32;
        let (mut o, mut i) = (0usize, 0usize);
        for node in nodes.iter_mut() {
            let (oc, ic) = (node.out_count, node.in_count);
            node.step_cycle(
                u,
                off,
                measuring,
                t,
                &mut flit_out[o..o + oc],
                &mut cred_pend[o..o + oc],
                &mut flit_pend[i..i + ic],
                &mut cred_out[i..i + ic],
            );
            o += oc;
            i += ic;
        }
    }
    if compute_horizon {
        let mut i = 0usize;
        for node in nodes.iter_mut() {
            node.horizon =
                node_horizon(node, &flit_pend[i..i + node.in_count], b - 1, t.rc_per_flit);
            i += node.in_count;
        }
    }
}

/// Outcome of a [`Fabric::run_parallel`] call; mirrors
/// [`mmr_sim::engine::RunOutcome`] (`executed` counts stepped plus
/// skipped cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricRunOutcome {
    /// Flit cycles advanced through (stepped plus skipped).
    pub executed: u64,
    /// Cycles that counted toward measurement (post-warm-up).
    pub measured: u64,
    /// Cycles fast-forwarded via the fabric-wide minimum horizon.
    pub skipped: u64,
}

/// A sharded multi-router fabric of MMRs.
pub struct Fabric {
    cfg: FabricConfig,
    specs: Vec<ConnectionSpec>,
    nodes: Vec<FabricNode>,
    /// Per link: (out slot, in slot) — the double-buffer swap map.
    link_slots: Vec<(usize, usize)>,
    /// Node -> first in slot; length `nodes + 1`.
    in_start: Vec<usize>,
    flit_out: Vec<Vec<FlitWire>>,
    flit_in: Vec<Vec<FlitWire>>,
    cred_out: Vec<Vec<CredWire>>,
    cred_in: Vec<Vec<CredWire>>,
    flit_pend: Vec<VecDeque<FlitWire>>,
    cred_pend: Vec<VecDeque<CredWire>>,
    metrics: MetricsCollector,
    cursors: Vec<usize>,
    /// Per connection: the out port taken at each hop.
    paths_out: Vec<Vec<usize>>,
    timing: Timing,
    generated_total: u64,
    delivered_total: u64,
}

impl Fabric {
    /// Build a fabric.  Connection specs address the topology's
    /// [`Topology::workload_ports`] flat port space; each connection is
    /// placed on its deterministic reserved path (dimension-order for
    /// mesh/torus, shorter-way for rings, seeded random bundle ports
    /// for line hops — matching the pre-fabric `LineNetwork`).
    pub fn new(
        cfg: FabricConfig,
        workload: Workload,
        arbiter_kind: ArbiterKind,
        priority: PriorityKind,
        seed: u64,
    ) -> Self {
        cfg.router.validate();
        cfg.topology.validate();
        assert!(cfg.link_latency >= 1, "links need at least one cycle");
        assert!(
            matches!(cfg.topology, Topology::Line { .. }) || cfg.host_ports >= 1,
            "ring/mesh/torus fabrics need at least one host port"
        );
        let Workload {
            connections: specs,
            sources,
            ..
        } = workload;
        let n = specs.len();
        let nnodes = cfg.topology.node_count();
        let degree = cfg.topology.degree();
        let node_ports = cfg.topology.node_ports(cfg.router.ports, cfg.host_ports);
        let workload_ports = cfg
            .topology
            .workload_ports(cfg.router.ports, cfg.host_ports);
        let hm = HostMap {
            nodes: nnodes,
            host_ports: cfg.host_ports,
        };

        // ---- Wiring: the directed link list of the topology. --------
        // (from node, from port) -> (to node, to port).
        let mut links: Vec<(usize, usize, usize, usize)> = Vec::new();
        match cfg.topology {
            Topology::Line { stages } => {
                for s in 0..stages.saturating_sub(1) {
                    for p in 0..node_ports {
                        links.push((s, p, s + 1, p));
                    }
                }
            }
            Topology::Ring { nodes } => {
                for i in 0..nodes {
                    let fwd = Dir::XPlus.index();
                    let bwd = Dir::XMinus.index();
                    links.push((i, fwd, (i + 1) % nodes, bwd));
                    links.push((i, bwd, (i + nodes - 1) % nodes, fwd));
                }
            }
            Topology::Mesh { x, y } | Topology::Torus { x, y } => {
                let wrap = matches!(cfg.topology, Topology::Torus { .. });
                for node in 0..x * y {
                    let (gx, gy) = (node % x, node / x);
                    let mut emit = |dir: Dir, exists: bool, to: usize| {
                        if exists {
                            links.push((node, dir.index(), to, dir.opposite().index()));
                        }
                    };
                    emit(Dir::XPlus, wrap || gx + 1 < x, gy * x + (gx + 1) % x);
                    emit(Dir::XMinus, wrap || gx > 0, gy * x + (gx + x - 1) % x);
                    emit(Dir::YPlus, wrap || gy + 1 < y, ((gy + 1) % y) * x + gx);
                    emit(Dir::YMinus, wrap || gy > 0, ((gy + y - 1) % y) * x + gx);
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
        // -> local in-link index.
        let mut out_of_port = vec![vec![u32::MAX; node_ports]; nnodes];
        let mut in_of_port = vec![vec![u32::MAX; node_ports]; nnodes];
        for (slot, &l) in out_order.iter().enumerate() {
            let (from, port, _, _) = links[l];
            out_of_port[from][port] = (slot - out_start[from]) as u32;
        }
        for (slot, &l) in in_order.iter().enumerate() {
            let (_, _, to, port) = links[l];
            in_of_port[to][port] = (slot - in_start[to]) as u32;
        }

        // ---- Reserved paths: per connection, (node, in port, out port)
        // per hop. -----------------------------------------------------
        let mut path_rng = SimRng::seed_from_u64(seed ^ 0x4C49_4E45);
        let mut hops: Vec<Vec<(usize, usize, usize)>> = Vec::with_capacity(n);
        for s in &specs {
            assert!(
                s.input < workload_ports && s.output < workload_ports,
                "spec port outside the fabric's workload port space"
            );
            let mut h: Vec<(usize, usize, usize)> = Vec::new();
            match cfg.topology {
                Topology::Line { stages } => {
                    // Same draw order as the pre-fabric LineNetwork, so
                    // reserved line paths are unchanged.
                    let mut inp = s.input;
                    for stage in 0..stages {
                        let out = if stage + 1 == stages {
                            s.output
                        } else {
                            path_rng.index(node_ports)
                        };
                        h.push((stage, inp, out));
                        inp = out;
                    }
                }
                Topology::Ring { .. } | Topology::Mesh { .. } | Topology::Torus { .. } => {
                    let (gx, gy, wrap) = match cfg.topology {
                        Topology::Ring { nodes } => (nodes, 1, true),
                        Topology::Mesh { x, y } => (x, y, false),
                        Topology::Torus { x, y } => (x, y, true),
                        Topology::Line { .. } => unreachable!(),
                    };
                    let src = hm.node_of(s.input);
                    let dst = hm.node_of(s.output);
                    let route = mesh_route(gx, gy, src, dst, wrap);
                    let mut node = src;
                    let mut inp = degree + hm.slot_of(s.input);
                    for d in &route {
                        h.push((node, inp, d.index()));
                        node = {
                            let (nx, ny) = (node % gx, node / gx);
                            match d {
                                Dir::XPlus => ny * gx + (nx + 1) % gx,
                                Dir::XMinus => ny * gx + (nx + gx - 1) % gx,
                                Dir::YPlus => ((ny + 1) % gy) * gx + nx,
                                Dir::YMinus => ((ny + gy - 1) % gy) * gx + nx,
                            }
                        };
                        inp = d.opposite().index();
                    }
                    h.push((node, inp, degree + hm.slot_of(s.output)));
                }
            }
            hops.push(h);
        }
        let paths_out: Vec<Vec<usize>> = hops
            .iter()
            .map(|h| h.iter().map(|&(_, _, out)| out).collect())
            .collect();

        // ---- Local VC spaces: connections traversing each node, in
        // global connection order. -------------------------------------
        let mut local_conns: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nnodes];
        let mut local_of: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (conn, h) in hops.iter().enumerate() {
            for (hi, &(node, _, _)) in h.iter().enumerate() {
                local_of[conn].push(local_conns[node].len() as u32);
                local_conns[node].push((conn, hi));
            }
        }

        // ---- Per-node construction. ----------------------------------
        let rc_per_flit = cfg.router.router_cycles_per_flit();
        let arb_base = SimRng::seed_from_u64(seed ^ 0x6E65_7477);
        let mut per_node_sources: Vec<Vec<NodeSource>> = (0..nnodes).map(|_| Vec::new()).collect();
        let mut nic_lists: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); node_ports]; nnodes];
        for (conn, src) in sources.into_iter().enumerate() {
            let (node, inp, _) = hops[conn][0];
            let local = local_of[conn][0] as usize;
            let slot = nic_lists[node][inp].len() as u32;
            nic_lists[node][inp].push(local);
            per_node_sources[node].push(NodeSource {
                conn: conn as u32,
                nic: inp as u32, // resolved to a dense NIC index below
                slot,
                src,
            });
        }

        let mut nodes = Vec::with_capacity(nnodes);
        for nd in 0..nnodes {
            let locals = &local_conns[nd];
            let nloc = locals.len();
            let mut by_input: Vec<Vec<usize>> = vec![Vec::new(); node_ports];
            let mut qos = Vec::with_capacity(nloc);
            let mut route = Vec::with_capacity(nloc);
            for (local, &(conn, hi)) in locals.iter().enumerate() {
                let (_, inp, out) = hops[conn][hi];
                by_input[inp].push(local);
                qos.push(VcQosInfo {
                    output: out,
                    reserved_slots: specs[conn].reserved_slots,
                    iat_rc: specs[conn].iat_router_cycles(&cfg.router.time),
                });
                let next = if hi + 1 == hops[conn].len() {
                    HopNext::Deliver
                } else {
                    HopNext::Forward {
                        out: out_of_port[nd][out],
                        next_vc: local_of[conn][hi + 1],
                    }
                };
                debug_assert!(
                    !matches!(next, HopNext::Forward { out: u32::MAX, .. }),
                    "route uses an unwired out port"
                );
                let back = if hi == 0 {
                    HopBack::Nic
                } else {
                    HopBack::Wire {
                        link: in_of_port[nd][inp],
                        up_vc: local_of[conn][hi - 1],
                    }
                };
                route.push(VcRoute { next, back });
            }
            // Dense NIC list: one NIC per ingress port that sources
            // connections here, in port order.
            let mut nics = Vec::new();
            let mut nic_of_port = vec![u32::MAX; node_ports];
            for (port, list) in nic_lists[nd].iter().enumerate() {
                if !list.is_empty() {
                    nic_of_port[port] = nics.len() as u32;
                    nics.push(Nic::new(list.clone()));
                }
            }
            let mut node_sources = std::mem::take(&mut per_node_sources[nd]);
            for s in &mut node_sources {
                s.nic = nic_of_port[s.nic as usize];
            }
            nodes.push(FabricNode {
                mem: VcMemory::new(nloc, cfg.router.vc_buffer_flits, cfg.router.vc_ram_banks),
                link_scheds: by_input
                    .iter()
                    .enumerate()
                    .map(|(p, conns)| LinkScheduler::new(p, conns.clone()))
                    .collect(),
                qos,
                priority_fn: priority.instantiate(),
                arbiter: arbiter_kind.instantiate(node_ports),
                matching: Matching::new(node_ports),
                crossbar: Crossbar::new(node_ports),
                credits_down: CreditBank::new(nloc, cfg.router.vc_buffer_flits as u32),
                candidates: CandidateSet::new(node_ports, cfg.router.candidate_levels),
                rng: arb_base.split(nd as u64),
                route,
                nics,
                nic_credits: CreditBank::new(nloc, cfg.router.vc_buffer_flits as u32),
                sources: node_sources,
                out_count: out_start[nd + 1] - out_start[nd],
                in_count: in_start[nd + 1] - in_start[nd],
                drain_buf: Vec::new(),
                crossed_buf: Vec::new(),
                events: Vec::new(),
                horizon: 0,
            });
        }

        Fabric {
            specs,
            nodes,
            link_slots: (0..nlinks).map(|l| (out_slot[l], in_slot[l])).collect(),
            in_start,
            flit_out: (0..nlinks).map(|_| Vec::new()).collect(),
            flit_in: (0..nlinks).map(|_| Vec::new()).collect(),
            cred_out: (0..nlinks).map(|_| Vec::new()).collect(),
            cred_in: (0..nlinks).map(|_| Vec::new()).collect(),
            flit_pend: (0..nlinks).map(|_| VecDeque::new()).collect(),
            cred_pend: (0..nlinks).map(|_| VecDeque::new()).collect(),
            metrics: MetricsCollector::new(n, cfg.router.time),
            cursors: vec![0; nnodes],
            paths_out,
            timing: Timing {
                rc_per_flit,
                crossing_rc: cfg.router.crossing_latency_flits * rc_per_flit,
                link_latency: cfg.link_latency,
            },
            generated_total: 0,
            delivered_total: 0,
            cfg,
        }
    }

    /// Fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Router count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Directed inter-node link count.
    pub fn link_count(&self) -> usize {
        self.link_slots.len()
    }

    /// Admitted connection count.
    pub fn connection_count(&self) -> usize {
        self.specs.len()
    }

    /// The reserved path of one connection: out port at each hop.
    pub fn path_of(&self, conn: usize) -> &[usize] {
        &self.paths_out[conn]
    }

    /// QoS metrics snapshot (end to end, across all hops).
    pub fn metrics_report(&self) -> MetricsReport {
        self.metrics.report()
    }

    /// Mean crossbar utilization per node.
    pub fn node_utilizations(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .map(|nd| nd.crossbar.mean_utilization())
            .collect()
    }

    /// Flits buffered anywhere: NICs, VC memories, and in flight on
    /// links (pending queues and both mailbox lanes).
    pub fn backlog(&self) -> usize {
        self.nodes.iter().map(FabricNode::backlog).sum::<usize>()
            + self.flit_pend.iter().map(VecDeque::len).sum::<usize>()
            + self.flit_in.iter().map(Vec::len).sum::<usize>()
            + self.flit_out.iter().map(Vec::len).sum::<usize>()
    }

    /// True when sources are exhausted and nothing is buffered or in
    /// flight.
    pub fn drained(&self) -> bool {
        self.nodes
            .iter()
            .all(|nd| nd.sources.iter().all(|s| s.src.peek_next().is_none()))
            && self.backlog() == 0
    }

    /// Per-node arbitration-RNG fingerprints: the next raw draw of a
    /// clone of each node's RNG.  Bit-identical across worker counts
    /// and engine modes.
    pub fn rng_fingerprints(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|nd| nd.rng.clone().next_u64_raw())
            .collect()
    }

    /// Run summary.
    pub fn summary(&self) -> FabricSummary {
        let hop_total: usize = self.paths_out.iter().map(Vec::len).sum();
        FabricSummary {
            topology: self.cfg.topology.label(),
            nodes: self.nodes.len(),
            links: self.link_slots.len(),
            connections: self.specs.len(),
            mean_hops: hop_total as f64 / self.specs.len().max(1) as f64,
            metrics: self.metrics.report(),
            node_utilization: self.node_utilizations(),
            generated_flits: self.generated_total,
            delivered_flits: self.delivered_total,
            backlog_flits: self.backlog(),
        }
    }

    /// Swap the double-buffered mailbox lanes at an epoch barrier:
    /// outboxes become inboxes (pointer swaps; buffers are reused).
    fn swap_boxes(&mut self) {
        for &(o, i) in &self.link_slots {
            std::mem::swap(&mut self.flit_out[o], &mut self.flit_in[i]);
            std::mem::swap(&mut self.cred_out[i], &mut self.cred_in[o]);
        }
    }

    /// Commit per-node event buffers into the global metrics collector
    /// in deterministic (cycle offset, node, emission) order — the same
    /// order in sequential and parallel execution, so float
    /// accumulation is bit-identical.
    fn commit_events(&mut self, epoch_len: u64, measuring: bool) {
        self.cursors.clear();
        self.cursors.resize(self.nodes.len(), 0);
        for off in 0..epoch_len as u32 {
            for nd in 0..self.nodes.len() {
                let mut c = self.cursors[nd];
                let events = &self.nodes[nd].events;
                while c < events.len() && events[c].off == off {
                    match &events[c].kind {
                        EventKind::Generated { conn } => {
                            self.generated_total += 1;
                            if measuring {
                                self.metrics
                                    .record_generated(self.specs[*conn as usize].class);
                            }
                        }
                        EventKind::Delivered { delivery } => {
                            self.delivered_total += 1;
                            if measuring {
                                let class = self.specs[delivery.flit.connection.idx()].class;
                                self.metrics.record_delivery(delivery, class);
                            }
                        }
                    }
                    c += 1;
                }
                self.cursors[nd] = c;
            }
        }
        for (nd, node) in self.nodes.iter_mut().enumerate() {
            debug_assert_eq!(self.cursors[nd], node.events.len(), "uncommitted events");
            node.events.clear();
        }
    }

    /// Execute cycles `[a, b)` (one epoch, `b - a <= link_latency`)
    /// across `workers` threads, then commit events and swap mailboxes.
    fn advance_epoch(&mut self, a: u64, b: u64, measuring: bool, workers: usize, horizon: bool) {
        let nnodes = self.nodes.len();
        let w = workers.max(1).min(nnodes.max(1));
        let t = self.timing;
        if w <= 1 {
            run_chunk(
                &mut self.nodes,
                &mut self.flit_out,
                &mut self.cred_in,
                &mut self.cred_pend,
                &mut self.flit_in,
                &mut self.cred_out,
                &mut self.flit_pend,
                a,
                b,
                measuring,
                t,
                horizon,
            );
        } else {
            let base = nnodes / w;
            let rem = nnodes % w;
            std::thread::scope(|s| {
                let mut nodes = &mut self.nodes[..];
                let mut fo = &mut self.flit_out[..];
                let mut ci = &mut self.cred_in[..];
                let mut cp = &mut self.cred_pend[..];
                let mut fi = &mut self.flit_in[..];
                let mut co = &mut self.cred_out[..];
                let mut fp = &mut self.flit_pend[..];
                let mut main_chunk = None;
                for wi in 0..w {
                    let len = base + usize::from(wi < rem);
                    let (nch, nrest) = nodes.split_at_mut(len);
                    nodes = nrest;
                    let olen: usize = nch.iter().map(|nd| nd.out_count).sum();
                    let ilen: usize = nch.iter().map(|nd| nd.in_count).sum();
                    let (foc, forest) = fo.split_at_mut(olen);
                    fo = forest;
                    let (cic, cirest) = ci.split_at_mut(olen);
                    ci = cirest;
                    let (cpc, cprest) = cp.split_at_mut(olen);
                    cp = cprest;
                    let (fic, firest) = fi.split_at_mut(ilen);
                    fi = firest;
                    let (coc, corest) = co.split_at_mut(ilen);
                    co = corest;
                    let (fpc, fprest) = fp.split_at_mut(ilen);
                    fp = fprest;
                    let chunk = (nch, foc, cic, cpc, fic, coc, fpc);
                    if wi == 0 {
                        // The main thread works its own chunk instead of
                        // idling at the barrier.
                        main_chunk = Some(chunk);
                    } else {
                        s.spawn(move || {
                            let (nch, foc, cic, cpc, fic, coc, fpc) = chunk;
                            run_chunk(
                                nch, foc, cic, cpc, fic, coc, fpc, a, b, measuring, t, horizon,
                            );
                        });
                    }
                }
                if let Some((nch, foc, cic, cpc, fic, coc, fpc)) = main_chunk {
                    run_chunk(
                        nch, foc, cic, cpc, fic, coc, fpc, a, b, measuring, t, horizon,
                    );
                }
            });
        }
        self.commit_events(b - a, measuring);
        self.swap_boxes();
    }

    /// Fabric-wide horizon after an epoch ending at cycle `last`:
    /// minimum of the per-node horizons computed at epoch end and the
    /// dues of wire messages swapped into the inboxes.
    fn horizon_after_epoch(&self) -> u64 {
        let mut h = u64::MAX;
        for node in &self.nodes {
            h = h.min(node.horizon);
        }
        for b in &self.flit_in {
            for m in b {
                h = h.min(m.due);
            }
        }
        h
    }

    /// Bulk-advance `n` quiescent cycles (all-node idle accounting).
    fn skip_cycles(&mut self, n: u64, measuring: bool) {
        if measuring {
            for node in &mut self.nodes {
                node.crossbar.record_idle_cycles(n);
            }
        }
    }

    /// Run `bound` flit cycles (with `warmup` of them as warm-up) on
    /// `workers` threads, batching execution into epochs of
    /// `link_latency` cycles.  With `horizon` set, the fabric
    /// fast-forwards quiescent gaps to the minimum cross-shard horizon
    /// between epochs.  The final fabric state is bit-identical to
    /// [`mmr_sim::engine::Runner`] driving [`CycleModel::step`] for the
    /// same `warmup`/`bound`, for every worker count — only the
    /// `skipped`/`executed` split in the outcome may differ from the
    /// runner's (epochs skip at coarser grain).
    pub fn run_parallel(
        &mut self,
        warmup: u64,
        bound: u64,
        workers: usize,
        horizon: bool,
    ) -> FabricRunOutcome {
        let e = self.timing.link_latency.max(1);
        let mut t = 0u64;
        let mut executed = 0u64;
        let mut measured = 0u64;
        let mut skipped = 0u64;
        while t < bound {
            if t == warmup {
                self.on_measurement_start(FlitCycle(t));
            }
            let measuring = t >= warmup;
            let mut b = (t + e).min(bound);
            if t < warmup {
                b = b.min(warmup);
            }
            self.advance_epoch(t, b, measuring, workers, horizon);
            executed += b - t;
            if measuring {
                measured += b - t;
            }
            t = b;
            if horizon && t < bound {
                let mut target = self.horizon_after_epoch().max(t).min(bound);
                if t < warmup {
                    // Never skip across the measurement boundary.
                    target = target.min(warmup);
                }
                if target > t {
                    let gap = target - t;
                    let gap_measuring = t >= warmup;
                    self.skip_cycles(gap, gap_measuring);
                    executed += gap;
                    skipped += gap;
                    if gap_measuring {
                        measured += gap;
                    }
                    t = target;
                }
            }
        }
        FabricRunOutcome {
            executed,
            measured,
            skipped,
        }
    }
}

impl CycleModel for Fabric {
    fn step(&mut self, now: FlitCycle, measuring: bool) {
        // One cycle is a degenerate epoch through the same machinery the
        // parallel path uses — there is a single algorithm, not two.
        self.advance_epoch(now.0, now.0 + 1, measuring, 1, false);
    }

    fn on_measurement_start(&mut self, _now: FlitCycle) {
        self.metrics.reset();
        for node in &mut self.nodes {
            node.crossbar.reset_stats();
        }
        self.generated_total = 0;
        self.delivered_total = 0;
    }

    fn is_done(&self, _now: FlitCycle) -> bool {
        self.drained()
    }

    fn next_event(&self, now: FlitCycle) -> FlitCycle {
        let mut h = u64::MAX;
        for (nd, node) in self.nodes.iter().enumerate() {
            let pend = &self.flit_pend[self.in_start[nd]..self.in_start[nd + 1]];
            h = h.min(node_horizon(node, pend, now.0, self.timing.rc_per_flit));
            if h == now.0 + 1 {
                return FlitCycle(h);
            }
        }
        for b in &self.flit_in {
            for m in b {
                h = h.min(m.due);
            }
        }
        FlitCycle(h.max(now.0 + 1))
    }

    fn skip_quiescent(&mut self, _from: FlitCycle, n: u64, measuring: bool) {
        self.skip_cycles(n, measuring);
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

    fn fabric(topology: Topology, load: f64, seed: u64) -> Fabric {
        let router = RouterConfig::default();
        let cfg = FabricConfig::new(router, topology);
        let ports = topology.workload_ports(router.ports, cfg.host_ports);
        let mut rng = SimRng::seed_from_u64(seed);
        let w = CbrMixBuilder::new(ports, router.time, RoundConfig::default())
            .target_load(load)
            .build(&mut rng);
        Fabric::new(cfg, w, ArbiterKind::Coa, PriorityKind::Siabp, seed)
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
        for w in [2, 4, 8] {
            let (sw, rw, ow) = run(w);
            assert_eq!(s1, sw, "summary diverged at {w} workers");
            assert_eq!(r1, rw, "RNG stream diverged at {w} workers");
            assert_eq!(o1, ow);
        }
    }

    #[test]
    fn parallel_runner_matches_sequential_cycle_model() {
        let seq = {
            let mut f = fabric(Topology::Mesh { x: 3, y: 3 }, 0.35, 9);
            Runner::new(300, StopCondition::Cycles(3_000)).run(&mut f);
            (f.summary(), f.rng_fingerprints())
        };
        for (workers, horizon) in [(1, false), (2, true), (3, false)] {
            let mut f = fabric(Topology::Mesh { x: 3, y: 3 }, 0.35, 9);
            f.run_parallel(300, 3_000, workers, horizon);
            assert_eq!(
                seq,
                (f.summary(), f.rng_fingerprints()),
                "run_parallel({workers}, horizon={horizon}) diverged from Runner::run"
            );
        }
    }

    #[test]
    fn horizon_engine_matches_naive_on_the_fabric() {
        for &load in &[0.05, 0.3] {
            let run = |horizon: bool| {
                let mut f = fabric(Topology::Mesh { x: 3, y: 3 }, load, 11);
                let runner = Runner::new(300, StopCondition::Cycles(3_000));
                let o = if horizon {
                    runner.run_horizon(&mut f)
                } else {
                    runner.run(&mut f)
                };
                (f.summary(), f.rng_fingerprints(), o.executed)
            };
            assert_eq!(run(true), run(false), "engines diverged at load {load}");
        }
    }

    #[test]
    fn line_fabric_matches_line_semantics() {
        // One-stage line: every connection takes exactly one hop and the
        // reserved path is the spec output.
        let f = fabric(Topology::Line { stages: 1 }, 0.3, 4);
        for conn in 0..f.connection_count() {
            assert_eq!(f.path_of(conn).len(), 1);
            assert_eq!(f.path_of(conn)[0], f.specs[conn].output);
        }
        let mut f = fabric(Topology::Line { stages: 3 }, 0.3, 4);
        assert_eq!(f.link_count(), 2 * RouterConfig::default().ports);
        Runner::new(300, StopCondition::Cycles(4_000)).run(&mut f);
        assert!(f.summary().delivered_flits > 0);
    }
}
