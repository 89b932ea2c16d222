//! Outside-in replay of the router pipeline, for the traced pass only.
//!
//! `Replay` builds every layer of `MmrRouter` from its public constructor
//! and executes the six stages in `MmrRouter::step` order (fault and
//! telemetry hooks left out), with one clock reading at each stage
//! boundary.  The spans therefore come from the benchmark's own files,
//! around the calls into each layer, and the program under test is not
//! edited.  `bench-trace` checks after every pass that the replay still
//! reproduces the router's results bit for bit; when a refactor of the
//! layer APIs breaks that (or this file stops compiling), the per-layer
//! block is lost and the end-to-end pass, which never touches this file,
//! is not.

use mmr_benchmark::spans::Laps;
use mmr_core::arbiter::candidate::CandidateSet;
use mmr_core::arbiter::matching::Matching;
use mmr_core::arbiter::priority::LinkPriority;
use mmr_core::arbiter::scheduler::SwitchScheduler;
use mmr_core::config::SimConfig;
use mmr_core::experiment::build_workload;
use mmr_core::router::config::LinkPolicy;
use mmr_core::router::credit::CreditBank;
use mmr_core::router::crossbar::{Crossbar, CrossedFlit};
use mmr_core::router::link_scheduler::{LinkScheduler, VcQosInfo};
use mmr_core::router::metrics::{MetricsCollector, MetricsReport};
use mmr_core::router::nic::Nic;
use mmr_core::router::output::{Delivery, OutputPorts};
use mmr_core::router::router::RouterSummary;
use mmr_core::router::vcmem::VcMemory;
use mmr_core::sim::rng::SimRng;
use mmr_core::sim::time::RouterCycle;
use mmr_core::traffic::calendar::{self, InjectionCalendar};
use mmr_core::traffic::connection::ConnectionSpec;
use mmr_core::traffic::flit::Flit;
use mmr_core::traffic::source::TrafficSource;
use mmr_core::traffic::workload::Workload;

/// Stage names, by module, in pipeline order.  Indices are the `lap`
/// arguments below.
pub const STAGES: [&str; 7] = [
    "traffic.source",
    "router.link_scheduler",
    "arbiter.kernel",
    "router.crossbar",
    "router.metrics",
    "router.nic",
    "router.credit",
];

/// Work counts taken at the stage boundaries over the measured cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub cycles: u64,
    /// Calendar entries examined by source generation.
    pub sources_scanned: u64,
    /// Of those, entries that were due and drained.
    pub sources_due: u64,
    /// VCs the link schedulers looked at.
    pub vcs_scanned: u64,
    /// Candidates they offered to the arbiter.
    pub offered: u64,
    pub grants: u64,
}

/// What the replay must reproduce of a `RouterSummary`.
#[derive(Debug, PartialEq)]
pub struct ReplayResult {
    pub metrics: MetricsReport,
    pub delivered_per_output: Vec<u64>,
    pub reconfigurations: u64,
    pub generated_flits: u64,
    pub delivered_flits: u64,
    pub backlog_flits: usize,
    pub rng_fingerprint: u64,
}

impl ReplayResult {
    pub fn of_router(s: RouterSummary, rng_fingerprint: u64) -> Self {
        ReplayResult {
            metrics: s.metrics,
            delivered_per_output: s.delivered_per_output,
            reconfigurations: s.reconfigurations,
            generated_flits: s.generated_flits,
            delivered_flits: s.delivered_flits,
            backlog_flits: s.backlog_flits,
            rng_fingerprint,
        }
    }
}

pub struct Replay {
    specs: Vec<ConnectionSpec>,
    sources: Vec<Box<dyn TrafficSource + Send>>,
    calendar: InjectionCalendar,
    /// Per connection: (input port, local index within that NIC).
    nic_slot: Vec<(usize, usize)>,
    nics: Vec<Nic>,
    credits: CreditBank,
    mem: VcMemory,
    link_scheds: Vec<LinkScheduler>,
    qos: Vec<VcQosInfo>,
    priority_fn: Box<dyn LinkPriority>,
    arbiter: Box<dyn SwitchScheduler>,
    crossbar: Crossbar,
    outputs: OutputPorts,
    metrics: MetricsCollector,
    candidates: CandidateSet,
    matching: Matching,
    crossed: Vec<CrossedFlit>,
    drain_buf: Vec<Flit>,
    rng: SimRng,
    rc_per_flit: u64,
    crossing_rc: u64,
    generated_total: u64,
    delivered_total: u64,
    pub counts: Counts,
}

impl Replay {
    /// Assemble the layers for `cfg` the way `MmrRouter::new` wires them.
    pub fn new(cfg: &SimConfig) -> Self {
        let rc = cfg.router;
        assert_eq!(
            rc.link_policy,
            LinkPolicy::Priority,
            "the replay covers the priority link scheduler only"
        );
        let Workload {
            connections: specs,
            sources,
            ..
        } = build_workload(cfg);
        let mut by_input: Vec<Vec<usize>> = vec![Vec::new(); rc.ports];
        for s in &specs {
            by_input[s.input].push(s.id.idx());
        }
        let mut nic_slot = vec![(0, 0); specs.len()];
        for (port, conns) in by_input.iter().enumerate() {
            for (local, &conn) in conns.iter().enumerate() {
                nic_slot[conn] = (port, local);
            }
        }
        let qos = specs
            .iter()
            .map(|s| VcQosInfo {
                output: s.output,
                reserved_slots: s.reserved_slots,
                iat_rc: s.iat_router_cycles(&rc.time),
            })
            .collect();
        let rc_per_flit = rc.router_cycles_per_flit();
        Replay {
            calendar: InjectionCalendar::from_sources(&sources),
            sources,
            nic_slot,
            nics: by_input.iter().map(|c| Nic::new(c.clone())).collect(),
            credits: CreditBank::new(specs.len(), rc.vc_buffer_flits as u32),
            mem: VcMemory::new(specs.len(), rc.vc_buffer_flits, rc.vc_ram_banks),
            link_scheds: by_input
                .iter()
                .enumerate()
                .map(|(p, conns)| LinkScheduler::new(p, conns.clone()))
                .collect(),
            qos,
            priority_fn: cfg.priority.instantiate(),
            arbiter: cfg.arbiter.instantiate(rc.ports),
            crossbar: Crossbar::new(rc.ports),
            outputs: OutputPorts::new(rc.ports),
            metrics: MetricsCollector::new(specs.len(), rc.time),
            candidates: CandidateSet::new(rc.ports, rc.candidate_levels),
            matching: Matching::new(rc.ports),
            crossed: Vec::with_capacity(rc.ports),
            drain_buf: Vec::new(),
            // `MmrRouter::new` salts the arbitration stream the same way.
            rng: SimRng::seed_from_u64(cfg.seed ^ 0x4D4D_5221),
            rc_per_flit,
            crossing_rc: rc.crossing_latency_flits * rc_per_flit,
            generated_total: 0,
            delivered_total: 0,
            counts: Counts::default(),
            specs,
        }
    }

    /// `MmrRouter::on_measurement_start`.
    pub fn on_measurement_start(&mut self) {
        self.metrics.reset();
        self.crossbar.reset_stats();
        self.outputs.reset();
        self.generated_total = 0;
        self.delivered_total = 0;
        self.counts = Counts::default();
    }

    fn backlog(&self) -> usize {
        self.nics.iter().map(Nic::total_depth).sum::<usize>() + self.mem.total_occupancy()
    }

    pub fn result(&self) -> ReplayResult {
        ReplayResult {
            metrics: self.metrics.report(),
            delivered_per_output: self.outputs.per_port().to_vec(),
            reconfigurations: self.crossbar.reconfigurations(),
            generated_flits: self.generated_total,
            delivered_flits: self.delivered_total,
            backlog_flits: self.backlog(),
            rng_fingerprint: self.rng.clone().next_u64_raw(),
        }
    }

    /// One flit cycle, stage by stage, as `MmrRouter::step` runs it.
    pub fn step<L: Laps>(&mut self, now: u64, measuring: bool, laps: &mut L) {
        let now_rc = RouterCycle(now * self.rc_per_flit);
        // Spans are numbered from the start of the measurement window.
        laps.begin_cycle(self.counts.cycles);
        self.counts.cycles += 1;

        // 1. Source generation into NIC queues (calendar fast path).
        if self.calendar.min_lower_bound() <= now_rc.0 {
            let mut new_min = calendar::NEVER;
            for i in 0..self.sources.len() {
                let mut next = self.calendar.next_rc(i);
                self.counts.sources_scanned += 1;
                if next <= now_rc.0 {
                    self.counts.sources_due += 1;
                    self.drain_buf.clear();
                    self.sources[i].drain_until(now_rc, &mut self.drain_buf);
                    self.calendar.update(i, self.sources[i].peek_next());
                    next = self.calendar.next_rc(i);
                    let (port, local) = self.nic_slot[i];
                    let class = self.specs[i].class;
                    for &flit in self.drain_buf.iter() {
                        self.nics[port].enqueue(local, flit);
                        self.generated_total += 1;
                        if measuring {
                            self.metrics.record_generated(class);
                        }
                    }
                }
                new_min = new_min.min(next);
            }
            self.calendar.set_min_lb(new_min);
        }
        laps.lap(0);

        // 2. Link scheduling: candidate selection per input.
        self.candidates.clear();
        if self.mem.total_occupancy() > 0 {
            for ls in &mut self.link_scheds {
                self.counts.vcs_scanned += ls.vcs().len() as u64;
                self.counts.offered += ls.select(
                    &self.mem,
                    &self.qos,
                    self.priority_fn.as_ref(),
                    now_rc,
                    &mut self.candidates,
                ) as u64;
            }
        }
        laps.lap(1);

        // 3. Switch scheduling.
        if self.candidates.is_empty() {
            self.matching.clear();
        } else {
            self.arbiter
                .schedule_into(&self.candidates, &mut self.rng, &mut self.matching);
        }
        self.counts.grants += self.matching.size() as u64;
        laps.lap(2);

        // 4a. Crossbar traversal.
        let mut crossed = std::mem::take(&mut self.crossed);
        self.crossbar
            .transfer(&self.matching, &mut self.mem, measuring, &mut crossed);
        laps.lap(3);

        // 4b. Delivery and credit returns.
        for cf in &crossed {
            self.outputs.record(cf.output);
            self.delivered_total += 1;
            if measuring {
                let delivery = Delivery {
                    flit: cf.buffered.flit,
                    output: cf.output,
                    delivered_at: RouterCycle(now_rc.0 + self.crossing_rc),
                };
                self.metrics
                    .record_delivery(&delivery, self.specs[cf.vc].class);
            }
            self.credits.queue_return(cf.vc);
        }
        self.crossed = crossed;
        laps.lap(4);

        // 5. NIC link controllers forward one flit per input link.
        let arrival = RouterCycle(now_rc.0 + self.rc_per_flit);
        for nic in &mut self.nics {
            if nic.is_empty() {
                continue;
            }
            let credits = &self.credits;
            if let Some((conn, flit)) = nic.forward_one(|c| credits.has_credit(c)) {
                self.credits.spend(conn);
                self.mem.push(conn, flit, arrival);
            }
        }
        laps.lap(5);

        // 6. Credit returns become visible next cycle.
        self.credits.apply_returns();
        laps.lap(6);
    }

    /// Warm up, open the measurement window, run the measured cycles.
    /// Returns the host seconds of the measured cycles.
    pub fn run<L: Laps>(&mut self, warmup: u64, total: u64, laps: &mut L) -> f64 {
        for t in 0..warmup {
            self.step(t, false, &mut ());
        }
        self.on_measurement_start();
        laps.start();
        let t0 = std::time::Instant::now();
        for t in warmup..total {
            self.step(t, true, laps);
        }
        t0.elapsed().as_secs_f64()
    }
}
