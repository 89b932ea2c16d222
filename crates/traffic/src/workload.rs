//! Workload builders for the paper's experiments.
//!
//! §5 evaluates a single 4×4 MMR fed by per-input NICs.  Connections are
//! "a random mix" (CBR) or MPEG-2 streams (VBR), active for the whole
//! simulation, with uniformly random destinations.  These builders keep
//! admitting connections on every input link until the requested offered
//! load is reached, going through the [`AdmissionControl`] ledger so that
//! no link is ever booked beyond its round.

use crate::admission::{AdmissionControl, RoundConfig};
use crate::besteffort::BestEffortSource;
use crate::cbr::CbrSource;
use crate::connection::{ConnectionId, ConnectionKind, ConnectionSpec, QosSpec, TrafficClass};
use crate::injection::InjectionModel;
use crate::mpeg::{standard_sequences, MpegTrace, SequenceParams, FRAME_TIME_SECS};
use crate::source::TrafficSource;
use crate::vbr::VbrSource;
use mmr_sim::check::{within_span, ConfigError};
use mmr_sim::ensure;
use mmr_sim::rng::SimRng;
use mmr_sim::time::{RouterCycle, TimeBase};
use mmr_sim::units::Bandwidth;
use serde::{Deserialize, Serialize};

/// A boxed source, index-aligned with its `ConnectionSpec`.
pub type BoxedSource = Box<dyn TrafficSource + Send>;

/// Outcome counts from the connection-admission control (CAC) ledger
/// during workload construction.  Placement-policy skips (a class whose
/// bandwidth would overshoot the load target) are not admission attempts
/// and are not counted; best-effort connections reserve nothing and never
/// consult the CAC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionTally {
    /// Admission requests the CAC accepted (slots reserved).
    pub accepted: u64,
    /// Admission requests the CAC rejected (no feasible reservation).
    pub rejected: u64,
}

impl AdmissionTally {
    /// Total admission requests presented to the CAC.
    pub fn attempted(&self) -> u64 {
        self.accepted + self.rejected
    }

    /// Fraction of requests rejected (0 when none were made).
    pub fn reject_rate(&self) -> f64 {
        if self.attempted() == 0 {
            0.0
        } else {
            self.rejected as f64 / self.attempted() as f64
        }
    }
}

/// The lifetime of one connection: its first emission cycle and, for
/// churn departures, the cycle from which it emits nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveWindow {
    /// First router cycle at which the connection may emit.
    pub start: RouterCycle,
    /// Departure cycle (`None` = active for the whole run).
    pub end: Option<RouterCycle>,
}

impl ActiveWindow {
    /// A window covering the whole run.
    pub fn always() -> Self {
        ActiveWindow {
            start: RouterCycle(0),
            end: None,
        }
    }

    /// True if the connection is active at `cycle`.
    pub fn contains(&self, cycle: u64) -> bool {
        self.start.0 <= cycle && self.end.map(|e| cycle < e.0).unwrap_or(true)
    }
}

/// An assembled workload: admitted connections plus their flit sources.
pub struct Workload {
    /// Admitted connections; `connections[i].id.idx() == i`.
    pub connections: Vec<ConnectionSpec>,
    /// Flit sources, one per connection, same order.
    pub sources: Vec<BoxedSource>,
    /// Per-connection activation/departure windows, same order (the
    /// paper's builders produce `always()`; mix builders with ramp or
    /// churn schedules record the real lifetimes here).
    pub windows: Vec<ActiveWindow>,
    /// Achieved offered load fraction per input link (average bandwidth /
    /// link bandwidth).
    pub per_input_load: Vec<f64>,
    /// CAC accept/reject counts from construction.
    pub admission: AdmissionTally,
}

impl Workload {
    /// Mean offered load across input links.
    pub fn mean_load(&self) -> f64 {
        if self.per_input_load.is_empty() {
            return 0.0;
        }
        self.per_input_load.iter().sum::<f64>() / self.per_input_load.len() as f64
    }

    /// Number of connections active at `cycle` per their declared
    /// windows.
    pub fn active_at(&self, cycle: u64) -> usize {
        self.windows.iter().filter(|w| w.contains(cycle)).count()
    }

    /// Number of connections.
    pub fn len(&self) -> usize {
        self.connections.len()
    }

    /// True if no connections were admitted.
    pub fn is_empty(&self) -> bool {
        self.connections.is_empty()
    }

    /// Connections of a given class.
    pub fn by_class(&self, class: TrafficClass) -> impl Iterator<Item = &ConnectionSpec> {
        self.connections.iter().filter(move |c| c.class == class)
    }

    /// Append unreserved best-effort traffic on top of the admitted
    /// connections (paper §1: "allocating the remaining bandwidth to
    /// best-effort traffic").
    ///
    /// For each input port, one best-effort connection per output port is
    /// created (Virtual Cut-Through messages are routed per message; a
    /// per-(input, output) connection pair models that spread), together
    /// offering `per_link_load` of the link bandwidth as Poisson messages
    /// of `mean_flits` mean length.  Best-effort connections make **no**
    /// reservation: `reserved_slots == 0`, so the SIABP bias keeps them
    /// below every reserved class until they have aged.
    pub fn append_best_effort(
        &mut self,
        ports: usize,
        per_link_load: f64,
        mean_flits: f64,
        tb: &TimeBase,
        rng: &mut SimRng,
    ) {
        assert!((0.0..=1.0).contains(&per_link_load));
        if per_link_load == 0.0 {
            return;
        }
        let per_pair = Bandwidth::bps(per_link_load * tb.link_bits_per_sec / ports as f64);
        for input in 0..ports {
            for output in 0..ports {
                let id = ConnectionId(self.connections.len() as u32);
                let src_rng = rng.split(0xBE57 + id.0 as u64);
                let phase = RouterCycle(rng.below(100_000));
                self.connections.push(ConnectionSpec {
                    id,
                    input,
                    output,
                    class: TrafficClass::BestEffort,
                    qos: QosSpec::cbr(per_pair),
                    kind: ConnectionKind::Cbr,
                    reserved_slots: 0,
                });
                self.sources.push(Box::new(BestEffortSource::new(
                    id, per_pair, mean_flits, phase, tb, src_rng,
                )));
                self.windows.push(ActiveWindow::always());
            }
        }
    }
}

/// Maximum consecutive placement failures before a builder gives up on an
/// input link (the link is effectively full at that point).
const MAX_PLACEMENT_FAILURES: usize = 64;

/// One admission made by [`fill_inputs`]: the link pair, the reserved
/// slots and the builder's candidate.
struct Placed<C> {
    input: usize,
    output: usize,
    slots: u64,
    candidate: C,
}

/// The §5 placement policy every load-targeted builder shares: fill each
/// input link in turn until its admitted load reaches `target_load`.
///
/// `draw(rng, admitted)` proposes a candidate with its average bandwidth
/// and the peak to present to the CAC (`admitted` counts this loop's
/// admissions so far).  A candidate that would overshoot the target by
/// more than half its own bandwidth is skipped; otherwise a uniform
/// output is drawn, the CAC is asked, and every admission goes to
/// `on_admit`.  An input is given up after [`MAX_PLACEMENT_FAILURES`]
/// consecutive skips or rejections.  Returns the ledger and its tally.
fn fill_inputs<C>(
    ports: usize,
    tb: &TimeBase,
    round: RoundConfig,
    target_load: f64,
    rng: &mut SimRng,
    mut draw: impl FnMut(&mut SimRng, usize) -> (C, Bandwidth, Bandwidth),
    mut on_admit: impl FnMut(&mut SimRng, Placed<C>),
) -> (AdmissionControl, AdmissionTally) {
    let mut cac = AdmissionControl::new(ports, round, *tb);
    let mut tally = AdmissionTally::default();
    let link = Bandwidth::bps(tb.link_bits_per_sec);
    for input in 0..ports {
        let mut failures = 0;
        while cac.input_load(input) < target_load && failures < MAX_PLACEMENT_FAILURES {
            let (candidate, avg, peak) = draw(rng, tally.accepted as usize);
            // Do not overshoot the target by a whole connection: skip a
            // candidate whose bandwidth would push load far past the goal.
            let frac = avg.fraction_of(link);
            if cac.input_load(input) + frac > target_load + frac * 0.5 {
                failures += 1;
                continue;
            }
            let output = rng.index(ports);
            match cac.admit(input, output, avg, peak) {
                Ok(slots) => {
                    tally.accepted += 1;
                    failures = 0;
                    on_admit(
                        rng,
                        Placed {
                            input,
                            output,
                            slots,
                            candidate,
                        },
                    );
                }
                Err(_) => {
                    tally.rejected += 1;
                    failures += 1;
                }
            }
        }
    }
    (cac, tally)
}

/// The three index-aligned vectors a builder fills.
#[derive(Default)]
struct Assembly {
    connections: Vec<ConnectionSpec>,
    sources: Vec<BoxedSource>,
    windows: Vec<ActiveWindow>,
}

impl Assembly {
    fn next_id(&self) -> ConnectionId {
        ConnectionId(self.connections.len() as u32)
    }

    /// Push a CBR connection for `placed` whose first flit lands a
    /// uniform phase (one inter-arrival time wide) after its window
    /// opens; a departing window wraps the source so it stops emitting.
    fn push_cbr(
        &mut self,
        tb: &TimeBase,
        rng: &mut SimRng,
        placed: &Placed<(TrafficClass, Bandwidth)>,
        window: ActiveWindow,
    ) {
        let id = self.next_id();
        let (class, bw) = placed.candidate;
        let iat = tb.flit_iat_router_cycles(bw.as_bps());
        let phase = RouterCycle(window.start.0 + (rng.uniform() * iat) as u64);
        self.connections.push(ConnectionSpec {
            id,
            input: placed.input,
            output: placed.output,
            class,
            qos: QosSpec::cbr(bw),
            kind: ConnectionKind::Cbr,
            reserved_slots: placed.slots,
        });
        let cbr: BoxedSource = Box::new(CbrSource::new(id, bw, phase, tb));
        self.sources.push(match window.end {
            Some(end) => Box::new(crate::source::ExpiringSource::new(cbr, end)),
            None => cbr,
        });
        self.windows.push(window);
    }

    fn finish(self, cac: &AdmissionControl, ports: usize, admission: AdmissionTally) -> Workload {
        Workload {
            connections: self.connections,
            sources: self.sources,
            windows: self.windows,
            per_input_load: (0..ports).map(|i| cac.input_load(i)).collect(),
            admission,
        }
    }
}

/// Builder for the paper's CBR mixes (§5.1): random mixture of 64 Kbps,
/// 1.54 Mbps and 55 Mbps connections.
#[derive(Debug, Clone)]
pub struct CbrMixBuilder {
    ports: usize,
    tb: TimeBase,
    round: RoundConfig,
    target_load: f64,
    classes: Vec<(TrafficClass, Bandwidth, f64)>,
}

impl CbrMixBuilder {
    /// Builder for a router with `ports` links, using the paper's three
    /// classes with equal pick probability.
    pub fn new(ports: usize, tb: TimeBase, round: RoundConfig) -> Self {
        CbrMixBuilder {
            ports,
            tb,
            round,
            target_load: 0.5,
            classes: vec![
                (TrafficClass::CbrLow, Bandwidth::kbps(64.0), 1.0),
                (TrafficClass::CbrMedium, Bandwidth::mbps(1.54), 1.0),
                (TrafficClass::CbrHigh, Bandwidth::mbps(55.0), 1.0),
            ],
        }
    }

    /// Set the target offered load per input link (fraction of link
    /// bandwidth).
    pub fn target_load(mut self, load: f64) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be a fraction");
        self.target_load = load;
        self
    }

    /// Replace the class mix: `(class, bandwidth, weight)` triples.
    pub fn classes(mut self, classes: Vec<(TrafficClass, Bandwidth, f64)>) -> Self {
        assert!(!classes.is_empty());
        self.classes = classes;
        self
    }

    fn pick_class(&self, rng: &mut SimRng) -> (TrafficClass, Bandwidth) {
        let total: f64 = self.classes.iter().map(|c| c.2).sum();
        let mut x = rng.uniform() * total;
        for &(class, bw, w) in &self.classes {
            if x < w {
                return (class, bw);
            }
            x -= w;
        }
        let last = self.classes.last().unwrap();
        (last.0, last.1)
    }

    /// [`fill_inputs`] over the class mix, each candidate admitted at its
    /// constant rate.
    fn fill_with_classes(
        &self,
        rng: &mut SimRng,
        on_admit: impl FnMut(&mut SimRng, Placed<(TrafficClass, Bandwidth)>),
    ) -> (AdmissionControl, AdmissionTally) {
        let draw = |rng: &mut SimRng, _| {
            let (class, bw) = self.pick_class(rng);
            ((class, bw), bw, bw)
        };
        fill_inputs(
            self.ports,
            &self.tb,
            self.round,
            self.target_load,
            rng,
            draw,
            on_admit,
        )
    }

    /// Assemble the workload.
    pub fn build(&self, rng: &mut SimRng) -> Workload {
        let mut out = Assembly::default();
        let (cac, admission) = self.fill_with_classes(rng, |rng, placed| {
            out.push_cbr(&self.tb, rng, &placed, ActiveWindow::always())
        });
        out.finish(&cac, self.ports, admission)
    }
}

/// Which injection model a VBR workload uses (the BB peak rate is
/// derived from the generated traces, so the builder owns the choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectionKind {
    /// Smooth-Rate (Fig. 7b).
    SmoothRate,
    /// Back-to-Back (Fig. 7a), with the peak sized for the largest
    /// possible frame across the configured sequences.
    BackToBack,
}

impl InjectionKind {
    /// Report label ("SR" / "BB").
    pub fn label(self) -> &'static str {
        match self {
            InjectionKind::SmoothRate => "SR",
            InjectionKind::BackToBack => "BB",
        }
    }
}

/// One breakpoint of a ramp schedule: by `at_cycle`, `fraction` of the
/// admitted connections must be active.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RampStepConfig {
    /// Router cycle of the breakpoint.
    pub at_cycle: u64,
    /// Fraction of admitted connections active from this breakpoint on
    /// (non-decreasing across steps; the last step must reach 1.0).
    pub fraction: f64,
}

/// A churn window: a fraction of the base connections depart during the
/// window and a fraction of extra connections arrive, both spread
/// deterministically across `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// First router cycle of the churn window.
    pub start: u64,
    /// One past the last router cycle of the window.
    pub end: u64,
    /// Fraction of the base connections that depart during the window.
    pub departures: f64,
    /// Extra offered load arriving during the window, as a fraction of
    /// the base target load (the arrivals go through the CAC like any
    /// other admission request).
    pub arrivals: f64,
}

impl ChurnConfig {
    /// Check the window is non-empty and both fractions lie in `[0, 1]`.
    pub fn check(&self) -> Result<(), ConfigError> {
        let (start, end) = (self.start, self.end);
        ensure!(end > start; "end", "churn window {start}..{end} is empty");
        within_span(end, "end")?;
        for (x, field) in [(self.departures, "departures"), (self.arrivals, "arrivals")] {
            ensure!((0.0..=1.0).contains(&x); field,
                "churn {field} {x} must be a fraction in [0, 1]");
        }
        Ok(())
    }
}

/// Builder for the paper's VBR workloads (§5.2): MPEG-2 streams with
/// random sequence choice, random destinations, and random GOP alignment.
#[derive(Debug, Clone)]
pub struct VbrMixBuilder {
    ports: usize,
    tb: TimeBase,
    round: RoundConfig,
    target_load: f64,
    gops: usize,
    injection: InjectionKind,
    sequences: Vec<SequenceParams>,
    enforce_peak: bool,
}

impl VbrMixBuilder {
    /// Builder over the standard Table-1 sequences, Smooth-Rate injection,
    /// 4 GOPs per connection.
    pub fn new(ports: usize, tb: TimeBase, round: RoundConfig) -> Self {
        VbrMixBuilder {
            ports,
            tb,
            round,
            target_load: 0.5,
            gops: 4,
            injection: InjectionKind::SmoothRate,
            sequences: standard_sequences(),
            enforce_peak: false,
        }
    }

    /// Set the target generated load per input link.
    pub fn target_load(mut self, load: f64) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be a fraction");
        self.target_load = load;
        self
    }

    /// Number of GOPs each connection transmits (paper: 4).
    pub fn gops(mut self, gops: usize) -> Self {
        assert!(gops > 0);
        self.gops = gops;
        self
    }

    /// Select the injection model.
    pub fn injection(mut self, injection: InjectionKind) -> Self {
        self.injection = injection;
        self
    }

    /// Enforce the peak-bandwidth admission test (§2).  Off by default for
    /// the load-sweep experiments, which deliberately drive the router past
    /// the region a conservative concurrency factor would admit; the
    /// `cac_tight` / `cac_loose` workload packs turn it on.
    pub fn enforce_peak(mut self, on: bool) -> Self {
        self.enforce_peak = on;
        self
    }

    /// The Back-to-Back peak rate implied by the configured sequences: the
    /// largest clamped frame must fit within one frame time.
    pub fn bb_peak(&self) -> Bandwidth {
        let max_bits = self
            .sequences
            .iter()
            .map(|s| s.max_bits)
            .fold(0.0f64, f64::max);
        Bandwidth::bps(max_bits / FRAME_TIME_SECS)
    }

    fn model(&self) -> InjectionModel {
        match self.injection {
            InjectionKind::SmoothRate => InjectionModel::SmoothRate,
            InjectionKind::BackToBack => {
                let max_bits = self
                    .sequences
                    .iter()
                    .map(|s| s.max_bits)
                    .fold(0.0f64, f64::max);
                let max_flits = (max_bits / self.tb.flit_bits as f64).ceil() as u64;
                InjectionModel::back_to_back_for(max_flits, FRAME_TIME_SECS, &self.tb)
            }
        }
    }

    /// Assemble the workload.
    pub fn build(&self, rng: &mut SimRng) -> Workload {
        let model = self.model();
        let gop_time_rc =
            crate::mpeg::GOP_PATTERN.len() as f64 * FRAME_TIME_SECS / self.tb.router_cycle_secs();
        // Each candidate's trace comes from its own stream, split off by
        // the index the connection would get.
        let draw = |rng: &mut SimRng, admitted: usize| {
            let seq_idx = rng.index(self.sequences.len());
            let mut trace_rng = rng.split(admitted as u64 + 1);
            let params = &self.sequences[seq_idx];
            let trace = MpegTrace::generate(params, self.gops, &self.tb, &mut trace_rng);
            let stats = trace.stats();
            let avg = stats.avg_bandwidth;
            let peak = match self.injection {
                InjectionKind::SmoothRate => stats.peak_bandwidth,
                InjectionKind::BackToBack => self.bb_peak(),
            };
            let admit_peak = if self.enforce_peak { peak } else { avg };
            ((seq_idx, trace, avg, peak), avg, admit_peak)
        };
        let mut out = Assembly::default();
        let (cac, admission) = fill_inputs(
            self.ports,
            &self.tb,
            self.round,
            self.target_load,
            rng,
            draw,
            |rng, placed| {
                let (sequence, trace, avg, peak) = placed.candidate;
                let id = out.next_id();
                // "randomly aligned, that is, they start at a random
                // time within a GOP time" (§5.2)
                let start = RouterCycle((rng.uniform() * gop_time_rc) as u64);
                out.connections.push(ConnectionSpec {
                    id,
                    input: placed.input,
                    output: placed.output,
                    class: TrafficClass::Vbr,
                    qos: QosSpec::vbr(avg, peak),
                    kind: ConnectionKind::Vbr { sequence },
                    reserved_slots: placed.slots,
                });
                out.sources
                    .push(Box::new(VbrSource::new(id, trace, model, start, &self.tb)));
                out.windows.push(ActiveWindow::always());
            },
        );
        out.finish(&cac, self.ports, admission)
    }
}

/// Builder for declarative mixed workloads (the workload-language packs):
/// a weighted CBR class mix like [`CbrMixBuilder`], optionally with a
/// ramp schedule (connections activate in staged waves) and a churn
/// window (a fraction of the base connections departs mid-run while
/// replacement arrivals are admitted on top).
///
/// Ramp semantics: connection `i` in global admission order activates at
/// the first step `(at_cycle, fraction)` with `i < round(fraction · n)`,
/// so the number of active connections at each declared breakpoint is
/// exactly `round(fraction · n)` (clamped to `n`).  Churn departures pick
/// `round(departures · n)` base connections at evenly spaced indices and
/// retire them at evenly spaced cycles inside the window; arrivals admit
/// `round(arrivals · n)` extra connections through the CAC with start
/// cycles staggered across the window.
#[derive(Debug, Clone)]
pub struct MixWorkloadBuilder {
    /// Geometry, load target and class mix of the base population.
    mix: CbrMixBuilder,
    /// Ramp breakpoints, non-decreasing in cycle and fraction.
    ramp: Vec<RampStepConfig>,
    /// Optional churn window.
    churn: Option<ChurnConfig>,
}

impl MixWorkloadBuilder {
    /// Builder with the paper's default three-class mix and no schedule.
    pub fn new(ports: usize, tb: TimeBase, round: RoundConfig) -> Self {
        MixWorkloadBuilder {
            mix: CbrMixBuilder::new(ports, tb, round),
            ramp: Vec::new(),
            churn: None,
        }
    }

    /// Set the target offered load per input link.
    pub fn target_load(mut self, load: f64) -> Self {
        self.mix = self.mix.target_load(load);
        self
    }

    /// Replace the class mix: `(class, bandwidth, weight)` triples.
    pub fn classes(mut self, classes: Vec<(TrafficClass, Bandwidth, f64)>) -> Self {
        self.mix = self.mix.classes(classes);
        self
    }

    /// Install a ramp schedule.
    pub fn ramp(mut self, steps: Vec<RampStepConfig>) -> Self {
        self.ramp = steps;
        self
    }

    /// Install a churn window.  Panics with [`ChurnConfig::check`]'s
    /// message on an empty window or a fraction outside `[0, 1]`.
    pub fn churn(mut self, churn: ChurnConfig) -> Self {
        if let Err(e) = churn.check() {
            panic!("{e}");
        }
        self.churn = Some(churn);
        self
    }

    /// Activation cycle of base connection `index` out of `total` under
    /// the configured ramp (cycle 0 when no ramp is set).
    pub fn activation_of(&self, total: usize, index: usize) -> u64 {
        for s in &self.ramp {
            if index < ((s.fraction * total as f64).round() as usize).min(total) {
                return s.at_cycle;
            }
        }
        self.ramp.last().map_or(0, |s| s.at_cycle)
    }

    /// Assemble the workload.
    pub fn build(&self, rng: &mut SimRng) -> Workload {
        let (ports, tb) = (self.mix.ports, &self.mix.tb);
        // Phase 1: admit the base mix exactly like `CbrMixBuilder`, but
        // defer source construction until the base population is known
        // (ramp activation depends on the final count).
        let mut base = Vec::new();
        let (mut cac, mut admission) = self
            .mix
            .fill_with_classes(rng, |_, placed| base.push(placed));
        let n = base.len();
        // Phase 2: departure plan — evenly spaced base indices retire at
        // evenly spaced cycles inside the churn window.
        let mut ends = vec![None; n];
        if let Some(ChurnConfig {
            start,
            end,
            departures,
            ..
        }) = self.churn
        {
            let k = (departures * n as f64).round() as usize;
            let span = end - start;
            for i in 0..k.min(n) {
                let idx = (i * n) / k.max(1);
                let at = start + ((i as u64 + 1) * span) / (k as u64 + 1);
                ends[idx] = Some(RouterCycle(at.max(start + 1)));
            }
        }
        // Phase 3: materialize base connections with ramp/churn windows.
        let mut out = Assembly::default();
        for (i, placed) in base.iter().enumerate() {
            let start = RouterCycle(self.activation_of(n, i));
            // A connection must exist before it can depart.
            let end = ends[i].map(|e| RouterCycle(e.0.max(start.0 + 1)));
            out.push_cbr(tb, rng, placed, ActiveWindow { start, end });
        }
        // Phase 4: churn arrivals — extra admissions on top of the base
        // target, starting at staggered cycles inside the window.
        if let Some(ChurnConfig {
            start,
            end,
            arrivals,
            ..
        }) = self.churn
        {
            let m = (arrivals * n as f64).round() as usize;
            let span = end - start;
            let mut admitted = 0usize;
            let mut failures = 0;
            while admitted < m && failures < MAX_PLACEMENT_FAILURES {
                let (class, bw) = self.mix.pick_class(rng);
                let input = rng.index(ports);
                let output = rng.index(ports);
                match cac.admit(input, output, bw, bw) {
                    Ok(slots) => {
                        admission.accepted += 1;
                        failures = 0;
                        let at = start + ((admitted as u64 + 1) * span) / (m as u64 + 1);
                        admitted += 1;
                        let placed = Placed {
                            input,
                            output,
                            slots,
                            candidate: (class, bw),
                        };
                        let window = ActiveWindow {
                            start: RouterCycle(at),
                            end: None,
                        };
                        out.push_cbr(tb, rng, &placed, window);
                    }
                    Err(_) => {
                        admission.rejected += 1;
                        failures += 1;
                    }
                }
            }
        }
        out.finish(&cac, ports, admission)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tb() -> TimeBase {
        TimeBase::default()
    }

    fn ramp(steps: &[(u64, f64)]) -> Vec<RampStepConfig> {
        steps
            .iter()
            .map(|&(at_cycle, fraction)| RampStepConfig { at_cycle, fraction })
            .collect()
    }

    fn churn(start: u64, end: u64, departures: f64, arrivals: f64) -> ChurnConfig {
        ChurnConfig {
            start,
            end,
            departures,
            arrivals,
        }
    }

    #[test]
    fn cbr_mix_hits_target_load() {
        let mut rng = SimRng::seed_from_u64(1);
        let w = CbrMixBuilder::new(4, tb(), RoundConfig::default())
            .target_load(0.7)
            .build(&mut rng);
        assert!(!w.is_empty());
        for (i, &load) in w.per_input_load.iter().enumerate() {
            assert!(
                (0.62..=0.78).contains(&load),
                "input {i} load {load} should be near 0.7"
            );
        }
        assert!((w.mean_load() - 0.7).abs() < 0.06);
    }

    #[test]
    fn cbr_mix_contains_all_classes() {
        let mut rng = SimRng::seed_from_u64(2);
        let w = CbrMixBuilder::new(4, tb(), RoundConfig::default())
            .target_load(0.8)
            .build(&mut rng);
        assert!(w.by_class(TrafficClass::CbrLow).count() > 0);
        assert!(w.by_class(TrafficClass::CbrMedium).count() > 0);
        assert!(w.by_class(TrafficClass::CbrHigh).count() > 0);
    }

    #[test]
    fn cbr_ids_are_dense_and_aligned() {
        let mut rng = SimRng::seed_from_u64(3);
        let w = CbrMixBuilder::new(2, tb(), RoundConfig::default())
            .target_load(0.4)
            .build(&mut rng);
        for (i, (spec, src)) in w.connections.iter().zip(&w.sources).enumerate() {
            assert_eq!(spec.id.idx(), i);
            assert_eq!(src.connection(), spec.id);
        }
    }

    #[test]
    fn cbr_destinations_within_ports() {
        let mut rng = SimRng::seed_from_u64(4);
        let w = CbrMixBuilder::new(4, tb(), RoundConfig::default())
            .target_load(0.6)
            .build(&mut rng);
        assert!(w.connections.iter().all(|c| c.output < 4 && c.input < 4));
        // Uniform destinations: every output is used at this load.
        let mut used = [false; 4];
        for c in &w.connections {
            used[c.output] = true;
        }
        assert!(used.iter().all(|&u| u));
    }

    #[test]
    fn cbr_reserved_slots_set() {
        let mut rng = SimRng::seed_from_u64(5);
        let w = CbrMixBuilder::new(2, tb(), RoundConfig::default())
            .target_load(0.3)
            .build(&mut rng);
        for c in &w.connections {
            assert!(c.reserved_slots >= 1);
            if c.class == TrafficClass::CbrHigh {
                assert_eq!(c.reserved_slots, 727);
            }
        }
    }

    #[test]
    fn vbr_mix_hits_target_load() {
        let mut rng = SimRng::seed_from_u64(6);
        let w = VbrMixBuilder::new(4, tb(), RoundConfig::default())
            .target_load(0.6)
            .gops(1)
            .build(&mut rng);
        assert!(!w.is_empty());
        assert!(
            (w.mean_load() - 0.6).abs() < 0.06,
            "mean load {}",
            w.mean_load()
        );
        assert!(w.connections.iter().all(|c| c.class == TrafficClass::Vbr));
    }

    #[test]
    fn vbr_sources_are_finite() {
        let mut rng = SimRng::seed_from_u64(7);
        let w = VbrMixBuilder::new(2, tb(), RoundConfig::default())
            .target_load(0.3)
            .gops(2)
            .build(&mut rng);
        for s in &w.sources {
            let total = s.total_flits().expect("VBR sources are finite");
            assert!(total > 0);
        }
    }

    #[test]
    fn vbr_bb_peak_covers_largest_frame() {
        let b = VbrMixBuilder::new(2, tb(), RoundConfig::default());
        let peak = b.bb_peak();
        let max_bits = standard_sequences()
            .iter()
            .map(|s| s.max_bits)
            .fold(0.0, f64::max);
        assert!((peak.as_bps() - max_bits / FRAME_TIME_SECS).abs() < 1.0);
    }

    #[test]
    fn vbr_enforce_peak_limits_admission() {
        let round = RoundConfig {
            cycles_per_round: 16_384,
            concurrency_factor: 1.5,
        };
        let mut rng_a = SimRng::seed_from_u64(8);
        let unconstrained = VbrMixBuilder::new(2, tb(), round)
            .target_load(0.8)
            .gops(1)
            .build(&mut rng_a);
        let mut rng_b = SimRng::seed_from_u64(8);
        let constrained = VbrMixBuilder::new(2, tb(), round)
            .target_load(0.8)
            .gops(1)
            .enforce_peak(true)
            .build(&mut rng_b);
        assert!(
            constrained.mean_load() < unconstrained.mean_load(),
            "peak test should limit admitted load: {} vs {}",
            constrained.mean_load(),
            unconstrained.mean_load()
        );
    }

    #[test]
    fn mix_builder_without_schedule_is_always_active() {
        let mut rng = SimRng::seed_from_u64(9);
        let w = MixWorkloadBuilder::new(4, tb(), RoundConfig::default())
            .target_load(0.6)
            .build(&mut rng);
        assert!(!w.is_empty());
        assert_eq!(w.windows.len(), w.connections.len());
        assert!(w.windows.iter().all(|&win| win == ActiveWindow::always()));
        assert_eq!(w.active_at(0), w.len());
        assert!((w.mean_load() - 0.6).abs() < 0.06);
    }

    #[test]
    fn mix_builder_ramp_counts_match_breakpoints() {
        let mut rng = SimRng::seed_from_u64(10);
        let steps = [(0u64, 0.25), (5_000u64, 0.5), (10_000u64, 1.0)];
        let w = MixWorkloadBuilder::new(4, tb(), RoundConfig::default())
            .target_load(0.7)
            .ramp(ramp(&steps))
            .build(&mut rng);
        let n = w.len();
        for &(at, fraction) in &steps {
            let expect = ((fraction * n as f64).round() as usize).min(n);
            assert_eq!(w.active_at(at), expect, "breakpoint at cycle {at}");
            if at > 0 {
                let before = steps
                    .iter()
                    .filter(|s| s.0 < at)
                    .map(|s| ((s.1 * n as f64).round() as usize).min(n))
                    .max()
                    .unwrap_or(0);
                assert_eq!(w.active_at(at - 1), before, "just before cycle {at}");
            }
        }
    }

    #[test]
    fn mix_builder_churn_departures_and_arrivals() {
        let mut rng = SimRng::seed_from_u64(11);
        let w = MixWorkloadBuilder::new(4, tb(), RoundConfig::default())
            .target_load(0.5)
            .churn(churn(8_000, 16_000, 0.25, 0.25))
            .build(&mut rng);
        let departing = w.windows.iter().filter(|win| win.end.is_some()).count();
        let late_starts = w.windows.iter().filter(|win| win.start.0 > 0).count();
        assert!(departing > 0, "expected departures");
        assert!(late_starts > 0, "expected arrivals");
        for win in &w.windows {
            if let Some(end) = win.end {
                assert!(end.0 > win.start.0);
                assert!((8_000..=16_000).contains(&end.0));
            }
            if win.start.0 > 0 {
                assert!((8_000..=16_000).contains(&win.start.0));
            }
        }
        // Departures shrink the active population after the window.
        assert_eq!(w.active_at(20_000), w.len() - departing);
        // Departing sources stop emitting at their declared end.  A
        // `None` peek means the wrapper already reads as exhausted —
        // the source's first emission would land past its departure.
        for (win, src) in w.windows.iter().zip(&w.sources) {
            if let Some(end) = win.end {
                if let Some(next) = src.peek_next() {
                    assert!(next < end);
                }
            }
        }
    }

    #[test]
    fn mix_builder_is_deterministic() {
        let build = || {
            let mut rng = SimRng::seed_from_u64(12);
            MixWorkloadBuilder::new(4, tb(), RoundConfig::default())
                .target_load(0.6)
                .ramp(ramp(&[(0, 0.5), (4_000, 1.0)]))
                .churn(churn(8_000, 12_000, 0.2, 0.1))
                .build(&mut rng)
        };
        let a = build();
        let b = build();
        assert_eq!(a.connections, b.connections);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.per_input_load, b.per_input_load);
        assert_eq!(a.admission, b.admission);
    }

    #[test]
    fn workload_is_deterministic() {
        let build = || {
            let mut rng = SimRng::seed_from_u64(42);
            CbrMixBuilder::new(4, tb(), RoundConfig::default())
                .target_load(0.5)
                .build(&mut rng)
        };
        let a = build();
        let b = build();
        assert_eq!(a.connections, b.connections);
        assert_eq!(a.per_input_load, b.per_input_load);
    }
}
