//! Maximum-weight matching (MWM) — the optimality-frontier oracle.
//!
//! The paper compares COA against heuristic rivals (WFA, iSLIP, PIM) but
//! never asks how close any of them get to the *optimal* matching.  The
//! linear-algebraic MWM→iSLIP tutorial (PAPERS.md) frames arbitration as
//! picking the service matrix `S` maximizing `⟨Q, S⟩` over permutation
//! matrices; this module implements that oracle in two forms:
//!
//! * **Exact** ([`MwmArbiter::new`]) — the Jonker–Volgenant shortest
//!   augmenting-path form of the Hungarian algorithm, O(n³) over a dense
//!   weight matrix, solved exactly up to [`EXACT_PORT_LIMIT`] ports.
//!   Beyond that the kernel falls back to the greedy bound below: an n³
//!   float sweep at 256 ports is an offline solver, not a per-cycle
//!   arbiter, and the oracle's conformance role only needs the paper's
//!   small switches.
//! * **Greedy ½-approximation** ([`MwmArbiter::approx`]) — sort all
//!   candidate edges by descending weight, take every conflict-free edge.
//!   The classic greedy-matching bound guarantees at least half the
//!   optimal weight; `tests/arbiter_properties.rs` re-checks both the
//!   exact kernel's optimality (against brute-force enumeration) and this
//!   bound on random candidate sets.
//!
//! ## Weight function
//!
//! The weight of edge `(input, output)` is derived from the priority of
//! the pair's best (lowest-level) candidate, normalized into `[0, 1]`
//! over the cycle's priority range and compressed below the size unit
//! (see [`edge_weight`]):
//!
//! ```text
//! w = 1 + q / (ports + 1),   q = (priority − min) / (max − min)
//! ```
//!
//! Every real edge weighs at least 1 and strictly less than
//! `1 + 1/ports`, so a matching with more edges *always* outweighs one
//! with fewer — the weight order is lexicographic **(matching size,
//! total normalized priority)**.  That is the frontier the practical
//! arbiters chase: maximal throughput first, best priority service
//! within it.  A plain `w = priority` objective would let one heavy edge
//! outweigh two light ones and starve throughput, which no arbiter in
//! the paper would accept.  Missing edges weigh 0 in the dense matrix;
//! every real edge outweighs them, so the maximum-weight *perfect*
//! matching over the completed matrix restricts to a maximum-weight
//! matching over the real edges.
//!
//! Both paths are fully deterministic (ties break toward the lowest
//! index) and consume **zero RNG draws**, which makes the oracle's RNG
//! stream trivially identical to its golden transcription
//! ([`crate::reference::ReferenceMwm`]).

use crate::candidate::{CandidateSet, MAX_PORTS};
use crate::matching::{Grant, Matching};
use crate::portset::{words_for_ports, PortSet};
use crate::scheduler::{KernelProbe, KernelStats, SwitchScheduler};
use mmr_sim::rng::SimRng;

/// Largest port count the exact oracle solves with the Hungarian
/// algorithm; larger switches silently use the greedy ½-approximation
/// (see the module docs for why).
pub const EXACT_PORT_LIMIT: usize = 64;

/// Weight every real edge carries before its normalized priority is
/// added (see [`edge_weight`]): the "one grant" size unit.
pub const EDGE_BASE: f64 = 1.0;

/// The minimum and maximum candidate priorities in `cs` — the
/// normalization range of [`edge_weight`].  `(0, 0)` for an empty set.
pub fn priority_bounds(cs: &CandidateSet) -> (f64, f64) {
    let mut floor = f64::INFINITY;
    let mut ceil = f64::NEG_INFINITY;
    for c in cs.iter() {
        floor = floor.min(c.priority.0);
        ceil = ceil.max(c.priority.0);
    }
    if floor.is_finite() {
        (floor, ceil)
    } else {
        (0.0, 0.0)
    }
}

/// `priority` normalized into `[0, 1]` over the bounds `(floor, ceil)`
/// and compressed under the size unit: `EDGE_BASE + q / (ports + 1)`.
/// This is the weight-function *definition*; the optimized kernel, the
/// golden reference and the property tests all call it so their f64
/// arithmetic is bit-identical.
#[inline]
pub fn shaped_weight(priority: f64, floor: f64, ceil: f64, ports: usize) -> f64 {
    let span = ceil - floor;
    let q = if span > 0.0 {
        (priority - floor) / span
    } else {
        0.0
    };
    EDGE_BASE + q / (ports + 1) as f64
}

/// Total frontier weight of matching `m` against `cs`: the sum over the
/// matched pairs of each edge's weight — at least [`EDGE_BASE`], strictly
/// under `EDGE_BASE + 1/ports`, increasing in the best candidate's
/// priority — so total weight orders matchings lexicographically by
/// (size, priority).  Works for any arbiter's matching.
pub fn matching_weight(cs: &CandidateSet, m: &Matching) -> f64 {
    let (floor, ceil) = priority_bounds(cs);
    m.grants()
        .map(|g| {
            let c = cs
                .best_for(g.input, g.output)
                .expect("granted pair has a candidate");
            shaped_weight(c.priority.0, floor, ceil, cs.ports())
        })
        .sum()
}

/// Maximum-weight matching arbiter: exact Hungarian oracle or greedy
/// ½-approximation (see the module docs).
#[derive(Debug, Clone)]
pub struct MwmArbiter {
    ports: usize,
    words: usize,
    /// Exact oracle when true (still greedy past [`EXACT_PORT_LIMIT`]).
    exact: bool,
    /// Dense shifted weight matrix `w[input * ports + output]` (exact
    /// path only; empty otherwise).
    w: Vec<f64>,
    /// Hungarian scratch, `ports + 1` entries each — index 0 is the
    /// virtual root column of the augmenting-path search.
    pot_row: Vec<f64>,
    pot_col: Vec<f64>,
    col_to_row: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
    /// Greedy scratch: packed `(inverted weight key, input, output)`
    /// edges.  Starts empty and reaches its high-water mark during
    /// warm-up, like the Greedy kernel's sort buffer.
    keyed: Vec<u128>,
    probe: KernelProbe,
}

impl MwmArbiter {
    /// The exact MWM oracle for `ports` ports (greedy fallback past
    /// [`EXACT_PORT_LIMIT`]).
    pub fn new(ports: usize) -> Self {
        Self::with_mode(ports, true)
    }

    /// The greedy ½-approximate MWM at every width.
    pub fn approx(ports: usize) -> Self {
        Self::with_mode(ports, false)
    }

    fn with_mode(ports: usize, exact: bool) -> Self {
        assert!(
            ports > 0 && ports <= MAX_PORTS,
            "ports must be in 1..={MAX_PORTS}"
        );
        let hungarian = exact && ports <= EXACT_PORT_LIMIT;
        let n1 = if hungarian { ports + 1 } else { 0 };
        MwmArbiter {
            ports,
            words: words_for_ports(ports),
            exact,
            w: vec![0.0; if hungarian { ports * ports } else { 0 }],
            pot_row: vec![0.0; n1],
            pot_col: vec![0.0; n1],
            col_to_row: vec![0; n1],
            way: vec![0; n1],
            minv: vec![0.0; n1],
            used: vec![false; n1],
            keyed: Vec::new(),
            probe: KernelProbe::default(),
        }
    }

    /// True when this instance runs the Hungarian solver (exact mode at
    /// a port count within [`EXACT_PORT_LIMIT`]).
    pub fn solves_exact(&self) -> bool {
        self.exact && self.ports <= EXACT_PORT_LIMIT
    }

    /// Exact path.  Only instantiated single-word: [`EXACT_PORT_LIMIT`]
    /// is 64, so `words == 1` whenever the solver runs.
    fn run_exact(&mut self, cs: &CandidateSet, out: &mut Matching) {
        let n = self.ports;
        out.clear();
        // Build the dense weight matrix: best-candidate priority per
        // requested (input, output) pair.
        self.w.fill(0.0);
        let mut floor = f64::INFINITY;
        let mut ceil = f64::NEG_INFINITY;
        let mut edges = 0u64;
        for input in 0..n {
            let mut outs = cs.output_mask::<1>(input);
            while let Some(output) = outs.take_lowest() {
                let c = cs
                    .best_for(input, output)
                    .expect("masked edge has a candidate");
                self.w[input * n + output] = c.priority.0;
                floor = floor.min(c.priority.0);
                ceil = ceil.max(c.priority.0);
                edges += 1;
            }
        }
        if edges == 0 {
            self.probe.matched(0);
            return;
        }
        // Shape real edges into [EDGE_BASE, EDGE_BASE + 1/(n+1)];
        // missing edges stay 0.
        let mut maxw = 0.0f64;
        for input in 0..n {
            let mut outs = cs.output_mask::<1>(input);
            while let Some(output) = outs.take_lowest() {
                let cell = &mut self.w[input * n + output];
                *cell = shaped_weight(*cell, floor, ceil, n);
                maxw = maxw.max(*cell);
            }
        }
        // Jonker–Volgenant shortest augmenting paths over the minimized
        // cost `maxw − w` (non-negative).  1-indexed rows (inputs) and
        // columns (outputs); column 0 is the virtual root.  Ties in the
        // Dijkstra scan break toward the lowest column, so the solver is
        // deterministic and draw-free.
        self.pot_row.fill(0.0);
        self.pot_col.fill(0.0);
        self.col_to_row.fill(0);
        for row in 1..=n {
            self.col_to_row[0] = row;
            let mut j0 = 0usize;
            self.minv.fill(f64::INFINITY);
            self.used.fill(false);
            loop {
                self.used[j0] = true;
                let i0 = self.col_to_row[j0];
                let mut delta = f64::INFINITY;
                let mut j1 = 0usize;
                for j in 1..=n {
                    if self.used[j] {
                        continue;
                    }
                    let cost = maxw - self.w[(i0 - 1) * n + (j - 1)];
                    let cur = cost - self.pot_row[i0] - self.pot_col[j];
                    if cur < self.minv[j] {
                        self.minv[j] = cur;
                        self.way[j] = j0;
                    }
                    if self.minv[j] < delta {
                        delta = self.minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=n {
                    if self.used[j] {
                        self.pot_row[self.col_to_row[j]] += delta;
                        self.pot_col[j] -= delta;
                    } else {
                        self.minv[j] -= delta;
                    }
                }
                j0 = j1;
                if self.col_to_row[j0] == 0 {
                    break;
                }
            }
            // Augment along the recorded alternating path.
            loop {
                let j1 = self.way[j0];
                self.col_to_row[j0] = self.col_to_row[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
        // Emit grants for the real edges of the perfect matching; pairs
        // assigned through a 0-weight dummy cell stay unmatched.
        for output in 0..n {
            let row = self.col_to_row[output + 1];
            debug_assert!(row != 0, "perfect matching covers every column");
            let input = row - 1;
            if self.w[input * n + output] > 0.0 {
                let (level, c) = cs
                    .best_level_for(input, output)
                    .expect("matched edge has a candidate");
                out.add(Grant {
                    input,
                    output,
                    vc: c.vc,
                    level,
                });
            }
        }
        self.probe.iterations(n as u64);
        self.probe.examined(edges);
        self.probe.matched(out.size() as u64);
        debug_assert!(out.is_consistent_with(cs));
    }

    fn run_greedy<const W: usize>(&mut self, cs: &CandidateSet, out: &mut Matching) {
        let n = self.ports;
        out.clear();
        // Pack every edge as (inverted priority key, input, output): an
        // ascending sort yields descending weight with ascending
        // (input, output) tie order — bit-identical to the reference's
        // comparator sort, since the shift in `edge_weight` preserves
        // the raw priority order.
        self.keyed.clear();
        for input in 0..n {
            let mut outs = cs.output_mask::<W>(input);
            while let Some(output) = outs.take_lowest() {
                let c = cs
                    .best_for(input, output)
                    .expect("masked edge has a candidate");
                let key = ((!c.priority.sort_key() as u128) << 64)
                    | ((input as u128) << 32)
                    | output as u128;
                self.keyed.push(key);
            }
        }
        self.keyed.sort_unstable();
        let mut free_in = PortSet::<W>::full(n);
        let mut free_out = PortSet::<W>::full(n);
        let examined = self.keyed.len() as u64;
        for &key in &self.keyed {
            let input = ((key >> 32) & 0xffff_ffff) as usize;
            let output = (key & 0xffff_ffff) as usize;
            if free_in.contains(input) && free_out.contains(output) {
                let (level, c) = cs
                    .best_level_for(input, output)
                    .expect("keyed edge has a candidate");
                out.add(Grant {
                    input,
                    output,
                    vc: c.vc,
                    level,
                });
                free_in.remove(input);
                free_out.remove(output);
            }
        }
        self.probe.iterations(1);
        self.probe.examined(examined);
        self.probe.matched(out.size() as u64);
        debug_assert!(out.is_consistent_with(cs));
    }
}

impl SwitchScheduler for MwmArbiter {
    fn schedule_into(&mut self, cs: &CandidateSet, _rng: &mut SimRng, out: &mut Matching) {
        assert_eq!(cs.ports(), self.ports);
        if self.solves_exact() {
            debug_assert_eq!(self.words, 1, "exact limit fits one word");
            self.run_exact(cs, out);
        } else {
            match self.words {
                1 => self.run_greedy::<1>(cs, out),
                2 => self.run_greedy::<2>(cs, out),
                _ => self.run_greedy::<4>(cs, out),
            }
        }
    }

    fn name(&self) -> &'static str {
        if self.exact {
            "MWM"
        } else {
            "MWM-approx"
        }
    }

    fn kernel_stats(&self) -> KernelStats {
        self.probe.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{Candidate, Priority};

    /// The frontier weight of edge `(input, output)`: at least
    /// [`EDGE_BASE`], strictly under `EDGE_BASE + 1/ports`, increasing in
    /// the best candidate's priority — so total weight orders matchings
    /// lexicographically by (size, priority).  `None` when no candidate
    /// requests the pair.
    fn edge_weight(cs: &CandidateSet, input: usize, output: usize) -> Option<f64> {
        let (floor, ceil) = priority_bounds(cs);
        cs.best_for(input, output)
            .map(|c| shaped_weight(c.priority.0, floor, ceil, cs.ports()))
    }

    fn cand(input: usize, vc: usize, output: usize, p: f64) -> Candidate {
        Candidate {
            input,
            vc,
            output,
            priority: Priority::new(p),
        }
    }

    fn rng() -> SimRng {
        SimRng::seed_from_u64(7)
    }

    /// The classic greedy-trap instance: the heaviest edge blocks two
    /// edges that together outweigh it.
    fn greedy_trap() -> CandidateSet {
        let mut cs = CandidateSet::new(2, 2);
        cs.set_input(0, &[cand(0, 0, 0, 10.0), cand(0, 1, 1, 9.0)]);
        cs.set_input(1, &[cand(1, 0, 0, 9.0)]);
        cs
    }

    #[test]
    fn exact_beats_greedy_on_the_trap_instance() {
        let cs = greedy_trap();
        let exact = MwmArbiter::new(2).schedule(&cs, &mut rng());
        let greedy = MwmArbiter::approx(2).schedule(&cs, &mut rng());
        assert_eq!(exact.size(), 2, "exact takes both light edges");
        assert_eq!(greedy.size(), 1, "greedy is trapped by the heavy edge");
        let we = matching_weight(&cs, &exact);
        let wg = matching_weight(&cs, &greedy);
        assert!(we > wg, "exact {we} must outweigh greedy {wg}");
        assert!(wg * 2.0 >= we, "greedy keeps the 1/2 bound");
    }

    #[test]
    fn permutation_fully_matched_at_every_width() {
        for ports in [4usize, 64, 100, 256] {
            for exact in [true, false] {
                let mut cs = CandidateSet::new(ports, 1);
                for i in 0..ports {
                    cs.push(cand(i, 0, (i + 1) % ports, 1.0 + i as f64));
                }
                let mut arb = if exact {
                    MwmArbiter::new(ports)
                } else {
                    MwmArbiter::approx(ports)
                };
                let m = arb.schedule(&cs, &mut rng());
                assert_eq!(m.size(), ports, "ports = {ports}, exact = {exact}");
            }
        }
    }

    #[test]
    fn exact_falls_back_to_greedy_past_the_port_limit() {
        assert!(MwmArbiter::new(EXACT_PORT_LIMIT).solves_exact());
        assert!(!MwmArbiter::new(EXACT_PORT_LIMIT + 1).solves_exact());
        assert!(!MwmArbiter::approx(4).solves_exact());
    }

    #[test]
    fn oracle_consumes_no_rng_draws() {
        let cs = greedy_trap();
        for mut arb in [MwmArbiter::new(2), MwmArbiter::approx(2)] {
            let mut r = rng();
            arb.schedule(&cs, &mut r);
            assert_eq!(
                r.next_u64_raw(),
                rng().next_u64_raw(),
                "{} touched the RNG stream",
                arb.name()
            );
        }
    }

    #[test]
    fn empty_set_yields_empty_matching() {
        let cs = CandidateSet::new(8, 2);
        for mut arb in [MwmArbiter::new(8), MwmArbiter::approx(8)] {
            let m = arb.schedule(&cs, &mut rng());
            assert_eq!(m.size(), 0);
        }
    }

    #[test]
    fn edge_weight_orders_by_size_then_priority() {
        let mut cs = CandidateSet::new(4, 2);
        cs.set_input(0, &[cand(0, 0, 1, -3.0), cand(0, 1, 2, -5.0)]);
        assert_eq!(priority_bounds(&cs), (-5.0, -3.0));
        // Lowest priority maps to the size unit, highest to the top of
        // the compressed band — always under EDGE_BASE + 1/ports, so no
        // single edge can outweigh two.
        assert_eq!(edge_weight(&cs, 0, 2), Some(EDGE_BASE));
        assert_eq!(edge_weight(&cs, 0, 1), Some(EDGE_BASE + 1.0 / 5.0));
        assert_eq!(edge_weight(&cs, 1, 1), None);
    }

    #[test]
    fn exact_matches_are_never_lighter_than_greedy_ones() {
        // Random smoke across widths inside the exact limit; the full
        // brute-force optimality property lives in
        // tests/arbiter_properties.rs.
        let mut r = SimRng::seed_from_u64(42);
        for ports in [4usize, 8, 16] {
            for _ in 0..20 {
                let mut cs = CandidateSet::new(ports, 3);
                for input in 0..ports {
                    let mut cands = Vec::new();
                    for level in 0..3 {
                        if r.below(3) == 0 {
                            continue;
                        }
                        let output = r.index(ports);
                        let p = 1000.0 - (level as f64) * 100.0 - r.index(50) as f64;
                        cands.push(cand(input, level, output, p));
                    }
                    cs.set_input(input, &cands);
                }
                let exact = MwmArbiter::new(ports).schedule(&cs, &mut rng());
                let greedy = MwmArbiter::approx(ports).schedule(&cs, &mut rng());
                let we = matching_weight(&cs, &exact);
                let wg = matching_weight(&cs, &greedy);
                assert!(we >= wg - 1e-9, "exact {we} < greedy {wg} at {ports} ports");
                assert!(wg * 2.0 >= we - 1e-9, "1/2 bound broken at {ports} ports");
            }
        }
    }
}
