//! Golden reference arbiters.
//!
//! Straight-line transcriptions of the six scheduling algorithms, kept
//! exactly as first implemented: dense `Vec<bool>` free maps allocated
//! per call, full conflict-vector recomputation after every COA grant,
//! O(ports) round-robin scans.  The optimized kernels in [`crate::coa`],
//! [`crate::wfa`], [`crate::islip`], [`crate::pim`], [`crate::greedy`]
//! and [`crate::random`] must agree with these **grant for grant** under
//! identical RNG seeds — the differential property tests in
//! `tests/differential.rs` enforce that, and `bench_report` measures the
//! speedup against them.
//!
//! Every RNG draw here is ordered exactly as in the optimized kernels
//! (ascending port iteration, a draw only when more than one tie, and so
//! on); any change to either side must preserve that pairing.
//!
//! The references are deliberately *width-independent*: free maps are
//! `Vec<bool>` and every candidate query goes through the scalar
//! [`CandidateSet`] accessors, so the same code is the golden model at 4,
//! 64, 128 and 256 ports.  That blindness to the port-set word width is
//! the point — when the optimized kernels' multi-word
//! ([`crate::portset::PortSet`]) paths disagree with these loops at any
//! width, the bug is in the bit algebra, never in the model.

use crate::candidate::{Candidate, CandidateSet};
use crate::matching::{Grant, Matching};
use crate::scheduler::SwitchScheduler;
use mmr_sim::rng::SimRng;

/// Reference COA: recomputes the whole conflict vector after each grant
/// (O(ports² · levels) per cycle).
#[derive(Debug, Clone)]
pub struct ReferenceCoa {
    ports: usize,
    conflicts: Vec<u32>,
    tie_buf: Vec<usize>,
}

impl ReferenceCoa {
    /// Reference COA for `ports` ports.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0);
        ReferenceCoa {
            ports,
            conflicts: Vec::new(),
            tie_buf: Vec::with_capacity(ports),
        }
    }

    /// Recompute the conflict vector over free inputs/outputs; returns the
    /// lowest level that still has requests, if any.
    #[allow(clippy::needless_range_loop)] // port indices mirror the hardware
    fn recompute_conflicts(
        &mut self,
        cs: &CandidateSet,
        input_free: &[bool],
        output_free: &[bool],
    ) -> Option<usize> {
        let levels = cs.levels();
        self.conflicts.clear();
        self.conflicts.resize(levels * self.ports, 0);
        let mut lowest: Option<usize> = None;
        for input in 0..self.ports {
            if !input_free[input] {
                continue;
            }
            for (level, c) in cs.input_candidates(input).enumerate() {
                debug_assert_eq!(c.input, input);
                if output_free[c.output] {
                    self.conflicts[level * self.ports + c.output] += 1;
                    if lowest.is_none_or(|l| level < l) {
                        lowest = Some(level);
                    }
                }
            }
        }
        lowest
    }
}

impl SwitchScheduler for ReferenceCoa {
    #[allow(clippy::needless_range_loop)] // port indices mirror the hardware
    fn schedule_into(&mut self, cs: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        assert_eq!(cs.ports(), self.ports);
        out.clear();
        let mut input_free = vec![true; self.ports];
        let mut output_free = vec![true; self.ports];

        while let Some(level) = self.recompute_conflicts(cs, &input_free, &output_free) {
            let row = &self.conflicts[level * self.ports..(level + 1) * self.ports];
            let min_conflict = row
                .iter()
                .copied()
                .filter(|&c| c > 0)
                .min()
                .expect("level has requests");
            self.tie_buf.clear();
            self.tie_buf.extend(
                row.iter()
                    .enumerate()
                    .filter(|&(_, &c)| c == min_conflict)
                    .map(|(o, _)| o),
            );
            let output = if self.tie_buf.len() == 1 {
                self.tie_buf[0]
            } else {
                self.tie_buf[rng.index(self.tie_buf.len())]
            };

            let mut best: Option<(usize, Candidate)> = None;
            let mut ties = 0u32;
            for input in 0..self.ports {
                if !input_free[input] {
                    continue;
                }
                let Some(c) = cs.get(input, level) else {
                    continue;
                };
                if c.output != output {
                    continue;
                }
                match &best {
                    None => {
                        best = Some((input, c));
                        ties = 1;
                    }
                    Some((_, b)) if c.priority > b.priority => {
                        best = Some((input, c));
                        ties = 1;
                    }
                    Some((_, b)) if c.priority == b.priority => {
                        ties += 1;
                        if rng.below(ties as u64) == 0 {
                            best = Some((input, c));
                        }
                    }
                    _ => {}
                }
            }
            let (input, cand) =
                best.expect("conflict vector said this (level, output) has a request");
            out.add(Grant {
                input,
                output,
                vc: cand.vc,
                level,
            });
            input_free[input] = false;
            output_free[output] = false;
        }
        debug_assert!(out.is_consistent_with(cs));
    }

    fn name(&self) -> &'static str {
        "Candidate-Order Arbiter (reference)"
    }
}

/// Reference WFA: dense boolean request matrix rebuilt per cycle.
#[derive(Debug, Clone)]
pub struct ReferenceWfa {
    ports: usize,
    start_diag: usize,
    wrapped: bool,
    requests: Vec<bool>,
}

impl ReferenceWfa {
    /// Reference wrapped WFA.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0);
        ReferenceWfa {
            ports,
            start_diag: 0,
            wrapped: true,
            requests: vec![false; ports * ports],
        }
    }

    /// Reference unwrapped (fixed-diagonal) variant.
    pub fn fixed(ports: usize) -> Self {
        ReferenceWfa {
            wrapped: false,
            ..ReferenceWfa::new(ports)
        }
    }
}

impl SwitchScheduler for ReferenceWfa {
    #[allow(clippy::needless_range_loop)] // crosspoint (row, column) indexing
    fn schedule_into(&mut self, cs: &CandidateSet, _rng: &mut SimRng, out: &mut Matching) {
        let n = self.ports;
        assert_eq!(cs.ports(), n);
        out.clear();
        self.requests.fill(false);
        for c in cs.iter() {
            self.requests[c.input * n + c.output] = true;
        }

        let mut row_free = vec![true; n];
        let mut col_free = vec![true; n];
        for d in 0..n {
            let diag = (self.start_diag + d) % n;
            for input in 0..n {
                let output = (diag + n - input) % n;
                if self.requests[input * n + output] && row_free[input] && col_free[output] {
                    let c = cs
                        .best_for(input, output)
                        .expect("request matrix was built from candidates");
                    let level = cs
                        .input_candidates(input)
                        .position(|x| x.vc == c.vc && x.output == c.output)
                        .expect("candidate present");
                    out.add(Grant {
                        input,
                        output,
                        vc: c.vc,
                        level,
                    });
                    row_free[input] = false;
                    col_free[output] = false;
                }
            }
        }
        if self.wrapped {
            self.start_diag = (self.start_diag + 1) % n;
        }
        debug_assert!(out.is_consistent_with(cs));
    }

    fn name(&self) -> &'static str {
        "Wave Front Arbiter (reference)"
    }

    fn reset(&mut self) {
        self.start_diag = 0;
    }
}

/// Reference iSLIP: O(ports) linear round-robin scans per grant/accept.
#[derive(Debug, Clone)]
pub struct ReferenceIslip {
    ports: usize,
    iterations: usize,
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
}

impl ReferenceIslip {
    /// Reference iSLIP for `ports` ports and `iterations` passes.
    pub fn new(ports: usize, iterations: usize) -> Self {
        assert!(ports > 0 && iterations > 0);
        ReferenceIslip {
            ports,
            iterations,
            grant_ptr: vec![0; ports],
            accept_ptr: vec![0; ports],
        }
    }
}

impl SwitchScheduler for ReferenceIslip {
    #[allow(clippy::needless_range_loop)] // port indices mirror the hardware
    fn schedule_into(&mut self, cs: &CandidateSet, _rng: &mut SimRng, out: &mut Matching) {
        let n = self.ports;
        assert_eq!(cs.ports(), n);
        out.clear();
        let mut input_free = vec![true; n];
        let mut output_free = vec![true; n];

        for iter in 0..self.iterations {
            let mut granted_to: Vec<Option<usize>> = vec![None; n];
            for output in 0..n {
                if !output_free[output] {
                    continue;
                }
                let start = self.grant_ptr[output];
                for off in 0..n {
                    let input = (start + off) % n;
                    if input_free[input] && cs.requests(input, output) {
                        granted_to[output] = Some(input);
                        break;
                    }
                }
            }
            let mut any_accept = false;
            for input in 0..n {
                if !input_free[input] {
                    continue;
                }
                let start = self.accept_ptr[input];
                let mut accepted: Option<usize> = None;
                for off in 0..n {
                    let output = (start + off) % n;
                    if granted_to[output] == Some(input) {
                        accepted = Some(output);
                        break;
                    }
                }
                let Some(output) = accepted else { continue };
                let c = cs.best_for(input, output).expect("granted request exists");
                let level = cs
                    .input_candidates(input)
                    .position(|x| x.vc == c.vc && x.output == c.output)
                    .expect("candidate present");
                out.add(Grant {
                    input,
                    output,
                    vc: c.vc,
                    level,
                });
                input_free[input] = false;
                output_free[output] = false;
                any_accept = true;
                if iter == 0 {
                    self.grant_ptr[output] = (input + 1) % n;
                    self.accept_ptr[input] = (output + 1) % n;
                }
            }
            if !any_accept {
                break;
            }
        }
        debug_assert!(out.is_consistent_with(cs));
    }

    fn name(&self) -> &'static str {
        "iSLIP (reference)"
    }

    fn reset(&mut self) {
        self.grant_ptr.fill(0);
        self.accept_ptr.fill(0);
    }
}

/// Reference PIM: requester lists materialized per output per iteration.
#[derive(Debug, Clone)]
pub struct ReferencePim {
    ports: usize,
    iterations: usize,
}

impl ReferencePim {
    /// Reference PIM for `ports` ports and `iterations` passes.
    pub fn new(ports: usize, iterations: usize) -> Self {
        assert!(ports > 0 && iterations > 0);
        ReferencePim { ports, iterations }
    }
}

impl SwitchScheduler for ReferencePim {
    #[allow(clippy::needless_range_loop)] // port indices mirror the hardware
    fn schedule_into(&mut self, cs: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        let n = self.ports;
        assert_eq!(cs.ports(), n);
        out.clear();
        let mut input_free = vec![true; n];
        let mut output_free = vec![true; n];
        let mut requesters: Vec<usize> = Vec::with_capacity(n);

        for _ in 0..self.iterations {
            let mut granted_to: Vec<Option<usize>> = vec![None; n];
            for output in 0..n {
                if !output_free[output] {
                    continue;
                }
                requesters.clear();
                requesters.extend((0..n).filter(|&i| input_free[i] && cs.requests(i, output)));
                if !requesters.is_empty() {
                    granted_to[output] = Some(requesters[rng.index(requesters.len())]);
                }
            }
            let mut any_accept = false;
            for input in 0..n {
                if !input_free[input] {
                    continue;
                }
                requesters.clear(); // reuse as grant list
                requesters.extend((0..n).filter(|&o| granted_to[o] == Some(input)));
                if requesters.is_empty() {
                    continue;
                }
                let output = requesters[rng.index(requesters.len())];
                let c = cs.best_for(input, output).expect("granted request exists");
                let level = cs
                    .input_candidates(input)
                    .position(|x| x.vc == c.vc && x.output == c.output)
                    .expect("candidate present");
                out.add(Grant {
                    input,
                    output,
                    vc: c.vc,
                    level,
                });
                input_free[input] = false;
                output_free[output] = false;
                any_accept = true;
            }
            if !any_accept {
                break;
            }
        }
        debug_assert!(out.is_consistent_with(cs));
    }

    fn name(&self) -> &'static str {
        "Parallel Iterative Matching (reference)"
    }
}

/// Reference greedy-priority matching with per-call key allocation.
#[derive(Debug, Clone)]
pub struct ReferenceGreedy {
    ports: usize,
    scratch: Vec<(Candidate, usize)>,
}

impl ReferenceGreedy {
    /// Reference greedy arbiter for `ports` ports.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0);
        ReferenceGreedy {
            ports,
            scratch: Vec::new(),
        }
    }
}

impl SwitchScheduler for ReferenceGreedy {
    fn schedule_into(&mut self, cs: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        assert_eq!(cs.ports(), self.ports);
        out.clear();
        self.scratch.clear();
        for input in 0..self.ports {
            for (level, c) in cs.input_candidates(input).enumerate() {
                self.scratch.push((c, level));
            }
        }
        let mut keyed: Vec<(u64, usize)> = self
            .scratch
            .iter()
            .enumerate()
            .map(|(i, _)| (rng.next_u64_raw(), i))
            .collect();
        keyed.sort_unstable_by(|a, b| {
            let pa = self.scratch[a.1].0.priority;
            let pb = self.scratch[b.1].0.priority;
            pb.cmp(&pa).then(a.0.cmp(&b.0))
        });

        let mut input_free = vec![true; self.ports];
        let mut output_free = vec![true; self.ports];
        for (_, idx) in keyed {
            let (c, level) = self.scratch[idx];
            if input_free[c.input] && output_free[c.output] {
                out.add(Grant {
                    input: c.input,
                    output: c.output,
                    vc: c.vc,
                    level,
                });
                input_free[c.input] = false;
                output_free[c.output] = false;
            }
        }
        debug_assert!(out.is_consistent_with(cs));
    }

    fn name(&self) -> &'static str {
        "Greedy priority (reference)"
    }
}

/// Reference random maximal matching with O(ports² · levels) pair
/// enumeration.
#[derive(Debug, Clone)]
pub struct ReferenceRandom {
    ports: usize,
    pairs: Vec<(usize, usize)>,
}

impl ReferenceRandom {
    /// Reference random arbiter for `ports` ports.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0);
        ReferenceRandom {
            ports,
            pairs: Vec::new(),
        }
    }
}

impl SwitchScheduler for ReferenceRandom {
    fn schedule_into(&mut self, cs: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        assert_eq!(cs.ports(), self.ports);
        out.clear();
        self.pairs.clear();
        for input in 0..self.ports {
            for output in 0..self.ports {
                if cs.requests(input, output) {
                    self.pairs.push((input, output));
                }
            }
        }
        rng.shuffle(&mut self.pairs);
        let mut input_free = vec![true; self.ports];
        let mut output_free = vec![true; self.ports];
        for &(input, output) in &self.pairs {
            if input_free[input] && output_free[output] {
                let c = cs
                    .best_for(input, output)
                    .expect("pair built from candidates");
                let level = cs
                    .input_candidates(input)
                    .position(|x| x.vc == c.vc && x.output == c.output)
                    .expect("candidate present");
                out.add(Grant {
                    input,
                    output,
                    vc: c.vc,
                    level,
                });
                input_free[input] = false;
                output_free[output] = false;
            }
        }
        debug_assert!(out.is_consistent_with(cs));
    }

    fn name(&self) -> &'static str {
        "Random maximal matching (reference)"
    }
}

/// Reference MWM oracle: dense weight matrix built with scalar candidate
/// queries, Jonker–Volgenant augmenting paths with per-call allocation,
/// comparator-sorted greedy path.  Mirrors [`crate::mwm::MwmArbiter`]
/// exactly, including the [`crate::mwm::EXACT_PORT_LIMIT`] fallback to
/// the greedy ½-approximation.
#[derive(Debug, Clone)]
pub struct ReferenceMwm {
    ports: usize,
    exact: bool,
}

impl ReferenceMwm {
    /// Reference exact oracle for `ports` ports.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0);
        ReferenceMwm { ports, exact: true }
    }

    /// Reference greedy ½-approximation for `ports` ports.
    pub fn approx(ports: usize) -> Self {
        ReferenceMwm {
            ports,
            exact: false,
        }
    }

    #[allow(clippy::needless_range_loop)] // port indices mirror the hardware
    fn schedule_exact(&self, cs: &CandidateSet, out: &mut Matching) {
        let n = self.ports;
        // Dense shaped weight matrix, exactly as the kernel builds it:
        // best-candidate priority per pair, then the shared
        // [`crate::mwm::shaped_weight`] normalization (the weight
        // function is the *model*, so both sides call it and their f64
        // streams stay bit-identical); missing edges stay 0.
        let mut w = vec![0.0f64; n * n];
        let mut floor = f64::INFINITY;
        let mut ceil = f64::NEG_INFINITY;
        let mut edges = 0u64;
        for input in 0..n {
            for output in 0..n {
                if let Some(c) = cs.best_for(input, output) {
                    w[input * n + output] = c.priority.0;
                    floor = floor.min(c.priority.0);
                    ceil = ceil.max(c.priority.0);
                    edges += 1;
                }
            }
        }
        if edges == 0 {
            return;
        }
        let mut maxw = 0.0f64;
        for input in 0..n {
            for output in 0..n {
                if cs.requests(input, output) {
                    let cell = &mut w[input * n + output];
                    *cell = crate::mwm::shaped_weight(*cell, floor, ceil, n);
                    maxw = maxw.max(*cell);
                }
            }
        }
        // Jonker–Volgenant over cost = maxw − w, 1-indexed, column 0 the
        // virtual root — line-for-line the kernel's solver with fresh
        // allocations, so the f64 sequences are bit-identical.
        let mut pot_row = vec![0.0f64; n + 1];
        let mut pot_col = vec![0.0f64; n + 1];
        let mut col_to_row = vec![0usize; n + 1];
        let mut way = vec![0usize; n + 1];
        for row in 1..=n {
            col_to_row[0] = row;
            let mut j0 = 0usize;
            let mut minv = vec![f64::INFINITY; n + 1];
            let mut used = vec![false; n + 1];
            loop {
                used[j0] = true;
                let i0 = col_to_row[j0];
                let mut delta = f64::INFINITY;
                let mut j1 = 0usize;
                for j in 1..=n {
                    if used[j] {
                        continue;
                    }
                    let cost = maxw - w[(i0 - 1) * n + (j - 1)];
                    let cur = cost - pot_row[i0] - pot_col[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=n {
                    if used[j] {
                        pot_row[col_to_row[j]] += delta;
                        pot_col[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if col_to_row[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = way[j0];
                col_to_row[j0] = col_to_row[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
        for output in 0..n {
            let row = col_to_row[output + 1];
            debug_assert!(row != 0, "perfect matching covers every column");
            let input = row - 1;
            if w[input * n + output] > 0.0 {
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
    }

    #[allow(clippy::needless_range_loop)] // port indices mirror the hardware
    fn schedule_greedy(&self, cs: &CandidateSet, out: &mut Matching) {
        let n = self.ports;
        // Edges by descending best priority, then ascending (input,
        // output) — the comparator form of the kernel's packed-key sort.
        let mut edges: Vec<(Candidate, usize, usize)> = Vec::new();
        for input in 0..n {
            for output in 0..n {
                if let Some(c) = cs.best_for(input, output) {
                    edges.push((c, input, output));
                }
            }
        }
        edges.sort_unstable_by(|a, b| {
            b.0.priority
                .cmp(&a.0.priority)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        let mut input_free = vec![true; n];
        let mut output_free = vec![true; n];
        for &(_, input, output) in &edges {
            if input_free[input] && output_free[output] {
                let (level, c) = cs
                    .best_level_for(input, output)
                    .expect("edge has a candidate");
                out.add(Grant {
                    input,
                    output,
                    vc: c.vc,
                    level,
                });
                input_free[input] = false;
                output_free[output] = false;
            }
        }
    }
}

impl SwitchScheduler for ReferenceMwm {
    fn schedule_into(&mut self, cs: &CandidateSet, _rng: &mut SimRng, out: &mut Matching) {
        assert_eq!(cs.ports(), self.ports);
        out.clear();
        if self.exact && self.ports <= crate::mwm::EXACT_PORT_LIMIT {
            self.schedule_exact(cs, out);
        } else {
            self.schedule_greedy(cs, out);
        }
        debug_assert!(out.is_consistent_with(cs));
    }

    fn name(&self) -> &'static str {
        if self.exact {
            "MWM (reference)"
        } else {
            "MWM-approx (reference)"
        }
    }
}

/// Reference frame-based fair arbiter: dense scalar loops over the same
/// quota/eligibility rules as [`crate::frame::FrameFairArbiter`], with
/// the identical reservoir RNG-draw sequence.
#[derive(Debug, Clone)]
pub struct ReferenceFrameFair {
    ports: usize,
    frame: u32,
    quota: u32,
    cycle_in_frame: u32,
    used: Vec<u32>,
}

impl ReferenceFrameFair {
    /// Reference frame-fair arbiter for `ports` ports and a
    /// `frame`-cycle frame.
    pub fn new(ports: usize, frame: u32) -> Self {
        assert!(ports > 0 && frame > 0);
        ReferenceFrameFair {
            ports,
            frame,
            quota: (frame / ports as u32).max(1),
            cycle_in_frame: 0,
            used: vec![0; ports * ports],
        }
    }
}

impl SwitchScheduler for ReferenceFrameFair {
    #[allow(clippy::needless_range_loop)] // port indices mirror the hardware
    fn schedule_into(&mut self, cs: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        let n = self.ports;
        assert_eq!(cs.ports(), n);
        out.clear();
        let mut input_free = vec![true; n];
        for output in 0..n {
            let requesters: Vec<usize> = (0..n)
                .filter(|&i| input_free[i] && cs.requests(i, output))
                .collect();
            if requesters.is_empty() {
                continue;
            }
            let any_eligible = requesters
                .iter()
                .any(|&i| self.used[i * n + output] < self.quota);
            let mut best: Option<(usize, usize, Candidate)> = None;
            let mut ties = 0u64;
            for &input in &requesters {
                if any_eligible && self.used[input * n + output] >= self.quota {
                    continue;
                }
                let (level, c) = cs
                    .best_level_for(input, output)
                    .expect("requester has a candidate");
                match &best {
                    None => {
                        best = Some((input, level, c));
                        ties = 1;
                    }
                    Some((_, _, b)) if c.priority > b.priority => {
                        best = Some((input, level, c));
                        ties = 1;
                    }
                    Some((_, _, b)) if c.priority == b.priority => {
                        ties += 1;
                        if rng.below(ties) == 0 {
                            best = Some((input, level, c));
                        }
                    }
                    _ => {}
                }
            }
            let (input, level, c) = best.expect("eligible pool is non-empty");
            out.add(Grant {
                input,
                output,
                vc: c.vc,
                level,
            });
            input_free[input] = false;
            self.used[input * n + output] += 1;
        }
        self.cycle_in_frame += 1;
        if self.cycle_in_frame == self.frame {
            self.cycle_in_frame = 0;
            self.used.fill(0);
        }
        debug_assert!(out.is_consistent_with(cs));
    }

    fn name(&self) -> &'static str {
        "Frame-fair (reference)"
    }

    fn reset(&mut self) {
        self.cycle_in_frame = 0;
        self.used.fill(0);
    }
}

/// Reference crosspoint-queued arbiter: the dense O(ports²) rescan form
/// of [`crate::cq::CrosspointQueuedArbiter`]'s incremental aging, with
/// the identical per-output longest-queue-first selection and reservoir
/// draws.
#[derive(Debug, Clone)]
pub struct ReferenceCq {
    ports: usize,
    cap: u32,
    depth: Vec<u32>,
}

impl ReferenceCq {
    /// Reference CQ arbiter for `ports` ports and `cap`-deep buffers.
    pub fn new(ports: usize, cap: u32) -> Self {
        assert!(ports > 0 && cap > 0);
        ReferenceCq {
            ports,
            cap,
            depth: vec![0; ports * ports],
        }
    }
}

impl SwitchScheduler for ReferenceCq {
    #[allow(clippy::needless_range_loop)] // port indices mirror the hardware
    fn schedule_into(&mut self, cs: &CandidateSet, rng: &mut SimRng, out: &mut Matching) {
        let n = self.ports;
        assert_eq!(cs.ports(), n);
        out.clear();
        // Phase 1 — dense aging: requested crosspoints gain pressure
        // (saturating), silent ones drain to zero.
        for input in 0..n {
            for output in 0..n {
                let d = &mut self.depth[input * n + output];
                if cs.requests(input, output) {
                    *d = (*d + 1).min(self.cap);
                } else {
                    *d = 0;
                }
            }
        }
        // Phase 2 — per-output longest-queue-first over free inputs.
        let mut input_free = vec![true; n];
        for output in 0..n {
            let mut best_input = usize::MAX;
            let mut best_depth = 0u32;
            let mut ties = 0u64;
            for input in 0..n {
                if !input_free[input] || !cs.requests(input, output) {
                    continue;
                }
                let d = self.depth[input * n + output];
                if best_input == usize::MAX || d > best_depth {
                    best_input = input;
                    best_depth = d;
                    ties = 1;
                } else if d == best_depth {
                    ties += 1;
                    if rng.below(ties) == 0 {
                        best_input = input;
                    }
                }
            }
            if best_input == usize::MAX {
                continue;
            }
            let (level, c) = cs
                .best_level_for(best_input, output)
                .expect("pool member has a candidate");
            out.add(Grant {
                input: best_input,
                output,
                vc: c.vc,
                level,
            });
            input_free[best_input] = false;
            self.depth[best_input * n + output] = 0;
        }
        debug_assert!(out.is_consistent_with(cs));
    }

    fn name(&self) -> &'static str {
        "CQ (reference)"
    }

    fn reset(&mut self) {
        self.depth.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::Priority;
    use crate::scheduler::ArbiterKind;

    #[test]
    fn references_instantiate_for_every_kind() {
        for kind in ArbiterKind::all() {
            let r = kind.instantiate_reference(4);
            assert!(r.name().ends_with("(reference)"), "{}", r.name());
        }
    }

    #[test]
    fn reference_coa_smoke() {
        let mut cs = CandidateSet::new(4, 2);
        cs.push(Candidate {
            input: 0,
            vc: 0,
            output: 2,
            priority: Priority::new(1.0),
        });
        cs.push(Candidate {
            input: 1,
            vc: 0,
            output: 2,
            priority: Priority::new(9.0),
        });
        let mut rng = SimRng::seed_from_u64(0);
        let m = ReferenceCoa::new(4).schedule(&cs, &mut rng);
        assert_eq!(m.size(), 1);
        assert_eq!(m.grant_for(1).unwrap().output, 2);
    }
}
