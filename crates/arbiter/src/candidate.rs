//! Candidates: the interface between link scheduling and switch scheduling.
//!
//! Each flit cycle, every input link's scheduler forwards its *k*
//! highest-priority head flits to the switch scheduler as a **candidate
//! vector**: level 1 is the highest-priority candidate, level 2 the next,
//! and so on (paper §4).  The switch scheduler sees only these vectors.

use crate::portset::{words_for_ports, PortSet, MAX_WORDS};
use serde::{Deserialize, Serialize};

/// Hard upper bound on router ports.
///
/// The arbitration kernels keep per-output requester sets and free-port
/// maps as multi-word bitmasks ([`crate::portset::PortSet`]), selecting a
/// width of 1, 2 or 4 `u64` words from the port count.  Four words — 256
/// ports — covers the Tiny Tera-class configurations of interest while
/// keeping every kernel branch-free on port sets; larger routers are
/// rejected with a clear error.
pub const MAX_PORTS: usize = 256;

/// A scheduling priority.
///
/// Stored as `f64` so one type serves every priority function (SIABP
/// produces integers, IABP produces ratios).  Values must be finite; the
/// ordering is total (`f64::total_cmp`), which keeps arbitration
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Priority(pub f64);

impl Priority {
    /// The lowest priority.
    pub const ZERO: Priority = Priority(0.0);

    /// Build from a value, checking finiteness.
    #[inline]
    pub fn new(v: f64) -> Self {
        debug_assert!(v.is_finite(), "priority must be finite, got {v}");
        Priority(v)
    }

    /// The priority as an order-preserving `u64` key: `a.sort_key() <
    /// b.sort_key()` iff `a < b` (and equal keys iff `total_cmp` equality).
    /// Flipping the sign bit of a non-negative float, or all bits of a
    /// negative one, is the standard IEEE-754 totalOrder transform; it
    /// lets kernels compare and sort priorities as plain integers.
    #[inline]
    pub fn sort_key(self) -> u64 {
        let b = self.0.to_bits();
        if b >> 63 == 1 {
            !b
        } else {
            b | (1u64 << 63)
        }
    }
}

impl Eq for Priority {}

impl PartialOrd for Priority {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Priority {
    #[inline]
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One candidate: a head flit offered to the switch scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Input physical port offering the flit.
    pub input: usize,
    /// Virtual channel (connection slot) the flit heads.
    pub vc: usize,
    /// Output port the flit requests.
    pub output: usize,
    /// Link-scheduler priority of the head flit.
    pub priority: Priority,
}

/// The candidate vectors of all input ports for one scheduling cycle.
///
/// Dense layout: `levels` slots per input, level-major within an input,
/// sorted by descending priority (level 1 first).  Empty slots are `None`.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    ports: usize,
    levels: usize,
    /// Port-set width in `u64` words (1, 2 or 4), fixed by `ports`.
    /// Every mask below is stored as `words` consecutive `u64`s.
    words: usize,
    slots: Vec<Option<Candidate>>,
    /// Request index: row `level * ports + output` (of `words` words each)
    /// → bitmask of inputs whose candidate at `level` requests `output`.
    /// Maintained incrementally by `set_input`/`push`/`clear` so arbiters
    /// scan requesters in O(words) per (level, output) instead of sweeping
    /// every input.  It is the only index: the any-level views
    /// ([`requesters`](Self::requesters), [`output_mask`](Self::output_mask))
    /// are derived from it and the slots on demand.
    req_level_out: Vec<u64>,
    /// Candidates present.
    count: usize,
    /// Upper bound on the levels in use: every level at or above it has
    /// been empty since the last `clear`.
    used_levels: usize,
}

/// Sets are equal when they hold the same candidates; the request
/// indexes and counters are derived from those.
impl PartialEq for CandidateSet {
    fn eq(&self, other: &Self) -> bool {
        self.ports == other.ports && self.levels == other.levels && self.slots == other.slots
    }
}

impl CandidateSet {
    /// An empty set for `ports` inputs with `levels` candidate levels.
    pub fn new(ports: usize, levels: usize) -> Self {
        assert!(ports > 0 && levels > 0);
        assert!(
            ports <= MAX_PORTS,
            "router has {ports} ports but the scheduling kernels track port \
             sets as at most {MAX_WORDS} 64-bit words, limiting a router to \
             {MAX_PORTS} ports"
        );
        let words = words_for_ports(ports);
        CandidateSet {
            ports,
            levels,
            words,
            slots: vec![None; ports * levels],
            req_level_out: vec![0; ports * levels * words],
            count: 0,
            used_levels: 0,
        }
    }

    /// Number of input/output ports.
    #[inline]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Number of candidate levels (k).
    #[inline]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Remove all candidates (reuse between cycles without reallocating).
    pub fn clear(&mut self) {
        self.slots.fill(None);
        self.req_level_out.fill(0);
        self.count = 0;
        self.used_levels = 0;
    }

    /// Install the candidate vector for one input.  `candidates` must be
    /// sorted by descending priority and contain at most `levels` entries,
    /// each with `input` equal to `input`.
    pub fn set_input(&mut self, input: usize, candidates: &[Candidate]) {
        assert!(candidates.len() <= self.levels, "too many candidates");
        let base = input * self.levels;
        let words = self.words;
        let iw = input >> 6;
        let ibit = 1u64 << (input & 63);
        // Unindex the input's previous vector before overwriting.
        for l in 0..self.levels {
            if let Some(old) = self.slots[base + l] {
                self.req_level_out[(l * self.ports + old.output) * words + iw] &= !ibit;
                self.count -= 1;
            }
        }
        self.count += candidates.len();
        self.used_levels = self.used_levels.max(candidates.len());
        for l in 0..self.levels {
            self.slots[base + l] = candidates.get(l).copied();
            if let Some(c) = candidates.get(l) {
                self.req_level_out[(l * self.ports + c.output) * words + iw] |= ibit;
            }
        }
        debug_assert!(
            candidates
                .windows(2)
                .all(|w| w[0].priority >= w[1].priority),
            "candidates must be sorted by descending priority"
        );
        debug_assert!(candidates
            .iter()
            .all(|c| c.input == input && c.output < self.ports));
    }

    /// Push one candidate into the next free level of its input; returns
    /// false if the input's vector is full.
    pub fn push(&mut self, c: Candidate) -> bool {
        let base = c.input * self.levels;
        for l in 0..self.levels {
            if self.slots[base + l].is_none() {
                debug_assert!(
                    l == 0
                        || self.slots[base + l - 1].is_some_and(|prev| prev.priority >= c.priority),
                    "push order must be descending priority"
                );
                self.slots[base + l] = Some(c);
                self.count += 1;
                self.used_levels = self.used_levels.max(l + 1);
                self.req_level_out[(l * self.ports + c.output) * self.words + (c.input >> 6)] |=
                    1u64 << (c.input & 63);
                return true;
            }
        }
        false
    }

    /// The candidate of `input` at `level` (0-based; level 0 = paper's
    /// "level one").
    #[inline]
    pub fn get(&self, input: usize, level: usize) -> Option<Candidate> {
        self.slots[input * self.levels + level]
    }

    /// Borrowing variant of [`CandidateSet::get`] for kernel inner loops:
    /// no 40-byte `Option<Candidate>` copy per probe.
    #[inline]
    pub fn candidate_at(&self, input: usize, level: usize) -> Option<&Candidate> {
        self.slots[input * self.levels + level].as_ref()
    }

    /// Iterate over all present candidates.
    pub fn iter(&self) -> impl Iterator<Item = Candidate> + '_ {
        self.slots.iter().flatten().copied()
    }

    /// Candidates of one input, best first.
    pub fn input_candidates(&self, input: usize) -> impl Iterator<Item = Candidate> + '_ {
        let base = input * self.levels;
        self.slots[base..base + self.levels]
            .iter()
            .flatten()
            .copied()
    }

    /// The best (lowest-level) candidate of `input` requesting `output`.
    pub fn best_for(&self, input: usize, output: usize) -> Option<Candidate> {
        self.best_level_for(input, output).map(|(_, c)| c)
    }

    /// The lowest level at which `input` requests `output`, with its
    /// candidate.  O(levels) via the request index.
    #[inline]
    pub fn best_level_for(&self, input: usize, output: usize) -> Option<(usize, Candidate)> {
        let iw = input >> 6;
        let ibit = 1u64 << (input & 63);
        (0..self.levels)
            .find(|&l| self.req_level_out[(l * self.ports + output) * self.words + iw] & ibit != 0)
            .map(|l| {
                (
                    l,
                    self.slots[input * self.levels + l].expect("indexed candidate"),
                )
            })
    }

    /// True if `input` has any candidate for `output`.  O(levels) via
    /// the request index.
    #[inline]
    pub fn requests(&self, input: usize, output: usize) -> bool {
        self.best_level_for(input, output).is_some()
    }

    /// The whole request bit-matrix as one flat slice: row
    /// `level * ports + output` (each `words()` words long) is the
    /// requester mask of that (level, output) pair.  Lets kernels stream
    /// the matrix linearly instead of recomputing row offsets per cell.
    #[inline]
    pub fn request_rows(&self) -> &[u64] {
        &self.req_level_out
    }

    /// Bitmask of inputs whose candidate at `level` requests `output`, as
    /// a `words()`-long word slice.
    #[inline]
    pub fn requesters_at(&self, level: usize, output: usize) -> &[u64] {
        let base = (level * self.ports + output) * self.words;
        &self.req_level_out[base..base + self.words]
    }

    /// The inputs requesting `output` at any level: the union of its
    /// requester rows over the levels in use.  `W` must be the set's
    /// port-set width (1, 2 or 4 words for up to 64, 128 or 256 ports).
    #[inline]
    pub fn requesters<const W: usize>(&self, output: usize) -> PortSet<W> {
        debug_assert_eq!(W, self.words);
        let mut words = [0u64; W];
        for level in 0..self.used_levels {
            let row = &self.req_level_out[(level * self.ports + output) * W..][..W];
            for (w, r) in words.iter_mut().zip(row) {
                *w |= r;
            }
        }
        PortSet::from_words(&words)
    }

    /// The outputs any of `input`'s candidates request, read off its
    /// slots.  `W` as for [`requesters`](Self::requesters).
    #[inline]
    pub fn output_mask<const W: usize>(&self, input: usize) -> PortSet<W> {
        debug_assert_eq!(W, self.words);
        let mut mask = PortSet::from_words(&[0; W]);
        for c in self.input_candidates(input) {
            mask.insert(c.output);
        }
        mask
    }

    /// Total number of candidates present.  O(1).
    #[inline]
    pub fn len(&self) -> usize {
        debug_assert_eq!(self.count, self.slots.iter().flatten().count());
        self.count
    }

    /// True if no candidates at all.  O(1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An upper bound on the candidate levels in use: levels
    /// `used_levels()..levels()` hold no candidate.  Exact for a set
    /// filled by [`push`](Self::push) since the last
    /// [`clear`](Self::clear) (an input's vector fills from level 0);
    /// [`set_input`](Self::set_input) overwriting a longer vector with a
    /// shorter one leaves it high.  Lets a kernel that sweeps levels
    /// stop early.
    #[inline]
    pub fn used_levels(&self) -> usize {
        self.used_levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn cand(input: usize, vc: usize, output: usize, prio: f64) -> Candidate {
        Candidate {
            input,
            vc,
            output,
            priority: Priority::new(prio),
        }
    }

    #[test]
    fn sort_key_preserves_total_order() {
        let vals = [-1e9, -1.5, -0.0, 0.0, 1e-300, 2.0, 1e18];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    Priority::new(a)
                        .sort_key()
                        .cmp(&Priority::new(b).sort_key()),
                    a.total_cmp(&b),
                    "sort_key order mismatch for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn priority_total_order() {
        let mut ps = vec![Priority::new(3.0), Priority::new(1.0), Priority::new(2.0)];
        ps.sort();
        assert_eq!(
            ps,
            vec![Priority::new(1.0), Priority::new(2.0), Priority::new(3.0)]
        );
        assert!(Priority::new(5.0) > Priority::ZERO);
    }

    #[test]
    fn set_input_and_get() {
        let mut cs = CandidateSet::new(4, 2);
        cs.set_input(1, &[cand(1, 0, 3, 10.0), cand(1, 5, 0, 4.0)]);
        assert_eq!(cs.get(1, 0).unwrap().output, 3);
        assert_eq!(cs.get(1, 1).unwrap().output, 0);
        assert_eq!(cs.get(0, 0), None);
        assert_eq!(cs.len(), 2);
        assert!(!cs.is_empty());
    }

    #[test]
    fn push_fills_levels_in_order() {
        let mut cs = CandidateSet::new(2, 2);
        assert!(cs.push(cand(0, 0, 1, 9.0)));
        assert!(cs.push(cand(0, 1, 0, 5.0)));
        assert!(
            !cs.push(cand(0, 2, 1, 1.0)),
            "third push must fail with 2 levels"
        );
        assert_eq!(cs.get(0, 0).unwrap().vc, 0);
        assert_eq!(cs.get(0, 1).unwrap().vc, 1);
    }

    #[test]
    fn best_for_prefers_lower_level() {
        let mut cs = CandidateSet::new(3, 3);
        cs.set_input(
            0,
            &[cand(0, 0, 1, 9.0), cand(0, 1, 1, 5.0), cand(0, 2, 0, 1.0)],
        );
        let best = cs.best_for(0, 1).unwrap();
        assert_eq!(best.vc, 0);
        assert!(cs.requests(0, 0));
        assert!(!cs.requests(0, 2)); // within ports but unrequested
        assert!(cs.best_for(1, 0).is_none());
    }

    #[test]
    fn clear_resets() {
        let mut cs = CandidateSet::new(2, 2);
        cs.push(cand(0, 0, 1, 1.0));
        cs.clear();
        assert!(cs.is_empty());
        assert_eq!(cs.len(), 0);
        assert_eq!(cs.used_levels(), 0);
    }

    #[test]
    fn counters_track_every_mutation() {
        let mut cs = CandidateSet::new(3, 3);
        assert_eq!((cs.len(), cs.used_levels()), (0, 0));
        cs.push(cand(0, 0, 1, 9.0));
        assert_eq!((cs.len(), cs.used_levels()), (1, 1));
        cs.push(cand(0, 1, 2, 5.0));
        cs.push(cand(1, 0, 1, 7.0));
        assert_eq!((cs.len(), cs.used_levels()), (3, 2));
        // A full vector refuses the push and counts nothing.
        cs.push(cand(0, 2, 0, 4.0));
        assert!(!cs.push(cand(0, 3, 0, 1.0)));
        assert_eq!((cs.len(), cs.used_levels()), (4, 3));
        // Overwriting replaces the input's share of the count; the level
        // bound may only stay high, never drop below a level in use.
        cs.set_input(0, &[cand(0, 0, 2, 3.0)]);
        assert_eq!(cs.len(), 2);
        assert!(cs.used_levels() >= 1);
        cs.set_input(2, &[cand(2, 0, 0, 3.0), cand(2, 1, 1, 2.0)]);
        assert_eq!(cs.len(), 4);
        assert!(cs.used_levels() >= 2);
        for l in cs.used_levels()..cs.levels() {
            assert!((0..3).all(|i| cs.get(i, l).is_none()));
        }
        // Same candidates, different history: still equal.
        let mut fresh = CandidateSet::new(3, 3);
        fresh.push(cand(0, 0, 2, 3.0));
        fresh.push(cand(1, 0, 1, 7.0));
        fresh.push(cand(2, 0, 0, 3.0));
        fresh.push(cand(2, 1, 1, 2.0));
        assert_eq!(cs, fresh);
    }

    #[test]
    fn request_index_tracks_mutations() {
        let mut cs = CandidateSet::new(4, 2);
        cs.set_input(0, &[cand(0, 0, 2, 9.0), cand(0, 1, 1, 5.0)]);
        cs.push(cand(3, 0, 2, 7.0));
        assert_eq!(cs.words, 1);
        assert_eq!(cs.requesters_at(0, 2), &[0b1001]);
        assert_eq!(cs.requesters_at(1, 1), &[0b0001]);
        assert_eq!(cs.requesters::<1>(2), PortSet::from_words(&[0b1001]));
        assert_eq!(cs.output_mask::<1>(0), PortSet::from_words(&[0b0110]));
        assert_eq!(cs.best_level_for(0, 1), Some((1, cand(0, 1, 1, 5.0))));
        // Overwriting an input unindexes its previous candidates.
        cs.set_input(0, &[cand(0, 2, 3, 1.0)]);
        assert_eq!(cs.requesters_at(0, 2), &[0b1000]);
        assert_eq!(cs.requesters::<1>(2), PortSet::from_words(&[0b1000]));
        assert_eq!(cs.requesters::<1>(1), PortSet::from_words(&[0]));
        assert_eq!(cs.output_mask::<1>(0), PortSet::from_words(&[0b1000]));
        assert!(!cs.requests(0, 1));
        assert!(cs.requests(0, 3));
        cs.clear();
        for o in 0..4 {
            assert!(cs.requesters::<1>(o).is_empty());
        }
    }

    #[test]
    fn union_survives_partial_overwrite() {
        // Input 0 requests output 2 at both levels; overwriting with a
        // vector that still has one level-1 request for output 2 must keep
        // the union bit set.
        let mut cs = CandidateSet::new(4, 2);
        cs.set_input(0, &[cand(0, 0, 2, 9.0), cand(0, 1, 2, 5.0)]);
        cs.set_input(0, &[cand(0, 0, 0, 9.0), cand(0, 1, 2, 5.0)]);
        assert!(cs.requests(0, 2));
        assert_eq!(cs.requesters::<1>(2), PortSet::from_words(&[0b01]));
        assert_eq!(cs.requesters_at(0, 2), &[0]);
        assert_eq!(cs.requesters_at(1, 2), &[0b01]);
    }

    #[test]
    fn multi_word_index_crosses_word_boundaries() {
        // 130 ports → four words.  Inputs in different words request the
        // same top-word output; all three indexes must place the bits in
        // the right words.
        let mut cs = CandidateSet::new(130, 2);
        assert_eq!(cs.words, 4);
        cs.set_input(1, &[cand(1, 0, 129, 5.0)]);
        cs.set_input(70, &[cand(70, 0, 129, 9.0), cand(70, 1, 2, 1.0)]);
        cs.push(cand(129, 0, 64, 3.0));
        let r = cs.requesters_at(0, 129);
        assert_eq!(r, &[1u64 << 1, 1u64 << 6, 0, 0]);
        assert_eq!(
            cs.requesters::<4>(129),
            PortSet::from_words(&[1u64 << 1, 1u64 << 6, 0, 0])
        );
        assert_eq!(cs.requesters_at(0, 64), &[0, 0, 1u64 << 1, 0]);
        // Output 129 sits in word 2 of the per-input output mask.
        assert_eq!(
            cs.output_mask::<4>(70),
            PortSet::from_words(&[1u64 << 2, 0, 1u64 << 1, 0])
        );
        assert!(cs.requests(70, 129));
        assert!(cs.requests(129, 64));
        assert!(!cs.requests(70, 64));
        assert_eq!(cs.best_level_for(70, 2), Some((1, cand(70, 1, 2, 1.0))));
        // Overwriting input 70 must clear its word-1 requester bits.
        cs.set_input(70, &[cand(70, 0, 0, 1.0)]);
        assert_eq!(
            cs.requesters::<4>(129),
            PortSet::from_words(&[1u64 << 1, 0, 0, 0])
        );
        assert!(!cs.requests(70, 129));
    }

    #[test]
    fn word_boundary_port_counts_get_exact_widths() {
        assert_eq!(CandidateSet::new(63, 1).words, 1);
        assert_eq!(CandidateSet::new(64, 1).words, 1);
        assert_eq!(CandidateSet::new(65, 1).words, 2);
        assert_eq!(CandidateSet::new(128, 1).words, 2);
        assert_eq!(CandidateSet::new(129, 1).words, 4);
    }

    #[test]
    fn max_ports_accepted() {
        let cs = CandidateSet::new(MAX_PORTS, 2);
        assert_eq!(cs.ports(), MAX_PORTS);
        assert_eq!(cs.words, 4);
    }

    #[test]
    #[should_panic(expected = "limiting a router to 256 ports")]
    fn too_many_ports_rejected_with_clear_error() {
        let _ = CandidateSet::new(MAX_PORTS + 1, 2);
    }

    #[test]
    fn iter_yields_all() {
        let mut cs = CandidateSet::new(3, 2);
        cs.set_input(0, &[cand(0, 0, 1, 3.0)]);
        cs.set_input(2, &[cand(2, 1, 0, 7.0), cand(2, 2, 1, 2.0)]);
        let all: Vec<_> = cs.iter().collect();
        assert_eq!(all.len(), 3);
        let inputs: Vec<_> = all.iter().map(|c| c.input).collect();
        assert_eq!(inputs, vec![0, 2, 2]);
    }
}
