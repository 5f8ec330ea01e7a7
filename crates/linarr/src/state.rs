//! The search state: an arrangement plus a position-mask cut profile that
//! scores a move before it is made.
//!
//! Each net keeps a bitmask of its pins' positions, `⌈n/64⌉` words wide, and
//! each gap its crossing count. A net spans from its mask's lowest set bit
//! `lo` to its highest `hi`, and crosses gaps `lo..hi`. Scoring a move takes
//! two steps:
//!
//! 1. Every net whose pin positions change adds its old and new span ends,
//!    ±1, to a difference array over the gaps. Under a swap these are the
//!    nets incident to exactly one of the two elements, and each reads its
//!    ends off its mask in a few word operations. Every change lies between
//!    the two positions the move touches.
//! 2. One sweep of that range adds the running sum to the crossing counts
//!    and takes the maximum. The gaps outside the range keep their counts,
//!    so the density after the move is the larger of the two maxima.
//!
//! Nothing is written until the move is committed, and the commit reuses
//! the difference array its score built. [`CutProfile::build`] is the
//! from-scratch oracle that a state is built from and
//! [`ArrangedState::verify`] checks against.

use anneal_netlist::Netlist;

use crate::arrangement::Arrangement;
use crate::density::CutProfile;
use crate::problem::{ArrMove, Objective};

/// An arrangement with its position-mask cut profile: both objectives
/// (density and total span) read in O(1), and a move is scored without
/// making it.
///
/// `ArrangedState` deliberately does not borrow the netlist (the
/// [`Problem`](anneal_core::Problem) owner holds it); every method that
/// reads it takes it as an argument, and it must be the netlist the state
/// was built with.
#[derive(Debug)]
pub struct ArrangedState {
    arrangement: Arrangement,
    /// Mask words per net: `⌈n / 64⌉`.
    words: usize,
    /// Net `i`'s pin positions: position `x` is bit `x % 64` of word
    /// `i * words + x / 64`.
    masks: Vec<u64>,
    /// Per gap `g` in `0..n-1`: the number of nets crossing it.
    cut: Vec<u32>,
    /// `max(cut)`, or 0 without gaps.
    density: u32,
    /// Sum over nets of `hi - lo` (total wirelength).
    total_span: u64,
    /// Reusable buffers for scoring; excluded from equality, so their
    /// contents never distinguish states.
    scratch: Scratch,
}

impl PartialEq for ArrangedState {
    fn eq(&self, other: &Self) -> bool {
        self.arrangement == other.arrangement
            && self.masks == other.masks
            && self.cut == other.cut
            && self.density == other.density
            && self.total_span == other.total_span
    }
}

impl Eq for ArrangedState {}

impl Clone for ArrangedState {
    fn clone(&self) -> Self {
        ArrangedState {
            arrangement: self.arrangement.clone(),
            words: self.words,
            masks: self.masks.clone(),
            cut: self.cut.clone(),
            density: self.density,
            total_span: self.total_span,
            scratch: Scratch::new(self.arrangement.len()),
        }
    }

    /// Copies `source` into the buffers `self` already owns: a chain
    /// records its best state this way at every improvement.
    fn clone_from(&mut self, source: &Self) {
        self.arrangement.clone_from(&source.arrangement);
        self.words = source.words;
        self.masks.clone_from(&source.masks);
        self.cut.clone_from(&source.cut);
        self.density = source.density;
        self.total_span = source.total_span;
        if self.scratch.diff.len() != source.scratch.diff.len() {
            self.scratch = Scratch::new(source.arrangement.len());
        }
    }
}

/// The buffers a score writes and its commit or discard clears.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// Difference array over the gaps, one entry past the last; all zero
    /// between moves.
    diff: Vec<i32>,
    /// The nets a relocation touches, ascending.
    nets: Vec<u32>,
}

impl Scratch {
    /// Buffers for a state of `n` elements.
    pub(crate) fn new(n: usize) -> Self {
        Scratch {
            diff: vec![0; n],
            nets: Vec::new(),
        }
    }
}

/// A move scored against a state and not yet made. Its gap changes wait in
/// the scratch buffers until [`ArrangedState::commit`] or
/// [`Scored::discard`] clears them.
#[derive(Debug, Clone, Copy)]
struct Scored {
    /// Every crossing count that changes lies in gaps `lo..hi`, and every
    /// nonzero entry of the difference array in `lo..=hi`.
    lo: usize,
    hi: usize,
    /// The total span after the move.
    total_span: u64,
}

impl Scored {
    /// Drops the move, leaving the difference array zero again.
    fn discard(&self, scratch: &mut Scratch) {
        scratch.diff[self.lo..=self.hi].fill(0);
    }
}

impl ArrangedState {
    /// Builds the state for `arrangement` under `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if sizes disagree.
    pub fn new(netlist: &Netlist, arrangement: Arrangement) -> Self {
        let profile = CutProfile::build(netlist, &arrangement);
        let n = arrangement.len();
        let words = n.div_ceil(64);
        let mut masks = vec![0; netlist.n_nets() * words];
        for (mask, pins) in masks.chunks_exact_mut(words).zip(netlist.nets()) {
            for &pin in pins {
                flip(mask, arrangement.position_of(pin) as usize);
            }
        }
        ArrangedState {
            words,
            masks,
            cut: profile.cuts().to_vec(),
            density: profile.density(),
            total_span: profile.total_span(),
            scratch: Scratch::new(n),
            arrangement,
        }
    }

    /// The current arrangement.
    pub fn arrangement(&self) -> &Arrangement {
        &self.arrangement
    }

    /// The current density.
    pub fn density(&self) -> u32 {
        self.density
    }

    /// The current total span (wirelength).
    pub fn total_span(&self) -> u64 {
        self.total_span
    }

    /// The crossing count of every gap, left to right.
    pub fn cuts(&self) -> &[u32] {
        &self.cut
    }

    /// Swaps the elements at positions `p` and `q`.
    pub fn swap(&mut self, netlist: &Netlist, p: usize, q: usize) {
        self.try_move(netlist, ArrMove::Swap(p, q), Objective::Density, |_| true);
    }

    /// Moves the element at position `from` to position `to`, shifting the
    /// elements in between.
    pub fn relocate(&mut self, netlist: &Netlist, from: usize, to: usize) {
        let mv = ArrMove::Relocate { from, to };
        self.try_move(netlist, mv, Objective::Density, |_| true);
    }

    /// Whether the state equals one built from scratch for its arrangement:
    /// the same pin masks, and [`CutProfile::build`]'s crossing counts,
    /// density and total span (test support).
    pub fn verify(&self, netlist: &Netlist) -> bool {
        *self == Self::new(netlist, self.arrangement.clone())
    }

    /// Scores `mv`, passes the cost `objective` gives it to `accept`, and
    /// makes the move only when `accept` says yes. Returns the cost and the
    /// answer.
    pub(crate) fn try_move(
        &mut self,
        netlist: &Netlist,
        mv: ArrMove,
        objective: Objective,
        accept: impl FnOnce(f64) -> bool,
    ) -> (f64, bool) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let scored = self.score(netlist, mv, &mut scratch);
        let density = match objective {
            Objective::Density => Some(self.density_after(&scored, &scratch)),
            Objective::TotalSpan => None,
        };
        let cost = density.map_or(scored.total_span as f64, f64::from);
        let accepted = accept(cost);
        if accepted {
            let density = density.unwrap_or_else(|| self.density_after(&scored, &scratch));
            self.commit(netlist, mv, &scored, density, &mut scratch);
        } else {
            scored.discard(&mut scratch);
        }
        self.scratch = scratch;
        (cost, accepted)
    }

    /// The cost `objective` gives the state `mv` leads to, computed without
    /// making the move. `scratch` must be zero, and is left zero.
    pub(crate) fn cost_after(
        &self,
        netlist: &Netlist,
        mv: ArrMove,
        objective: Objective,
        scratch: &mut Scratch,
    ) -> f64 {
        let scored = self.score(netlist, mv, scratch);
        let cost = match objective {
            Objective::Density => f64::from(self.density_after(&scored, scratch)),
            Objective::TotalSpan => scored.total_span as f64,
        };
        scored.discard(scratch);
        cost
    }

    /// Net `net`'s position mask.
    fn mask(&self, net: u32) -> &[u64] {
        &self.masks[net as usize * self.words..][..self.words]
    }

    /// Adds `mv`'s gap changes to `scratch.diff` and returns the range they
    /// lie in with the total span after the move.
    fn score(&self, netlist: &Netlist, mv: ArrMove, scratch: &mut Scratch) -> Scored {
        let (lo, hi, change) = match mv {
            ArrMove::Swap(p, q) => {
                let diff = &mut scratch.diff;
                let a = self.arrangement.element_at(p) as usize;
                let b = self.arrangement.element_at(q) as usize;
                let mut change = 0;
                for &net in netlist.nets_of(a) {
                    change += self.move_pin(net, p, q, diff);
                }
                for &net in netlist.nets_of(b) {
                    change += self.move_pin(net, q, p, diff);
                }
                (p.min(q), p.max(q), change)
            }
            ArrMove::Relocate { from, to } => {
                let (lo, hi) = (from.min(to), from.max(to));
                let Scratch { diff, nets } = scratch;
                nets.clear();
                for x in lo..=hi {
                    let e = self.arrangement.element_at(x) as usize;
                    nets.extend_from_slice(netlist.nets_of(e));
                }
                nets.sort_unstable();
                nets.dedup();
                // The moved element lands on `to`; the rest of the window
                // shifts one step toward `from`.
                let moved = |x: usize| match x {
                    _ if x == from => to,
                    _ if x < lo || x > hi => x,
                    _ if from < to => x - 1,
                    _ => x + 1,
                };
                let mut change = 0;
                for &net in nets.iter() {
                    let (mut old, mut new) = ((usize::MAX, 0), (usize::MAX, 0));
                    for &pin in netlist.pins(net as usize) {
                        let x = self.arrangement.position_of(pin) as usize;
                        let y = moved(x);
                        old = (old.0.min(x), old.1.max(x));
                        new = (new.0.min(y), new.1.max(y));
                    }
                    change += shift_span(diff, old, new);
                }
                (lo, hi, change)
            }
        };
        Scored {
            lo,
            hi,
            total_span: self.total_span.wrapping_add_signed(change),
        }
    }

    /// Scores net `net`'s pin moving from position `x` to position `y`,
    /// adding its span change to `diff`, and returns the change in its span
    /// length. A net with a pin at `y` as well keeps its positions under a
    /// swap, so it changes nothing.
    #[inline]
    fn move_pin(&self, net: u32, x: usize, y: usize, diff: &mut [i32]) -> i64 {
        let mask = self.mask(net);
        if mask[y / 64] & bit(y) != 0 {
            return 0;
        }
        let (lo, hi) = ends_without(mask, x);
        shift_span(diff, (lo.min(x), hi.max(x)), (lo.min(y), hi.max(y)))
    }

    /// The density after the scored move: one sweep of its gap range, plus
    /// the unchanged gaps outside it when the range alone falls short of
    /// the current density.
    fn density_after(&self, scored: &Scored, scratch: &Scratch) -> u32 {
        let Scored { lo, hi, .. } = *scored;
        let mut run = 0;
        let mut inside = 0;
        for (&c, &d) in self.cut[lo..hi].iter().zip(&scratch.diff[lo..hi]) {
            run += d;
            inside = inside.max(c.wrapping_add_signed(run));
        }
        if inside >= self.density {
            return inside;
        }
        let outside = self.cut[..lo].iter().chain(&self.cut[hi..]).max();
        inside.max(outside.copied().unwrap_or(0))
    }

    /// Makes the scored move `mv`, whose density is `density`, and clears
    /// its gap changes from `scratch`.
    fn commit(
        &mut self,
        netlist: &Netlist,
        mv: ArrMove,
        scored: &Scored,
        density: u32,
        scratch: &mut Scratch,
    ) {
        let words = self.words;
        match mv {
            ArrMove::Swap(p, q) => {
                let a = self.arrangement.element_at(p) as usize;
                let b = self.arrangement.element_at(q) as usize;
                // A net incident to both elements is flipped twice and
                // keeps its positions.
                for &net in netlist.nets_of(a).iter().chain(netlist.nets_of(b)) {
                    let mask = &mut self.masks[net as usize * words..][..words];
                    flip(mask, p);
                    flip(mask, q);
                }
                self.arrangement.swap_positions(p, q);
            }
            ArrMove::Relocate { from, to } => {
                self.arrangement.relocate(from, to);
                for &net in &scratch.nets {
                    let mask = &mut self.masks[net as usize * words..][..words];
                    mask.fill(0);
                    for &pin in netlist.pins(net as usize) {
                        flip(mask, self.arrangement.position_of(pin) as usize);
                    }
                }
            }
        }
        let Scored { lo, hi, total_span } = *scored;
        let mut run = 0;
        for (c, d) in self.cut[lo..hi].iter_mut().zip(&mut scratch.diff[lo..hi]) {
            run += std::mem::take(d);
            *c = c.wrapping_add_signed(run);
        }
        scratch.diff[hi] = 0;
        self.density = density;
        self.total_span = total_span;
    }
}

/// The bit of position `x` within its mask word.
fn bit(x: usize) -> u64 {
    1 << (x % 64)
}

/// Toggles position `x` in `mask`.
fn flip(mask: &mut [u64], x: usize) {
    mask[x / 64] ^= bit(x);
}

/// The lowest and highest positions set in `mask` other than `x`. A net has
/// at least two pins, so one always remains and both scans stop.
#[inline]
fn ends_without(mask: &[u64], x: usize) -> (usize, usize) {
    let word = |i: usize| {
        if i == x / 64 {
            mask[i] & !bit(x)
        } else {
            mask[i]
        }
    };
    let mut i = 0;
    while word(i) == 0 {
        i += 1;
    }
    let mut j = mask.len() - 1;
    while word(j) == 0 {
        j -= 1;
    }
    let lo = i * 64 + word(i).trailing_zeros() as usize;
    (lo, j * 64 + 63 - word(j).leading_zeros() as usize)
}

/// Moves one net's span from `old` to `new` in the difference array `diff`
/// (a net spanning `(lo, hi)` adds 1 at `lo` and takes 1 at `hi`), and
/// returns the change in the span's length. An end that does not move adds
/// and takes 1 at the same entry, so only the entries between the ends
/// that move change; writing all four unconditionally saves a branch that
/// no predictor can learn.
#[inline]
fn shift_span(diff: &mut [i32], old: (usize, usize), new: (usize, usize)) -> i64 {
    diff[old.0] -= 1;
    diff[new.0] += 1;
    diff[old.1] += 1;
    diff[new.1] -= 1;
    (new.1 - new.0) as i64 - (old.1 - old.0) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_netlist::generator::{random_multi_pin, random_two_pin};
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    #[test]
    fn swap_updates_incrementally() {
        let mut rng = StdRng::seed_from_u64(7);
        let nl = random_two_pin(15, 150, &mut rng);
        let mut s = ArrangedState::new(&nl, Arrangement::random(15, &mut rng));
        for _ in 0..200 {
            let p = rng.random_range(0..15);
            let q = rng.random_range(0..15);
            s.swap(&nl, p, q);
        }
        assert!(s.verify(&nl));
    }

    #[test]
    fn relocate_updates_incrementally() {
        let mut rng = StdRng::seed_from_u64(8);
        let nl = random_multi_pin(15, 150, 2, 5, &mut rng);
        let mut s = ArrangedState::new(&nl, Arrangement::random(15, &mut rng));
        for _ in 0..200 {
            let from = rng.random_range(0..15);
            let to = rng.random_range(0..15);
            s.relocate(&nl, from, to);
        }
        assert!(s.verify(&nl));
    }

    #[test]
    fn moves_across_mask_words_update_incrementally() {
        // 150 elements: three mask words per net, and moves whose two
        // positions lie in different words.
        let mut rng = StdRng::seed_from_u64(11);
        let nl = random_multi_pin(150, 600, 2, 10, &mut rng);
        let mut s = ArrangedState::new(&nl, Arrangement::random(150, &mut rng));
        for _ in 0..300 {
            let p = rng.random_range(0..150);
            let q = rng.random_range(0..150);
            if rng.random_bool(0.5) {
                s.swap(&nl, p, q);
            } else {
                s.relocate(&nl, p, q);
            }
            assert!(s.verify(&nl));
        }
    }

    #[test]
    fn swap_is_involutive_on_state() {
        let mut rng = StdRng::seed_from_u64(9);
        let nl = random_two_pin(10, 40, &mut rng);
        let mut s = ArrangedState::new(&nl, Arrangement::random(10, &mut rng));
        let before = s.clone();
        s.swap(&nl, 2, 7);
        assert_ne!(s.arrangement(), before.arrangement());
        s.swap(&nl, 2, 7);
        assert_eq!(s, before);
    }

    #[test]
    fn noop_moves_do_nothing() {
        let mut rng = StdRng::seed_from_u64(10);
        let nl = random_two_pin(8, 20, &mut rng);
        let mut s = ArrangedState::new(&nl, Arrangement::random(8, &mut rng));
        let before = s.clone();
        s.swap(&nl, 3, 3);
        s.relocate(&nl, 5, 5);
        assert_eq!(s, before);
        assert!(s.verify(&nl));
    }
}
