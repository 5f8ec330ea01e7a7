//! The search state: an arrangement plus a position-mask cut profile that
//! scores a move before it is made.
//!
//! Each net keeps a bitmask of its pins' positions, `⌈n/64⌉` words wide, and
//! each gap its crossing count. A net spans from its mask's lowest set bit
//! `lo` to its highest `hi`, and crosses gaps `lo..hi`. Scoring a move takes
//! two steps:
//!
//! 1. Every net whose pin positions change adds its old and new span ends,
//!    ±1, to a difference array over the gaps. These are the nets incident
//!    to exactly one of the two swapped elements, and each reads its ends
//!    off its mask in a few word operations. Every change lies between the
//!    two positions the swap touches.
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
use crate::problem::Swap;

/// An arrangement with its position-mask cut profile: the density reads in
/// O(1), and a swap is scored without making it.
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
    /// The difference array a score writes over the gaps, one entry past
    /// the last, and its commit or discard clears: all zero between moves,
    /// and excluded from equality, so it never distinguishes states.
    diff: Vec<i32>,
}

impl PartialEq for ArrangedState {
    fn eq(&self, other: &Self) -> bool {
        self.arrangement == other.arrangement
            && self.masks == other.masks
            && self.cut == other.cut
            && self.density == other.density
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
            diff: vec![0; self.diff.len()],
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
        if self.diff.len() != source.diff.len() {
            self.diff = vec![0; source.diff.len()];
        }
    }
}

/// A swap scored against a state and not yet made. Its gap changes wait in
/// the difference array until [`ArrangedState::commit`] or
/// [`Scored::discard`] clears them.
#[derive(Debug, Clone, Copy)]
struct Scored {
    /// Every crossing count that changes lies in gaps `lo..hi`, and every
    /// nonzero entry of the difference array in `lo..=hi`.
    lo: usize,
    hi: usize,
}

impl Scored {
    /// Drops the move, leaving the difference array zero again.
    fn discard(&self, diff: &mut [i32]) {
        diff[self.lo..=self.hi].fill(0);
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
            diff: vec![0; n],
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

    /// The crossing count of every gap, left to right.
    pub fn cuts(&self) -> &[u32] {
        &self.cut
    }

    /// Swaps the elements at positions `p` and `q`.
    pub fn swap(&mut self, netlist: &Netlist, p: usize, q: usize) {
        self.try_move(netlist, Swap(p, q), |_| true);
    }

    /// Whether the state equals one built from scratch for its arrangement:
    /// the same pin masks, and [`CutProfile::build`]'s crossing counts and
    /// density (test support).
    pub fn verify(&self, netlist: &Netlist) -> bool {
        *self == Self::new(netlist, self.arrangement.clone())
    }

    /// Scores `mv`, passes the density it leads to to `accept`, and makes
    /// the move only when `accept` says yes. Returns the density and the
    /// answer.
    pub(crate) fn try_move(
        &mut self,
        netlist: &Netlist,
        mv: Swap,
        accept: impl FnOnce(f64) -> bool,
    ) -> (f64, bool) {
        let mut diff = std::mem::take(&mut self.diff);
        let scored = self.score(netlist, mv, &mut diff);
        let density = self.density_after(&scored, &diff);
        let accepted = accept(f64::from(density));
        if accepted {
            self.commit(netlist, mv, &scored, density, &mut diff);
        } else {
            scored.discard(&mut diff);
        }
        self.diff = diff;
        (f64::from(density), accepted)
    }

    /// The density of the state `mv` leads to, computed without making the
    /// move. `diff` must be all zero, and is left so.
    pub(crate) fn density_after_swap(&self, netlist: &Netlist, mv: Swap, diff: &mut [i32]) -> u32 {
        let scored = self.score(netlist, mv, diff);
        let density = self.density_after(&scored, diff);
        scored.discard(diff);
        density
    }

    /// Net `net`'s position mask.
    fn mask(&self, net: u32) -> &[u64] {
        &self.masks[net as usize * self.words..][..self.words]
    }

    /// Adds the gap changes of swapping the elements at `p` and `q` to
    /// `diff`, and returns the range they lie in.
    fn score(&self, netlist: &Netlist, Swap(p, q): Swap, diff: &mut [i32]) -> Scored {
        let a = self.arrangement.element_at(p) as usize;
        let b = self.arrangement.element_at(q) as usize;
        for &net in netlist.nets_of(a) {
            self.move_pin(net, p, q, diff);
        }
        for &net in netlist.nets_of(b) {
            self.move_pin(net, q, p, diff);
        }
        Scored {
            lo: p.min(q),
            hi: p.max(q),
        }
    }

    /// Scores net `net`'s pin moving from position `x` to position `y`,
    /// adding its span change to `diff`. A net with a pin at `y` as well
    /// keeps its positions under a swap, so it changes nothing.
    #[inline]
    fn move_pin(&self, net: u32, x: usize, y: usize, diff: &mut [i32]) {
        let mask = self.mask(net);
        if mask[y / 64] & bit(y) != 0 {
            return;
        }
        let (lo, hi) = ends_without(mask, x);
        shift_span(diff, (lo.min(x), hi.max(x)), (lo.min(y), hi.max(y)));
    }

    /// The density after the scored move: one sweep of its gap range, plus
    /// the unchanged gaps outside it when the range alone falls short of
    /// the current density.
    fn density_after(&self, scored: &Scored, diff: &[i32]) -> u32 {
        let Scored { lo, hi } = *scored;
        let mut run = 0;
        let mut inside = 0;
        for (&c, &d) in self.cut[lo..hi].iter().zip(&diff[lo..hi]) {
            run += d;
            inside = inside.max(c.wrapping_add_signed(run));
        }
        if inside >= self.density {
            return inside;
        }
        let outside = self.cut[..lo].iter().chain(&self.cut[hi..]).max();
        inside.max(outside.copied().unwrap_or(0))
    }

    /// Makes the scored swap `mv`, whose density is `density`, and clears
    /// its gap changes from `diff`.
    fn commit(
        &mut self,
        netlist: &Netlist,
        Swap(p, q): Swap,
        scored: &Scored,
        density: u32,
        diff: &mut [i32],
    ) {
        let words = self.words;
        let a = self.arrangement.element_at(p) as usize;
        let b = self.arrangement.element_at(q) as usize;
        // A net incident to both elements is flipped twice and keeps its
        // positions.
        for &net in netlist.nets_of(a).iter().chain(netlist.nets_of(b)) {
            let mask = &mut self.masks[net as usize * words..][..words];
            flip(mask, p);
            flip(mask, q);
        }
        self.arrangement.swap_positions(p, q);
        let Scored { lo, hi } = *scored;
        let mut run = 0;
        for (c, d) in self.cut[lo..hi].iter_mut().zip(&mut diff[lo..hi]) {
            run += std::mem::take(d);
            *c = c.wrapping_add_signed(run);
        }
        diff[hi] = 0;
        self.density = density;
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
/// (a net spanning `(lo, hi)` adds 1 at `lo` and takes 1 at `hi`). An end
/// that does not move adds and takes 1 at the same entry, so only the
/// entries between the ends that move change; writing all four
/// unconditionally saves a branch that no predictor can learn.
#[inline]
fn shift_span(diff: &mut [i32], old: (usize, usize), new: (usize, usize)) {
    diff[old.0] -= 1;
    diff[new.0] += 1;
    diff[old.1] += 1;
    diff[new.1] -= 1;
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
    fn moves_across_mask_words_update_incrementally() {
        // 150 elements: three mask words per net, and swaps whose two
        // positions lie in different words.
        let mut rng = StdRng::seed_from_u64(11);
        let nl = random_multi_pin(150, 600, 2, 10, &mut rng);
        let mut s = ArrangedState::new(&nl, Arrangement::random(150, &mut rng));
        for _ in 0..300 {
            let p = rng.random_range(0..150);
            let q = rng.random_range(0..150);
            s.swap(&nl, p, q);
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
        for p in [0, 3, 7] {
            s.swap(&nl, p, p);
        }
        assert_eq!(s, before);
        assert!(s.verify(&nl));
    }
}
