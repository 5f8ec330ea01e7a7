//! The search state: an arrangement plus a cut profile over its pin
//! incidence, which scores a move before it is made.
//!
//! Each gap keeps its crossing count, and the state scores a swap on one of
//! three [`Layout`]s of the netlist's incidence:
//!
//! - **Pairs:** W, the number of nets between each two elements, `n × n`
//!   counts in element order, built once per two-pin netlist and shared by
//!   every state under it. A two-pin net's crossings depend only on its two
//!   ends. Swap element `a` at position `lo` with `b` at `hi`, and let `D[k]
//!   = W[a][c] − W[b][c]` for the element `c` at each other position `k`.
//!   Gap `lo` changes by `Σ_{k<lo} D − Σ_{k>lo, k≠hi} D`, each later gap in
//!   `lo..hi` by `2·D[k]` more than the one before it, and no gap outside
//!   `lo..hi` changes; nets between `a` and `b` keep their span. One pass
//!   over the positions, with no loop over nets and no pin bits.
//! - **Masks:** per net, a mask of its pins' positions, `⌈n/64⌉` words. A
//!   net spans from its mask's lowest set bit `lo` to its highest `hi`, and
//!   crosses gaps `lo..hi`. A swap visits the nets incident to exactly one
//!   of the two swapped elements; each reads its span ends off its mask in a
//!   few word operations and adds its old and new ends, ±1, to a difference
//!   array over the gaps.
//! - **Rows:** per position, a row of the nets with a pin there, `⌈m/64⌉`
//!   words. A swap is scored with no loop over nets: a backward and a
//!   forward pass OR the rows right and left of each gap between the two
//!   positions, and popcounts of the nets whose pin moves against them give
//!   each gap's change, which goes into the same difference array.
//!
//! [`ArrangedState::new`] picks the layout once, from the netlist alone:
//! pairs for every two-pin netlist (GOLA). For multi-pin nets a row sweep
//! costs time in proportion to `n·m/64`, a mask visit in proportion to the
//! degree of the two swapped elements: rows for a few elements with many
//! pins each, such as the paper's NOLA instances, masks for everything else.
//!
//! Every change lies between the two positions the swap touches. One sweep
//! of that range adds the difference array's running sum to the crossing
//! counts and takes the maximum; the gaps outside it keep their counts, so
//! the density after the move is the larger of the two maxima. Nothing is
//! written until the move is committed, and the commit reuses the
//! difference array its score built. [`CutProfile::build`] is the
//! from-scratch oracle that a state is built from and
//! [`ArrangedState::verify`] checks against.

use std::sync::Arc;

use anneal_netlist::Netlist;

use crate::arrangement::Arrangement;
use crate::density::CutProfile;
use crate::problem::Swap;

/// How an [`ArrangedState`] holds the incidence it scores swaps on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Per pair of elements, the nets between them, shared by every state of
    /// a two-pin netlist: a swap reads two rows of counts. The `n²` counts
    /// take 4 MB at 1,024 elements.
    Pairs,
    /// Per net, the positions of its pins: a swap visits the nets of the two
    /// swapped elements.
    Masks,
    /// Per position, the nets with a pin there: a swap sweeps every row once.
    Rows,
}

impl Layout {
    /// The layout a state under `netlist` scores on: pairs for a two-pin
    /// netlist; otherwise rows when one sweep of the `n` rows, `⌈m/64⌉`
    /// words each, reads fewer words than the masks of an average swap,
    /// `2·pins/n` nets of `⌈n/64⌉` words (both sides times `n` below).
    pub(crate) fn of(netlist: &Netlist) -> Self {
        if netlist.is_two_pin() {
            return Layout::Pairs;
        }
        let n = netlist.n_elements();
        let sweep = n * n * netlist.n_nets().div_ceil(64);
        if sweep < 2 * netlist.total_pins() * n.div_ceil(64) {
            Layout::Rows
        } else {
            Layout::Masks
        }
    }
}

/// W for `netlist`: the number of nets between elements `a` and `c` at
/// `a * n + c`, allocated once in place. Empty unless every net is two-pin.
pub(crate) fn pair_counts(netlist: &Netlist) -> Arc<[i32]> {
    if !netlist.is_two_pin() {
        return Arc::default();
    }
    let n = netlist.n_elements();
    let mut pairs: Arc<[i32]> = std::iter::repeat_n(0, n * n).collect();
    let w = Arc::get_mut(&mut pairs).expect("a new allocation is unshared");
    for pins in netlist.nets() {
        let (a, c) = (pins[0] as usize, pins[1] as usize);
        w[a * n + c] += 1;
        w[c * n + a] += 1;
    }
    pairs
}

/// An arrangement with its cut profile: the density reads in O(1), and a
/// swap is scored without making it.
///
/// `ArrangedState` deliberately does not borrow the netlist (the
/// [`Problem`](anneal_core::Problem) owner holds it); every method that
/// reads it takes it as an argument, and it must be the netlist the state
/// was built with.
#[derive(Debug)]
pub struct ArrangedState {
    arrangement: Arrangement,
    layout: Layout,
    /// The netlist's [`pair_counts`], which every state of the instance
    /// shares and none copies: W for a two-pin netlist, empty otherwise.
    pairs: Arc<[i32]>,
    /// Words per line of `bits`: `⌈n/64⌉` per net under [`Layout::Masks`],
    /// `⌈m/64⌉` per position under [`Layout::Rows`], none under
    /// [`Layout::Pairs`].
    words: usize,
    /// The pin incidence, one line of `words` words per net (masks) or per
    /// position (rows). Net `i` has a pin at position `x` when bit `x % 64`
    /// of word `i * words + x / 64` is set (masks), or bit `i % 64` of word
    /// `x * words + i / 64` (rows). Empty under [`Layout::Pairs`].
    bits: Vec<u64>,
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
            && self.layout == other.layout
            && self.pairs == other.pairs
            && self.bits == other.bits
            && self.cut == other.cut
            && self.density == other.density
    }
}

impl Eq for ArrangedState {}

impl Clone for ArrangedState {
    fn clone(&self) -> Self {
        ArrangedState {
            arrangement: self.arrangement.clone(),
            layout: self.layout,
            pairs: Arc::clone(&self.pairs),
            words: self.words,
            bits: self.bits.clone(),
            cut: self.cut.clone(),
            density: self.density,
            diff: vec![0; self.diff.len()],
        }
    }

    /// Copies `source` into the buffers `self` already owns: a chain
    /// records its best state this way at every improvement.
    fn clone_from(&mut self, source: &Self) {
        self.arrangement.clone_from(&source.arrangement);
        self.layout = source.layout;
        self.pairs.clone_from(&source.pairs);
        self.words = source.words;
        self.bits.clone_from(&source.bits);
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
    /// Builds the state for `arrangement` under `netlist`, in the layout
    /// `Layout::of` picks for the netlist, with pair counts of its own;
    /// [`LinearArrangementProblem::state_from`] shares the instance's.
    ///
    /// [`LinearArrangementProblem::state_from`]: crate::LinearArrangementProblem::state_from
    ///
    /// # Panics
    ///
    /// Panics if sizes disagree.
    pub fn new(netlist: &Netlist, arrangement: Arrangement) -> Self {
        let pairs = pair_counts(netlist);
        Self::with_layout(netlist, arrangement, Layout::of(netlist), pairs)
    }

    /// Builds the state for `arrangement` under `netlist` in `layout`, on
    /// `pairs`, the netlist's [`pair_counts`].
    pub(crate) fn with_layout(
        netlist: &Netlist,
        arrangement: Arrangement,
        layout: Layout,
        pairs: Arc<[i32]>,
    ) -> Self {
        let profile = CutProfile::build(netlist, &arrangement);
        let n = arrangement.len();
        let (lines, width) = match layout {
            Layout::Pairs => (0, 0),
            Layout::Masks => (netlist.n_nets(), n),
            Layout::Rows => (n, netlist.n_nets()),
        };
        let words = width.div_ceil(64);
        let mut bits = vec![0; lines * words];
        for (net, pins) in netlist.nets().enumerate() {
            for &pin in pins {
                let x = arrangement.position_of(pin) as usize;
                let (line, index) = match layout {
                    Layout::Pairs => continue,
                    Layout::Masks => (net, x),
                    Layout::Rows => (x, net),
                };
                flip(&mut bits[line * words..][..words], index);
            }
        }
        ArrangedState {
            layout,
            pairs,
            words,
            bits,
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

    /// The layout the state scores its moves on.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Swaps the elements at positions `p` and `q`.
    pub fn swap(&mut self, netlist: &Netlist, p: usize, q: usize) {
        self.try_move(netlist, Swap(p, q), |_| true);
    }

    /// Whether the state equals one built from scratch for its arrangement
    /// in its layout: the same pair counts and pin incidence, and
    /// [`CutProfile::build`]'s crossing counts and density (test support).
    pub fn verify(&self, netlist: &Netlist) -> bool {
        let pairs = pair_counts(netlist);
        *self == Self::with_layout(netlist, self.arrangement.clone(), self.layout, pairs)
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

    /// Line `i` of the pin incidence: net `i`'s mask or position `i`'s row.
    fn line(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..][..self.words]
    }

    /// Adds the gap changes of swapping the elements at `p` and `q` to
    /// `diff`, and returns the range they lie in.
    fn score(&self, netlist: &Netlist, Swap(p, q): Swap, diff: &mut [i32]) -> Scored {
        let (lo, hi) = (p.min(q), p.max(q));
        match self.layout {
            Layout::Pairs => self.score_pairs(lo, hi, diff),
            Layout::Masks => {
                let a = self.arrangement.element_at(p) as usize;
                let b = self.arrangement.element_at(q) as usize;
                for &net in netlist.nets_of(a) {
                    self.move_pin(net, p, q, diff);
                }
                for &net in netlist.nets_of(b) {
                    self.move_pin(net, q, p, diff);
                }
            }
            Layout::Rows => self.score_rows(lo, hi, diff),
        }
        Scored { lo, hi }
    }

    /// Scores net `net`'s pin moving from position `x` to position `y` on
    /// its mask, adding its span change to `diff`. A net with a pin at `y`
    /// as well keeps its positions under a swap, so it changes nothing.
    #[inline]
    fn move_pin(&self, net: u32, x: usize, y: usize, diff: &mut [i32]) {
        let mask = self.line(net as usize);
        if mask[y / 64] & bit(y) != 0 {
            return;
        }
        let (lo, hi) = ends_without(mask, x);
        shift_span(diff, (lo.min(x), hi.max(x)), (lo.min(y), hi.max(y)));
    }

    /// Scores the swap of positions `lo <= hi` on the pair counts, writing
    /// its gap changes to `diff` as the module doc derives them.
    fn score_pairs(&self, lo: usize, hi: usize, diff: &mut [i32]) {
        let order = self.arrangement.order();
        let n = order.len();
        let row = |x: usize| &self.pairs[order[x] as usize * n..][..n];
        let (a, b) = (row(lo), row(hi));
        let d = |&c: &u32| a[c as usize] - b[c as usize];
        let mut sum: i32 = order[..lo].iter().map(d).sum();
        sum -= order[hi + 1..].iter().map(d).sum::<i32>();
        for k in lo + 1..hi {
            let dk = d(&order[k]);
            diff[k] = 2 * dk;
            sum -= dk;
        }
        diff[lo] = sum;
    }

    /// Scores the swap of positions `lo <= hi` on the rows, adding its gap
    /// changes to `diff`.
    ///
    /// A net in `u`, with a pin at `lo` and none at `hi`, moves that pin to
    /// `hi`. Over a gap `g` in `lo..hi` it comes to cross when it has
    /// another pin at or left of `g`, and stops crossing when it has one
    /// right of `g`. A net in `v` moves its pin from `hi` to `lo`, the other
    /// way round. So gap `g` changes by `|u ∩ left| − |v ∩ left| + |v ∩
    /// right| − |u ∩ right|`, where `left` holds the nets with a pin at or
    /// left of `g` other than at `lo`, and `right` those with a pin right
    /// of `g` other than at `hi`.
    fn score_rows(&self, lo: usize, hi: usize, diff: &mut [i32]) {
        let words = self.words;
        let n = self.arrangement.len();
        for k in 0..words {
            let at = |x: usize| self.bits[x * words + k];
            let (u, v) = (at(lo) & !at(hi), at(hi) & !at(lo));
            let gain = |nets: u64| (u & nets).count_ones() as i32 - (v & nets).count_ones() as i32;
            let mut right = (hi + 1..n).fold(0, |nets, x| nets | at(x));
            for (d, g) in diff[lo..hi].iter_mut().zip(lo..hi).rev() {
                *d -= gain(right);
                right |= at(g);
            }
            let mut left = (0..lo).fold(0, |nets, x| nets | at(x));
            for (d, g) in diff[lo..hi].iter_mut().zip(lo..hi) {
                *d += gain(left);
                left |= at(g + 1);
            }
        }
        // `diff` holds each gap's change; leave the differences between
        // neighbouring gaps instead.
        for g in (lo + 1..hi).rev() {
            diff[g] -= diff[g - 1];
        }
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
        match self.layout {
            Layout::Pairs => {}
            Layout::Masks => {
                let a = self.arrangement.element_at(p) as usize;
                let b = self.arrangement.element_at(q) as usize;
                // A net incident to both elements is flipped twice and keeps
                // its positions.
                for &net in netlist.nets_of(a).iter().chain(netlist.nets_of(b)) {
                    let mask = &mut self.bits[net as usize * words..][..words];
                    flip(mask, p);
                    flip(mask, q);
                }
            }
            Layout::Rows => {
                for k in 0..words {
                    self.bits.swap(p * words + k, q * words + k);
                }
            }
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

/// The bit of index `x` within its word.
fn bit(x: usize) -> u64 {
    1 << (x % 64)
}

/// Toggles index `x` in `line`.
fn flip(line: &mut [u64], x: usize) {
    line[x / 64] ^= bit(x);
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
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    /// An arbitrary netlist plus a seed, in the three size bands of the
    /// property tests' `arb_instance`: element counts within one 64-bit
    /// word, across the first word boundary, or across the second.
    fn arb_instance() -> impl Strategy<Value = (Netlist, u64)> {
        let n = prop_oneof![2usize..16, 60usize..70, 124usize..136];
        (n, 0usize..480, any::<u64>(), any::<bool>()).prop_map(|(n, m, seed, multi)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = 1 + m % (4 * n);
            let nl = if multi && n >= 4 {
                random_multi_pin(n, m, 2, (n / 12).clamp(4, 10), &mut rng)
            } else {
                random_two_pin(n, m, &mut rng)
            };
            (nl, seed)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_layout_scores_and_makes_every_move_alike(
            (nl, seed) in arb_instance(),
            answers in vec(any::<bool>(), 1..60),
        ) {
            let n = nl.n_elements();
            let mut rng = StdRng::seed_from_u64(seed);
            let start = Arrangement::random(n, &mut rng);
            let pairs = pair_counts(&nl);
            let mut layouts = vec![Layout::Masks, Layout::Rows];
            if nl.is_two_pin() {
                layouts.push(Layout::Pairs);
            }
            let mut states: Vec<_> = layouts
                .into_iter()
                .map(|layout| ArrangedState::with_layout(&nl, start.clone(), layout, pairs.clone()))
                .collect();
            for answer in answers {
                let mv = Swap(rng.random_range(0..n), rng.random_range(0..n));
                let scores: Vec<_> = states
                    .iter_mut()
                    .map(|s| s.try_move(&nl, mv, |_| answer))
                    .collect();
                let oracle = CutProfile::build(&nl, states[0].arrangement());
                for (s, &score) in states.iter().zip(&scores) {
                    let layout = s.layout();
                    prop_assert_eq!(score, scores[0], "{:?} {:?}", layout, mv);
                    prop_assert_eq!(s.arrangement(), states[0].arrangement());
                    prop_assert_eq!(s.cuts(), oracle.cuts(), "{:?} {:?}", layout, mv);
                    prop_assert_eq!(s.density(), oracle.density(), "{:?} {:?}", layout, mv);
                    prop_assert!(s.verify(&nl), "{:?} {:?}", layout, mv);
                    prop_assert!(s.diff.iter().all(|&d| d == 0), "{:?} {:?}", layout, mv);
                }
            }
        }
    }

    #[test]
    fn the_states_of_one_problem_share_its_pair_counts() {
        let mut rng = StdRng::seed_from_u64(12);
        let p = crate::LinearArrangementProblem::new(random_two_pin(15, 150, &mut rng));
        let a = p.state_from(Arrangement::random(15, &mut rng));
        let b = p.state_from(Arrangement::random(15, &mut rng));
        let mut c = ArrangedState::new(p.netlist(), Arrangement::identity(15));
        c.clone_from(&a);
        for s in [&b, &a.clone(), &c] {
            assert!(Arc::ptr_eq(&a.pairs, &s.pairs));
        }
    }

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
