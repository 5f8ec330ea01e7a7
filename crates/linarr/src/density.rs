//! Incremental cut-density evaluation.
//!
//! For an arrangement of `n` elements there are `n-1` *gaps* between adjacent
//! positions. A net *crosses* gap `g` when it has pins on both sides, i.e.
//! when its position span `[lo, hi]` satisfies `lo ≤ g < hi`. The **density**
//! of the arrangement is the maximum crossing count over all gaps (§4.1) —
//! the quantity NOLA/GOLA minimize.
//!
//! [`CutProfile`] maintains, incrementally:
//!
//! * per net, its current position span,
//! * per gap, its crossing count,
//! * a histogram of crossing counts with the running maximum (the density),
//! * the total span length (the classic total-wirelength objective, kept as
//!   a secondary objective at negligible cost).
//!
//! Updating after a perturbation costs O(pins of affected nets × span
//! lengths); a full rebuild is O(total pins + n). The `linarr/*_cycle`
//! kernels of the `bench` binary in `anneal-experiments` time the update.

use anneal_netlist::Netlist;

use crate::arrangement::Arrangement;

/// Incrementally maintained cut structure of an arrangement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutProfile {
    /// Per net: current position span `(lo, hi)`, `lo < hi` (nets have ≥ 2
    /// pins at distinct positions).
    spans: Vec<(u32, u32)>,
    /// Per gap `g` in `0..n-1`: number of nets crossing it.
    cut: Vec<u32>,
    /// `hist[c]` = number of gaps with crossing count `c` (length `m + 1`).
    hist: Vec<u32>,
    /// Current density: `max_g cut[g]`.
    max_cut: u32,
    /// Sum over nets of `hi - lo` (total wirelength).
    total_span: u64,
}

impl CutProfile {
    /// Builds the profile of `arrangement` from scratch.
    ///
    /// # Panics
    ///
    /// Panics if the arrangement size differs from the netlist's element
    /// count.
    pub fn build(netlist: &Netlist, arrangement: &Arrangement) -> Self {
        assert_eq!(
            netlist.n_elements(),
            arrangement.len(),
            "arrangement size must match the netlist"
        );
        let n = arrangement.len();
        let gaps = n.saturating_sub(1);
        let mut profile = CutProfile {
            spans: Vec::with_capacity(netlist.n_nets()),
            cut: vec![0; gaps],
            hist: vec![0; netlist.n_nets() + 1],
            max_cut: 0,
            total_span: 0,
        };
        profile.hist[0] = gaps as u32;
        for net in 0..netlist.n_nets() {
            let span = Self::span_of(netlist, arrangement, net);
            profile.spans.push(span);
            profile.add_span(span);
        }
        profile
    }

    /// The density (maximum crossing count over all gaps).
    pub fn density(&self) -> u32 {
        self.max_cut
    }

    /// Total span length over all nets (total wirelength).
    pub fn total_span(&self) -> u64 {
        self.total_span
    }

    /// The crossing count of gap `g` (between positions `g` and `g+1`).
    ///
    /// # Panics
    ///
    /// Panics if `g >= n - 1`.
    pub fn cut_at(&self, g: usize) -> u32 {
        self.cut[g]
    }

    /// The current span of `net`.
    pub fn span(&self, net: usize) -> (u32, u32) {
        self.spans[net]
    }

    /// Recomputes the spans of `nets` after `arrangement` changed, updating
    /// cuts, histogram, maximum and total span.
    ///
    /// `nets` must include every net whose span may have changed (i.e. all
    /// nets incident to any moved element) **exactly once** — duplicates
    /// would remove the same span twice and corrupt the gap counts.
    pub fn update_nets(
        &mut self,
        netlist: &Netlist,
        arrangement: &Arrangement,
        nets: impl IntoIterator<Item = u32> + Clone,
    ) {
        for net in nets.clone() {
            let span = self.spans[net as usize];
            self.remove_span(span);
        }
        for net in nets {
            let span = Self::span_of(netlist, arrangement, net as usize);
            self.spans[net as usize] = span;
            self.add_span(span);
        }
    }

    /// Recomputes the span of a single `net` after `arrangement` changed,
    /// touching only the gaps in the symmetric difference of the old and new
    /// span — the hot path of swap/relocate perturbations.
    ///
    /// All bookkeeping is integer arithmetic, so the resulting profile is
    /// identical to a full remove/re-add of the net's span (the
    /// `refresh_matches_update_nets` test pins this down).
    pub fn refresh_net(&mut self, netlist: &Netlist, arrangement: &Arrangement, net: usize) {
        let (old_lo, old_hi) = self.spans[net];
        let new = Self::span_of(netlist, arrangement, net);
        let (new_lo, new_hi) = new;
        if (old_lo, old_hi) == new {
            return;
        }
        self.spans[net] = new;
        self.total_span += (new_hi - new_lo) as u64;
        self.total_span -= (old_hi - old_lo) as u64;
        if new_hi <= old_lo || old_hi <= new_lo {
            // Disjoint gap ranges: plain remove + add.
            self.uncover(old_lo, old_hi);
            self.cover(new_lo, new_hi);
        } else {
            // Overlapping: gaps covered by both spans stay untouched.
            if old_lo < new_lo {
                self.uncover(old_lo, new_lo);
            } else {
                self.cover(new_lo, old_lo);
            }
            if new_hi < old_hi {
                self.uncover(new_hi, old_hi);
            } else {
                self.cover(old_hi, new_hi);
            }
        }
    }

    fn span_of(netlist: &Netlist, arrangement: &Arrangement, net: usize) -> (u32, u32) {
        let mut lo = u32::MAX;
        let mut hi = 0;
        for &pin in netlist.pins(net) {
            let p = arrangement.position_of(pin);
            lo = lo.min(p);
            hi = hi.max(p);
        }
        (lo, hi)
    }

    fn add_span(&mut self, (lo, hi): (u32, u32)) {
        self.total_span += (hi - lo) as u64;
        self.cover(lo, hi);
    }

    fn remove_span(&mut self, (lo, hi): (u32, u32)) {
        self.total_span -= (hi - lo) as u64;
        self.uncover(lo, hi);
    }

    /// Increments the crossing count of gaps `lo..hi`, maintaining the
    /// histogram and running maximum.
    fn cover(&mut self, lo: u32, hi: u32) {
        for g in lo..hi {
            let c = self.cut[g as usize];
            self.hist[c as usize] -= 1;
            self.hist[c as usize + 1] += 1;
            self.cut[g as usize] = c + 1;
            if c + 1 > self.max_cut {
                self.max_cut = c + 1;
            }
        }
    }

    /// Decrements the crossing count of gaps `lo..hi`, maintaining the
    /// histogram and running maximum.
    fn uncover(&mut self, lo: u32, hi: u32) {
        for g in lo..hi {
            let c = self.cut[g as usize];
            debug_assert!(c > 0, "removing a span from an empty gap");
            self.hist[c as usize] -= 1;
            self.hist[c as usize - 1] += 1;
            self.cut[g as usize] = c - 1;
        }
        while self.max_cut > 0 && self.hist[self.max_cut as usize] == 0 {
            self.max_cut -= 1;
        }
    }

    /// Verifies the profile against a from-scratch rebuild (test support).
    pub fn verify(&self, netlist: &Netlist, arrangement: &Arrangement) -> bool {
        *self == Self::build(netlist, arrangement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_netlist::generator::random_two_pin;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn path_netlist() -> Netlist {
        // 0-1, 1-2, 2-3 on 4 elements.
        Netlist::builder(4)
            .net([0, 1])
            .net([1, 2])
            .net([2, 3])
            .build()
            .unwrap()
    }

    #[test]
    fn identity_path_has_density_one() {
        let nl = path_netlist();
        let arr = Arrangement::identity(4);
        let p = CutProfile::build(&nl, &arr);
        assert_eq!(p.density(), 1);
        assert_eq!(p.total_span(), 3);
        for g in 0..3 {
            assert_eq!(p.cut_at(g), 1);
        }
    }

    #[test]
    fn interleaved_path_has_higher_density() {
        let nl = path_netlist();
        // Order 0 2 1 3: net(0,1) spans [0,2], net(1,2) spans [1,2],
        // net(2,3) spans [1,3]. Gap 1 is crossed by all three.
        let arr = Arrangement::from_order(vec![0, 2, 1, 3]);
        let p = CutProfile::build(&nl, &arr);
        assert_eq!(p.cut_at(0), 1);
        assert_eq!(p.cut_at(1), 3);
        assert_eq!(p.cut_at(2), 1);
        assert_eq!(p.density(), 3);
        assert_eq!(p.total_span(), 5);
    }

    #[test]
    fn multi_pin_net_span() {
        let nl = Netlist::builder(5).net([0, 2, 4]).build().unwrap();
        let arr = Arrangement::identity(5);
        let p = CutProfile::build(&nl, &arr);
        assert_eq!(p.span(0), (0, 4));
        assert_eq!(p.density(), 1);
        assert_eq!(p.total_span(), 4);
    }

    #[test]
    fn update_after_swap_matches_rebuild() {
        let nl = path_netlist();
        let mut arr = Arrangement::identity(4);
        let mut p = CutProfile::build(&nl, &arr);
        // Swap positions 1 and 2 (elements 1 and 2); affected nets: all
        // incident to elements 1 or 2 → nets 0, 1, 2.
        arr.swap_positions(1, 2);
        p.update_nets(&nl, &arr, [0u32, 1, 2]);
        assert!(p.verify(&nl, &arr));
    }

    #[test]
    fn incremental_random_walk_matches_rebuild() {
        let mut rng = StdRng::seed_from_u64(42);
        let nl = random_two_pin(15, 150, &mut rng);
        let mut arr = Arrangement::random(15, &mut rng);
        let mut p = CutProfile::build(&nl, &arr);
        for _ in 0..500 {
            let i = rng.random_range(0..15);
            let j = rng.random_range(0..15);
            let (a, b) = (arr.element_at(i), arr.element_at(j));
            arr.swap_positions(i, j);
            let mut nets: Vec<u32> = nl
                .nets_of(a as usize)
                .iter()
                .chain(nl.nets_of(b as usize))
                .copied()
                .collect();
            nets.sort_unstable();
            nets.dedup();
            p.update_nets(&nl, &arr, nets.iter().copied());
            assert!(p.verify(&nl, &arr));
        }
    }

    #[test]
    fn refresh_matches_update_nets() {
        // The symmetric-difference update must leave the profile in exactly
        // the state a full remove/re-add would — same spans, cuts,
        // histogram, max and total span (all integers, so bitwise).
        let mut rng = StdRng::seed_from_u64(1985);
        let nl = random_two_pin(15, 150, &mut rng);
        let mut arr = Arrangement::random(15, &mut rng);
        let mut fast = CutProfile::build(&nl, &arr);
        let mut slow = fast.clone();
        for _ in 0..500 {
            let i = rng.random_range(0..15);
            let j = rng.random_range(0..15);
            let (a, b) = (arr.element_at(i), arr.element_at(j));
            arr.swap_positions(i, j);
            let mut nets: Vec<u32> = nl
                .nets_of(a as usize)
                .iter()
                .chain(nl.nets_of(b as usize))
                .copied()
                .collect();
            nets.sort_unstable();
            nets.dedup();
            for &net in &nets {
                fast.refresh_net(&nl, &arr, net as usize);
            }
            slow.update_nets(&nl, &arr, nets.iter().copied());
            assert_eq!(fast, slow);
            assert!(fast.verify(&nl, &arr));
        }
    }

    #[test]
    fn single_element_arrangement_has_no_gaps() {
        let nl = Netlist::builder(2).net([0, 1]).build().unwrap();
        let arr = Arrangement::identity(2);
        let p = CutProfile::build(&nl, &arr);
        assert_eq!(p.density(), 1);
        // Degenerate n=1 netlists cannot have nets (min 2 pins), so density 0:
        let nl1 = Netlist::builder(1).build().unwrap();
        let arr1 = Arrangement::identity(1);
        let p1 = CutProfile::build(&nl1, &arr1);
        assert_eq!(p1.density(), 0);
        assert_eq!(p1.total_span(), 0);
    }

    #[test]
    #[should_panic(expected = "must match the netlist")]
    fn size_mismatch_panics() {
        let nl = path_netlist();
        let arr = Arrangement::identity(3);
        let _ = CutProfile::build(&nl, &arr);
    }
}
