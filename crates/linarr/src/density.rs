//! Cut density, computed from scratch.
//!
//! For an arrangement of `n` elements there are `n-1` *gaps* between adjacent
//! positions. A net *crosses* gap `g` when it has pins on both sides, i.e.
//! when its position span `[lo, hi]` satisfies `lo ≤ g < hi`. The **density**
//! of the arrangement is the maximum crossing count over all gaps (§4.1) —
//! the quantity NOLA/GOLA minimize.
//!
//! [`CutProfile::build`] computes it in O(total pins + total span),
//! counting every net into every gap it crosses. It is the oracle that the
//! incremental [`ArrangedState`](crate::ArrangedState) is built from and
//! checked against ([`ArrangedState::verify`]); the search itself never
//! rebuilds a profile.
//!
//! [`ArrangedState::verify`]: crate::ArrangedState::verify

use anneal_netlist::Netlist;

use crate::arrangement::Arrangement;

/// The cut structure of an arrangement: per-net spans, per-gap crossing
/// counts and the density.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutProfile {
    /// Per net: its position span `(lo, hi)`, `lo < hi` (nets have ≥ 2
    /// pins at distinct positions).
    spans: Vec<(u32, u32)>,
    /// Per gap `g` in `0..n-1`: number of nets crossing it.
    cut: Vec<u32>,
    /// `max_g cut[g]`, or 0 without gaps.
    density: u32,
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
        let spans: Vec<(u32, u32)> = netlist
            .nets()
            .map(|pins| {
                pins.iter()
                    .map(|&pin| arrangement.position_of(pin))
                    .fold((u32::MAX, 0), |(lo, hi), p| (lo.min(p), hi.max(p)))
            })
            .collect();
        let mut cut = vec![0; arrangement.len() - 1];
        for &(lo, hi) in &spans {
            for c in &mut cut[lo as usize..hi as usize] {
                *c += 1;
            }
        }
        CutProfile {
            density: cut.iter().copied().max().unwrap_or(0),
            spans,
            cut,
        }
    }

    /// The density (maximum crossing count over all gaps).
    pub fn density(&self) -> u32 {
        self.density
    }

    /// The crossing count of every gap, left to right.
    pub fn cuts(&self) -> &[u32] {
        &self.cut
    }

    /// The crossing count of gap `g` (between positions `g` and `g+1`).
    ///
    /// # Panics
    ///
    /// Panics if `g >= n - 1`.
    pub fn cut_at(&self, g: usize) -> u32 {
        self.cut[g]
    }

    /// The span of `net`.
    pub fn span(&self, net: usize) -> (u32, u32) {
        self.spans[net]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(p.cuts(), [1, 3, 1]);
        assert_eq!(p.density(), 3);
    }

    #[test]
    fn multi_pin_net_span() {
        let nl = Netlist::builder(5).net([0, 2, 4]).build().unwrap();
        let arr = Arrangement::identity(5);
        let p = CutProfile::build(&nl, &arr);
        assert_eq!(p.span(0), (0, 4));
        assert_eq!(p.density(), 1);
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
    }

    #[test]
    #[should_panic(expected = "must match the netlist")]
    fn size_mismatch_panics() {
        let nl = path_netlist();
        let arr = Arrangement::identity(3);
        let _ = CutProfile::build(&nl, &arr);
    }
}
