//! The paper's instance sets (§4.2.1, §4.3.1), regenerated deterministically
//! from a base seed.
//!
//! This module owns the seed stream of every generated instance: instance
//! `i` of a family at base seed `S` comes from [`gola_netlist`],
//! [`nola_netlist`], [`partition_netlist`] or [`tsp_instance`], each on its
//! own salted stream. The paper sets, the partition and TSP extensions and
//! the job server all build their instances through them.

use anneal_core::derive_seed;
use anneal_linarr::LinearArrangementProblem;
use anneal_netlist::generator::{
    random_multi_pin, random_two_pin, PAPER_ELEMENTS, PAPER_INSTANCES, PAPER_NETS,
};
use anneal_netlist::Netlist;
use anneal_tsp::TspInstance;
use rand::{rngs::StdRng, SeedableRng};

/// Base seed of the default experiment suite (the publication year).
pub const DEFAULT_SEED: u64 = 1985;

/// NOLA net sizes: the paper only says "150 nets", but its starting random
/// arrangements sum to density 4254 (≈ 142 per instance of 150 nets), which
/// pins down fairly large nets; pin counts uniform in 2..=10 reproduce that
/// starting density (documented substitution, DESIGN.md).
pub const NOLA_PIN_RANGE: (usize, usize) = (2, 10);

/// Offset added to the base seed for NOLA instances.
const NOLA_OFFSET: u64 = 0x4E4F;
/// Salt xored into the base seed for partition instances.
const PARTITION_SALT: u64 = 0x504152;
/// Salt xored into the base seed for TSP instances.
const TSP_SALT: u64 = 0x545350;

fn rng(stream: u64, i: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(stream, i))
}

/// GOLA instance `i` at base seed `seed`: `nets` random two-pin nets over
/// `elements` elements.
pub fn gola_netlist(seed: u64, i: u64, elements: usize, nets: usize) -> Netlist {
    random_two_pin(elements, nets, &mut rng(seed, i))
}

/// NOLA instance `i` at base seed `seed`: `nets` random nets over
/// `elements` elements, with pin counts drawn from [`NOLA_PIN_RANGE`].
///
/// # Panics
///
/// Panics if `elements` is below `NOLA_PIN_RANGE.1`.
pub fn nola_netlist(seed: u64, i: u64, elements: usize, nets: usize) -> Netlist {
    let (lo, hi) = NOLA_PIN_RANGE;
    let mut rng = rng(seed.wrapping_add(NOLA_OFFSET), i);
    random_multi_pin(elements, nets, lo, hi, &mut rng)
}

/// Partition instance `i` at base seed `seed`: `nets` random two-pin nets
/// over `elements` elements.
pub fn partition_netlist(seed: u64, i: u64, elements: usize, nets: usize) -> Netlist {
    random_two_pin(elements, nets, &mut rng(seed ^ PARTITION_SALT, i))
}

/// TSP instance `i` at base seed `seed`: `cities` uniform random cities in
/// the unit square.
pub fn tsp_instance(seed: u64, i: u64, cities: usize) -> TspInstance {
    TspInstance::random_euclidean(cities, &mut rng(seed ^ TSP_SALT, i))
}

/// The 30 GOLA instances: 15 elements, 150 two-pin nets each (§4.2.1).
pub fn gola_paper_set(seed: u64) -> Vec<LinearArrangementProblem> {
    (0..PAPER_INSTANCES as u64)
        .map(|i| LinearArrangementProblem::new(gola_netlist(seed, i, PAPER_ELEMENTS, PAPER_NETS)))
        .collect()
}

/// The 30 NOLA instances: 15 elements, 150 multi-pin nets each (§4.3.1).
pub fn nola_paper_set(seed: u64) -> Vec<LinearArrangementProblem> {
    (0..PAPER_INSTANCES as u64)
        .map(|i| LinearArrangementProblem::new(nola_netlist(seed, i, PAPER_ELEMENTS, PAPER_NETS)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_linarr::{Arrangement, Layout};

    #[test]
    fn gola_set_shape() {
        let set = gola_paper_set(DEFAULT_SEED);
        assert_eq!(set.len(), 30);
        for p in &set {
            assert_eq!(p.netlist().n_elements(), 15);
            assert_eq!(p.netlist().n_nets(), 150);
            assert!(p.is_gola());
        }
    }

    #[test]
    fn nola_set_shape() {
        let set = nola_paper_set(DEFAULT_SEED);
        assert_eq!(set.len(), 30);
        let mut any_multi = false;
        for p in &set {
            assert_eq!(p.netlist().n_nets(), 150);
            any_multi |= !p.is_gola();
        }
        assert!(any_multi, "NOLA instances must contain multi-pin nets");
    }

    #[test]
    fn sets_are_deterministic_and_distinct() {
        let a = gola_paper_set(7);
        let b = gola_paper_set(7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.netlist(), y.netlist());
        }
        let c = gola_paper_set(8);
        assert_ne!(a[0].netlist(), c[0].netlist());
        // GOLA and NOLA sets differ even at the same seed.
        let n = nola_paper_set(7);
        assert_ne!(a[0].netlist(), n[0].netlist());
    }

    #[test]
    fn gola_scores_on_pairs_and_only_the_paper_nola_instances_on_rows() {
        let layout = |p: &LinearArrangementProblem| {
            p.state_from(Arrangement::identity(p.netlist().n_elements()))
                .layout()
        };
        assert!(gola_paper_set(DEFAULT_SEED)
            .iter()
            .all(|p| layout(p) == Layout::Pairs));
        assert!(nola_paper_set(DEFAULT_SEED)
            .iter()
            .all(|p| layout(p) == Layout::Rows));
        // The shapes of the large jobs: every two-pin netlist scores on
        // pairs, and a row sweep would cost time in proportion to elements
        // × nets.
        for (elements, nets) in [(200, 2_000), (1024, 10_240)] {
            let gola = LinearArrangementProblem::new(gola_netlist(DEFAULT_SEED, 0, elements, nets));
            assert_eq!(layout(&gola), Layout::Pairs, "{elements} × {nets}");
            let nola = LinearArrangementProblem::new(nola_netlist(DEFAULT_SEED, 0, elements, nets));
            assert_eq!(layout(&nola), Layout::Masks, "{elements} × {nets}");
        }
    }
}
