//! The balanced two-way circuit-partition problem as an
//! [`anneal_core::Problem`] — the problem Kirkpatrick et al. annealed with
//! the `Y₁ = 10, Y_i = 0.9·Y_{i-1}` schedule quoted in §1 of the paper.

use anneal_core::{Problem, Rng, RngExt};
use anneal_netlist::Netlist;

use crate::state::PartitionState;

/// A cross-side pairwise exchange: member `i0` of side 0 with member `i1` of
/// side 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapMove {
    /// Index into side 0's member list.
    pub i0: usize,
    /// Index into side 1's member list.
    pub i1: usize,
}

/// Balanced min-cut bipartition of a netlist.
///
/// # Examples
///
/// ```
/// use anneal_core::{Annealer, Budget, GFunction, NoopObserver};
/// use anneal_netlist::generator::random_two_pin;
/// use anneal_partition::PartitionProblem;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let netlist = random_two_pin(20, 60, &mut rng);
/// let problem = PartitionProblem::new(netlist);
/// // Kirkpatrick's schedule from §1 of the paper.
/// let result = Annealer::new(&problem)
///     .budget(Budget::evaluations(20_000))
///     .run(&mut GFunction::six_temp_annealing(10.0), &mut NoopObserver);
/// assert!(result.best_cost <= result.initial_cost);
/// ```
#[derive(Debug, Clone)]
pub struct PartitionProblem {
    netlist: Netlist,
}

impl PartitionProblem {
    /// A partition problem over `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has fewer than two elements (no cross-side swap
    /// would exist).
    pub fn new(netlist: Netlist) -> Self {
        assert!(
            netlist.n_elements() >= 2,
            "partitioning needs at least two elements"
        );
        PartitionProblem { netlist }
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Builds the state for an explicit side assignment.
    pub fn state_from(&self, sides: Vec<u8>) -> PartitionState {
        PartitionState::new(&self.netlist, sides)
    }
}

impl Problem for PartitionProblem {
    type State = PartitionState;
    type Move = SwapMove;

    fn random_state(&self, rng: &mut dyn Rng) -> PartitionState {
        // Random balanced assignment: shuffle elements, first half side 0.
        let n = self.netlist.n_elements();
        let mut elems: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            elems.swap(i, j);
        }
        let half = n.div_ceil(2);
        let mut sides = vec![0u8; n];
        for &e in &elems[half..] {
            sides[e as usize] = 1;
        }
        PartitionState::new(&self.netlist, sides)
    }

    fn cost(&self, state: &PartitionState) -> f64 {
        state.cut() as f64
    }

    fn propose(&self, state: &PartitionState, rng: &mut dyn Rng) -> SwapMove {
        SwapMove {
            i0: rng.random_range(0..state.members(0).len()),
            i1: rng.random_range(0..state.members(1).len()),
        }
    }

    fn apply(&self, state: &mut PartitionState, mv: &SwapMove) {
        state.swap(&self.netlist, mv.i0, mv.i1);
    }

    fn all_moves_into(&self, state: &PartitionState, buf: &mut Vec<SwapMove>) {
        buf.clear();
        let (a, b) = (state.members(0).len(), state.members(1).len());
        buf.reserve(a * b);
        for i0 in 0..a {
            for i1 in 0..b {
                buf.push(SwapMove { i0, i1 });
            }
        }
    }

    fn improving_move(&self, state: &PartitionState, probes: &mut u64) -> Option<SwapMove> {
        let mut scratch = state.clone();
        let here = state.cut();
        for i0 in 0..state.members(0).len() {
            for i1 in 0..state.members(1).len() {
                *probes += 1;
                scratch.swap(&self.netlist, i0, i1);
                let cut = scratch.cut();
                scratch.swap(&self.netlist, i0, i1);
                if cut < here {
                    return Some(SwapMove { i0, i1 });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_core::{Annealer, Budget, GFunction, NoopObserver, Strategy};
    use anneal_netlist::generator::random_two_pin;
    use rand::{rngs::StdRng, SeedableRng};

    /// Two 5-cliques joined by a single bridge net: optimal cut = 1.
    fn two_cliques() -> Netlist {
        let mut b = Netlist::builder(10);
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in i + 1..5 {
                    b = b.net([base + i, base + j]);
                }
            }
        }
        b.net([4, 5]).build().unwrap()
    }

    #[test]
    fn annealing_finds_the_two_cliques() {
        let p = PartitionProblem::new(two_cliques());
        let r = Annealer::new(&p)
            .budget(Budget::evaluations(30_000))
            .seed(3)
            .run(&mut GFunction::six_temp_annealing(10.0), &mut NoopObserver);
        assert_eq!(r.best_cost, 1.0, "optimal cut separates the cliques");
        assert!(r.best_state.verify(p.netlist()));
    }

    #[test]
    fn g_unit_also_finds_it() {
        let p = PartitionProblem::new(two_cliques());
        let r = Annealer::new(&p)
            .budget(Budget::evaluations(30_000))
            .seed(4)
            .run(&mut GFunction::unit(), &mut NoopObserver);
        assert_eq!(r.best_cost, 1.0);
    }

    #[test]
    fn figure2_descends_to_local_optimum() {
        let p = PartitionProblem::new(two_cliques());
        let r = Annealer::new(&p)
            .strategy(Strategy::Figure2)
            .budget(Budget::evaluations(30_000))
            .seed(5)
            .run(&mut GFunction::unit(), &mut NoopObserver);
        assert_eq!(r.best_cost, 1.0);
        assert!(r.stats.descents >= 1);
    }

    #[test]
    fn random_state_is_balanced() {
        let mut rng = StdRng::seed_from_u64(0);
        let nl = random_two_pin(11, 20, &mut rng);
        let p = PartitionProblem::new(nl);
        for _ in 0..20 {
            let s = p.random_state(&mut rng);
            assert_eq!(s.members(0).len(), 6);
            assert_eq!(s.members(1).len(), 5);
        }
    }

    #[test]
    fn apply_undo_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let nl = random_two_pin(12, 40, &mut rng);
        let p = PartitionProblem::new(nl);
        let mut s = p.random_state(&mut rng);
        let before = s.clone();
        let mv = p.propose(&s, &mut rng);
        p.apply(&mut s, &mv);
        p.undo(&mut s, &mv);
        assert_eq!(s, before);
    }
}
