//! The GOLA/NOLA optimization problem as an [`anneal_core::Problem`].

use std::sync::Arc;

use anneal_core::{Problem, Rng, RngExt};
use anneal_netlist::Netlist;

use crate::arrangement::Arrangement;
use crate::state::{pair_counts, ArrangedState, Layout};

/// A pairwise interchange: swap the elements at two positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Swap(pub usize, pub usize);

/// The (net/graph) optimal linear arrangement problem over a netlist.
///
/// With a two-pin netlist this is GOLA; with multi-pin nets, NOLA. As in
/// the paper, it minimizes the density under pairwise interchange.
///
/// # Examples
///
/// ```
/// use anneal_core::{Annealer, Budget, GFunction, NoopObserver};
/// use anneal_linarr::LinearArrangementProblem;
/// use anneal_netlist::generator::random_two_pin;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let netlist = random_two_pin(15, 150, &mut rng);
/// let problem = LinearArrangementProblem::new(netlist);
/// let result = Annealer::new(&problem)
///     .budget(Budget::evaluations(20_000))
///     .seed(7)
///     .run(&mut GFunction::unit(), &mut NoopObserver);
/// assert!(result.best_cost <= result.initial_cost);
/// ```
#[derive(Debug, Clone)]
pub struct LinearArrangementProblem {
    netlist: Netlist,
    /// The netlist's pair counts, built once and shared by every state.
    pairs: Arc<[i32]>,
}

impl LinearArrangementProblem {
    /// The problem over `netlist`.
    pub fn new(netlist: Netlist) -> Self {
        let pairs = pair_counts(&netlist);
        LinearArrangementProblem { netlist, pairs }
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Whether this instance is a GOLA instance (every net two-pin).
    pub fn is_gola(&self) -> bool {
        self.netlist.is_two_pin()
    }

    /// Builds the search state for an explicit arrangement (e.g. one
    /// produced by the Goto heuristic).
    pub fn state_from(&self, arrangement: Arrangement) -> ArrangedState {
        let layout = Layout::of(&self.netlist);
        ArrangedState::with_layout(&self.netlist, arrangement, layout, Arc::clone(&self.pairs))
    }

    /// Every swap of an `n`-element arrangement, in the `(p, q)` order
    /// [`Problem::all_moves_into`] lists them and
    /// [`Problem::improving_move`] scans them.
    fn swaps(n: usize) -> impl Iterator<Item = Swap> {
        (0..n).flat_map(move |p| (p + 1..n).map(move |q| Swap(p, q)))
    }
}

impl Problem for LinearArrangementProblem {
    type State = ArrangedState;
    type Move = Swap;

    fn random_state(&self, rng: &mut dyn Rng) -> ArrangedState {
        self.state_from(Arrangement::random(self.netlist.n_elements(), rng))
    }

    fn cost(&self, state: &ArrangedState) -> f64 {
        f64::from(state.density())
    }

    fn propose(&self, state: &ArrangedState, rng: &mut dyn Rng) -> Swap {
        let n = state.arrangement().len();
        debug_assert!(n >= 2, "perturbation needs at least two positions");
        let p = rng.random_range(0..n);
        let mut q = rng.random_range(0..n - 1);
        if q >= p {
            q += 1;
        }
        Swap(p, q)
    }

    fn apply(&self, state: &mut ArrangedState, &Swap(p, q): &Swap) {
        state.swap(&self.netlist, p, q);
    }

    fn try_move(
        &self,
        state: &mut ArrangedState,
        mv: &Swap,
        accept: impl FnOnce(f64) -> bool,
    ) -> (f64, bool) {
        state.try_move(&self.netlist, *mv, accept)
    }

    fn all_moves_into(&self, state: &ArrangedState, buf: &mut Vec<Swap>) {
        buf.clear();
        buf.extend(Self::swaps(state.arrangement().len()));
    }

    fn improving_move(&self, state: &ArrangedState, probes: &mut u64) -> Option<Swap> {
        // First-improvement scan of every swap, scoring each without
        // making it.
        let n = state.arrangement().len();
        let mut diff = vec![0; n];
        Self::swaps(n).find(|&mv| {
            *probes += 1;
            state.density_after_swap(&self.netlist, mv, &mut diff) < state.density()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_core::{Annealer, Budget, GFunction, NoopObserver, Strategy};
    use anneal_netlist::generator::{random_multi_pin, random_two_pin};
    use rand::{rngs::StdRng, SeedableRng};

    fn gola_instance(seed: u64) -> LinearArrangementProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        LinearArrangementProblem::new(random_two_pin(15, 150, &mut rng))
    }

    #[test]
    fn propose_apply_undo_round_trip() {
        let p = gola_instance(0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = p.random_state(&mut rng);
        let before = s.clone();
        for _ in 0..100 {
            let mv = p.propose(&s, &mut rng);
            p.apply(&mut s, &mv);
            p.undo(&mut s, &mv);
            assert_eq!(s, before);
        }
    }

    #[test]
    fn improving_move_strictly_improves() {
        let p = gola_instance(3);
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = p.random_state(&mut rng);
        let mut probes = 0;
        let mut last = p.cost(&s);
        while let Some(mv) = p.improving_move(&s, &mut probes) {
            p.apply(&mut s, &mv);
            let now = p.cost(&s);
            assert!(now < last, "{now} < {last}");
            last = now;
        }
        assert!(probes > 0);
        assert!(s.verify(p.netlist()));
    }

    #[test]
    fn annealing_reduces_density_on_paper_sized_instance() {
        let p = gola_instance(4);
        let r = Annealer::new(&p)
            .budget(Budget::evaluations(30_000))
            .seed(11)
            .run(&mut GFunction::six_temp_annealing(2.0), &mut NoopObserver);
        assert!(r.reduction() > 0.0, "30k evals must improve a random start");
        assert!(r.best_state.verify(p.netlist()));
    }

    #[test]
    fn figure2_works_on_nola() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = LinearArrangementProblem::new(random_multi_pin(15, 150, 2, 5, &mut rng));
        assert!(!p.is_gola());
        let r = Annealer::new(&p)
            .strategy(Strategy::Figure2)
            .budget(Budget::evaluations(20_000))
            .seed(13)
            .run(
                &mut GFunction::coho83a(p.netlist().n_nets()),
                &mut NoopObserver,
            );
        assert!(r.reduction() > 0.0);
    }
}
