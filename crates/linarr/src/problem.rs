//! The GOLA/NOLA optimization problem as an [`anneal_core::Problem`].

use anneal_core::{Problem, Rng, RngExt};
use anneal_netlist::Netlist;

use crate::arrangement::Arrangement;
use crate::state::{ArrangedState, Scratch};

/// What the arrangement minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Maximum number of nets crossing between any pair of adjacent elements
    /// — the paper's NOLA/GOLA objective (§4.1).
    #[default]
    Density,
    /// Sum of net spans (total wirelength) — the classic optimal linear
    /// arrangement objective, offered as an extension.
    TotalSpan,
}

/// The random-perturbation neighborhood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Neighborhood {
    /// Swap the elements at two random positions — the paper's primary
    /// perturbation ("pairwise interchange").
    #[default]
    PairwiseInterchange,
    /// Remove one element and reinsert it at another position — the "single
    /// exchange" of \[COHO83a\].
    SingleExchange,
}

/// A perturbation of an arrangement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrMove {
    /// Swap the elements at two positions.
    Swap(usize, usize),
    /// Move the element at `from` to `to`, shifting the elements in between.
    Relocate {
        /// Source position.
        from: usize,
        /// Destination position.
        to: usize,
    },
}

/// The (net/graph) optimal linear arrangement problem over a netlist.
///
/// With a two-pin netlist this is GOLA; with multi-pin nets, NOLA. The
/// defaults match the paper: density objective, pairwise-interchange
/// neighborhood.
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
    objective: Objective,
    neighborhood: Neighborhood,
}

impl LinearArrangementProblem {
    /// A problem over `netlist` with the paper's defaults (density,
    /// pairwise interchange).
    pub fn new(netlist: Netlist) -> Self {
        LinearArrangementProblem {
            netlist,
            objective: Objective::Density,
            neighborhood: Neighborhood::PairwiseInterchange,
        }
    }

    /// Selects the objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Selects the perturbation neighborhood.
    pub fn with_neighborhood(mut self, neighborhood: Neighborhood) -> Self {
        self.neighborhood = neighborhood;
        self
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The configured objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The configured neighborhood.
    pub fn neighborhood(&self) -> Neighborhood {
        self.neighborhood
    }

    /// Whether this instance is a GOLA instance (every net two-pin).
    pub fn is_gola(&self) -> bool {
        self.netlist.is_two_pin()
    }

    /// Builds the search state for an explicit arrangement (e.g. one
    /// produced by the Goto heuristic).
    pub fn state_from(&self, arrangement: Arrangement) -> ArrangedState {
        ArrangedState::new(&self.netlist, arrangement)
    }

    fn objective_value(&self, state: &ArrangedState) -> f64 {
        match self.objective {
            Objective::Density => state.density() as f64,
            Objective::TotalSpan => state.total_span() as f64,
        }
    }

    /// The whole neighbourhood of an `n`-element arrangement, in the order
    /// [`Problem::all_moves_into`] lists it and
    /// [`Problem::improving_move`] scans it.
    fn neighbourhood(&self, n: usize) -> impl Iterator<Item = ArrMove> {
        let swaps = self.neighborhood == Neighborhood::PairwiseInterchange;
        (0..n).flat_map(move |p| {
            let first = if swaps { p + 1 } else { 0 };
            (first..n).filter(move |&q| q != p).map(move |q| {
                if swaps {
                    ArrMove::Swap(p, q)
                } else {
                    ArrMove::Relocate { from: p, to: q }
                }
            })
        })
    }
}

impl Problem for LinearArrangementProblem {
    type State = ArrangedState;
    type Move = ArrMove;

    fn random_state(&self, rng: &mut dyn Rng) -> ArrangedState {
        let arr = Arrangement::random(self.netlist.n_elements(), rng);
        ArrangedState::new(&self.netlist, arr)
    }

    fn cost(&self, state: &ArrangedState) -> f64 {
        self.objective_value(state)
    }

    fn propose(&self, state: &ArrangedState, rng: &mut dyn Rng) -> ArrMove {
        let n = state.arrangement().len();
        debug_assert!(n >= 2, "perturbation needs at least two positions");
        let p = rng.random_range(0..n);
        let mut q = rng.random_range(0..n - 1);
        if q >= p {
            q += 1;
        }
        match self.neighborhood {
            Neighborhood::PairwiseInterchange => ArrMove::Swap(p, q),
            Neighborhood::SingleExchange => ArrMove::Relocate { from: p, to: q },
        }
    }

    fn apply(&self, state: &mut ArrangedState, mv: &ArrMove) {
        match *mv {
            ArrMove::Swap(p, q) => state.swap(&self.netlist, p, q),
            ArrMove::Relocate { from, to } => state.relocate(&self.netlist, from, to),
        }
    }

    fn undo(&self, state: &mut ArrangedState, mv: &ArrMove) {
        match *mv {
            ArrMove::Swap(p, q) => state.swap(&self.netlist, p, q),
            ArrMove::Relocate { from, to } => state.relocate(&self.netlist, to, from),
        }
    }

    fn try_move(
        &self,
        state: &mut ArrangedState,
        mv: &ArrMove,
        accept: impl FnOnce(f64) -> bool,
    ) -> (f64, bool) {
        state.try_move(&self.netlist, *mv, self.objective, accept)
    }

    fn all_moves_into(&self, state: &ArrangedState, buf: &mut Vec<ArrMove>) {
        buf.clear();
        buf.extend(self.neighbourhood(state.arrangement().len()));
    }

    fn improving_move(&self, state: &ArrangedState, probes: &mut u64) -> Option<ArrMove> {
        // First-improvement scan of the full neighbourhood, scoring each
        // candidate without making it.
        let n = state.arrangement().len();
        let here = self.objective_value(state);
        let mut scratch = Scratch::new(n);
        self.neighbourhood(n).find(|&mv| {
            *probes += 1;
            state.cost_after(&self.netlist, mv, self.objective, &mut scratch) < here
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
    fn single_exchange_round_trip() {
        let p = gola_instance(0).with_neighborhood(Neighborhood::SingleExchange);
        let mut rng = StdRng::seed_from_u64(2);
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

    #[test]
    fn total_span_objective_works() {
        let p = gola_instance(6).with_objective(Objective::TotalSpan);
        let mut rng = StdRng::seed_from_u64(6);
        let s = p.random_state(&mut rng);
        assert_eq!(p.cost(&s), s.total_span() as f64);
        let r = Annealer::new(&p)
            .budget(Budget::evaluations(10_000))
            .seed(14)
            .run(&mut GFunction::unit(), &mut NoopObserver);
        assert!(r.reduction() > 0.0);
    }
}
