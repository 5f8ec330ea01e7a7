//! The [`Problem`] trait: the contract between an optimization problem and
//! the Monte Carlo strategies of [Figure 1] and [Figure 2].
//!
//! The paper's framework (§1, §3) needs four things from a problem:
//!
//! 1. a way to draw a *random feasible solution* (Step 1 of both figures),
//! 2. a goal function `h` to minimize,
//! 3. a *random perturbation* operator (pairwise interchange, single
//!    exchange, 2-opt reversal, …), and
//! 4. for the Figure-2 strategy, a way to detect an *improving* perturbation
//!    so the state can be driven to a local optimum.
//!
//! # Move model
//!
//! Moves follow an **apply/undo** protocol: [`Problem::apply`] mutates the
//! state in place (so implementations can keep incremental bookkeeping such
//! as cut-density histograms inside the state), and a rejected move is rolled
//! back with [`Problem::undo`]. For involutive moves — pairwise swaps, 2-opt
//! segment reversals, partition exchanges — applying the move a second time
//! *is* the undo, which is what the default implementation does.
//!
//! [Figure 1]: crate::strategy::fig1
//! [Figure 2]: crate::strategy::fig2

use rand::Rng;

/// An optimization problem that Monte Carlo strategies can search.
///
/// Implementations should make [`cost`](Problem::cost) cheap (ideally O(1)
/// reading a value maintained incrementally by [`apply`](Problem::apply)):
/// the strategies call it after every perturbation.
///
/// # Examples
///
/// A minimal problem — minimize `|x - 17|` over integers, perturbing by ±1:
///
/// ```
/// use anneal_core::{Problem, Rng, RngExt};
///
/// struct FindTarget {
///     target: i64,
/// }
///
/// impl Problem for FindTarget {
///     type State = i64;
///     type Move = i64; // the delta applied: +1 or -1
///
///     fn random_state(&self, rng: &mut dyn Rng) -> i64 {
///         rng.random_range(-100..100)
///     }
///     fn cost(&self, s: &i64) -> f64 {
///         (s - self.target).abs() as f64
///     }
///     fn propose(&self, _s: &i64, rng: &mut dyn Rng) -> i64 {
///         if rng.random_bool(0.5) { 1 } else { -1 }
///     }
///     fn apply(&self, s: &mut i64, m: &i64) {
///         *s += m;
///     }
///     fn undo(&self, s: &mut i64, m: &i64) {
///         *s -= m;
///     }
/// }
///
/// let p = FindTarget { target: 17 };
/// assert_eq!(p.cost(&17), 0.0);
/// ```
pub trait Problem {
    /// A feasible solution, including any incremental-evaluation bookkeeping.
    type State: Clone;

    /// A perturbation of a state.
    type Move;

    /// Draws a random feasible solution (Step 1 of Figures 1 and 2).
    fn random_state(&self, rng: &mut dyn Rng) -> Self::State;

    /// The goal function `h` being minimized.
    fn cost(&self, state: &Self::State) -> f64;

    /// Draws a random perturbation of `state` (Step 2 of Figure 1).
    ///
    /// The move is only *proposed* here; it takes effect when passed to
    /// [`apply`](Problem::apply).
    fn propose(&self, state: &Self::State, rng: &mut dyn Rng) -> Self::Move;

    /// Applies a proposed move to the state in place.
    fn apply(&self, state: &mut Self::State, mv: &Self::Move);

    /// Rolls back a move previously applied with [`apply`](Problem::apply).
    ///
    /// The default implementation re-applies the move, which is correct for
    /// involutive moves (swaps, 2-opt reversals). Non-involutive moves must
    /// override this.
    fn undo(&self, state: &mut Self::State, mv: &Self::Move) {
        self.apply(state, mv);
    }

    /// Returns a cost-reducing move from `state`, or `None` if `state` is
    /// locally optimal with respect to the problem's neighborhood.
    ///
    /// This powers Step 2 of the Figure-2 strategy ("continue to perturb `i`
    /// until no perturbation results in a decrease in `h`") and the
    /// [`descend`](crate::local::descend) local search. The default returns
    /// `None`, which makes every state look locally optimal; problems that
    /// should work with the Figure-2 strategy must override it.
    ///
    /// `eval_counter` must be incremented by the number of cost evaluations
    /// performed, so time-equalized comparisons (§3) charge local search the
    /// same currency as random perturbation.
    fn improving_move(&self, state: &Self::State, eval_counter: &mut u64) -> Option<Self::Move> {
        let _ = (state, eval_counter);
        None
    }

    /// Enumerates the complete perturbation neighborhood of `state`.
    ///
    /// Required only by the rejectionless strategy of
    /// [`rejectionless`](crate::strategy::rejectionless) (\[GREE84\]), which
    /// must weigh *every* neighbor at each step. The default returns an
    /// empty vector, which the rejectionless strategy treats as "not
    /// supported" and reports by stopping immediately.
    fn all_moves(&self, state: &Self::State) -> Vec<Self::Move> {
        let _ = state;
        Vec::new()
    }

    /// Fills `buf` with the complete perturbation neighborhood of `state`,
    /// clearing it first.
    ///
    /// The rejectionless strategy calls this once per step with a reused
    /// buffer, so implementations that override it (appending to `buf`
    /// instead of building a fresh vector) avoid a per-step allocation. The
    /// default delegates to [`all_moves`](Problem::all_moves), so overriding
    /// either method is sufficient.
    fn all_moves_into(&self, state: &Self::State, buf: &mut Vec<Self::Move>) {
        buf.clear();
        buf.extend(self.all_moves(state));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use rand::{rngs::StdRng, SeedableRng};

    /// Toy problem used across the framework's unit tests: minimize the
    /// number of 1-bits in a word by flipping random bits.
    pub(crate) struct BitCount {
        pub bits: u32,
    }

    impl Problem for BitCount {
        type State = u64;
        type Move = u32; // bit index to flip

        fn random_state(&self, rng: &mut dyn Rng) -> u64 {
            rng.random_range(0..(1u64 << self.bits))
        }
        fn cost(&self, s: &u64) -> f64 {
            s.count_ones() as f64
        }
        fn propose(&self, _s: &u64, rng: &mut dyn Rng) -> u32 {
            rng.random_range(0..self.bits)
        }
        fn apply(&self, s: &mut u64, m: &u32) {
            *s ^= 1 << m;
        }
        fn improving_move(&self, s: &u64, evals: &mut u64) -> Option<u32> {
            for b in 0..self.bits {
                *evals += 1;
                if s & (1 << b) != 0 {
                    return Some(b);
                }
            }
            None
        }
    }

    #[test]
    fn apply_then_default_undo_is_identity() {
        let p = BitCount { bits: 16 };
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = p.random_state(&mut rng);
        let orig = s;
        let mv = p.propose(&s, &mut rng);
        p.apply(&mut s, &mv);
        assert_ne!(s, orig, "flip must change the state");
        p.undo(&mut s, &mv);
        assert_eq!(s, orig, "default undo must invert involutive moves");
    }

    #[test]
    fn improving_move_reaches_local_optimum() {
        let p = BitCount { bits: 8 };
        let mut s = 0b1010_1010u64;
        let mut evals = 0;
        while let Some(mv) = p.improving_move(&s, &mut evals) {
            p.apply(&mut s, &mv);
        }
        assert_eq!(s, 0);
        assert_eq!(p.cost(&s), 0.0);
        assert!(evals > 0, "local search must charge evaluations");
    }

    #[test]
    fn random_state_in_range() {
        let p = BitCount { bits: 10 };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(p.random_state(&mut rng) < (1 << 10));
        }
    }
}
