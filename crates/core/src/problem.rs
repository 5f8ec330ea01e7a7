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
//! Every chain evaluates a move through [`Problem::try_move`]: it returns
//! the cost the move leads to and makes the move only when the caller's
//! acceptance decision says yes. The default implementation applies the
//! move in place with [`Problem::apply`] (so implementations can keep
//! incremental bookkeeping, such as per-gap cut counts, inside the state),
//! reads [`Problem::cost`], and rolls a rejected move back with
//! [`Problem::undo`]. For involutive moves — pairwise swaps, 2-opt segment
//! reversals, partition exchanges — applying the move a second time *is* the
//! undo, which is what `undo`'s default does.
//!
//! A problem that can score a move without making it overrides `try_move`
//! (and [`Problem::improving_move`]), so a rejected proposal never touches
//! the state. The linear-arrangement problem does; the others keep the
//! default.
//!
//! [Figure 1]: crate::strategy::fig1
//! [Figure 2]: crate::strategy::fig2

use rand::Rng;

/// An optimization problem that Monte Carlo strategies can search.
///
/// Implementations should make [`cost`](Problem::cost) cheap (ideally O(1)
/// reading a value maintained incrementally by [`apply`](Problem::apply)):
/// the default [`try_move`](Problem::try_move) calls it after every
/// perturbation.
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

    /// Evaluates `mv` on `state` and makes it only if `accept` says so.
    ///
    /// `accept` is called exactly once, with the cost the move leads to.
    /// Returns that cost and `accept`'s answer. Afterwards `state` equals
    /// `apply(state, mv)` when the move was accepted, and is unchanged
    /// otherwise. Every chain and the adaptive probe evaluate their moves
    /// through this method; the rejectionless strategy and the probe pass
    /// `|_| false` to score a neighbour without keeping it.
    ///
    /// The default applies the move, reads the cost, and undoes the move
    /// when `accept` says no. Override it when a move can be scored without
    /// making it; the override must return the same cost, bit for bit.
    fn try_move(
        &self,
        state: &mut Self::State,
        mv: &Self::Move,
        accept: impl FnOnce(f64) -> bool,
    ) -> (f64, bool) {
        self.apply(state, mv);
        let cost = self.cost(state);
        let accepted = accept(cost);
        if !accepted {
            self.undo(state, mv);
        }
        (cost, accepted)
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

    /// Fills `buf` with the complete perturbation neighborhood of `state`,
    /// clearing it first.
    ///
    /// Required only by the rejectionless strategy of
    /// [`rejectionless`](crate::strategy::rejectionless) (\[GREE84\]), which
    /// must weigh *every* neighbor at each step. It calls this once per step
    /// with a reused buffer, so appending to `buf` costs no per-step
    /// allocation. The default leaves `buf` empty, which the rejectionless
    /// strategy treats as "not supported" and reports by stopping
    /// immediately.
    fn all_moves_into(&self, state: &Self::State, buf: &mut Vec<Self::Move>) {
        let _ = state;
        buf.clear();
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

    /// [`BitCount`] with every call logged, so the order of the default
    /// `try_move`'s steps can be read back.
    struct Logged {
        inner: BitCount,
        calls: std::cell::RefCell<Vec<&'static str>>,
    }

    impl Problem for Logged {
        type State = u64;
        type Move = u32;

        fn random_state(&self, rng: &mut dyn Rng) -> u64 {
            self.inner.random_state(rng)
        }
        fn cost(&self, s: &u64) -> f64 {
            self.calls.borrow_mut().push("cost");
            self.inner.cost(s)
        }
        fn propose(&self, s: &u64, rng: &mut dyn Rng) -> u32 {
            self.inner.propose(s, rng)
        }
        fn apply(&self, s: &mut u64, m: &u32) {
            self.calls.borrow_mut().push("apply");
            self.inner.apply(s, m);
        }
        fn undo(&self, s: &mut u64, m: &u32) {
            self.calls.borrow_mut().push("undo");
            self.inner.apply(s, m);
        }
    }

    #[test]
    fn default_try_move_is_apply_cost_then_undo_on_rejection() {
        let p = Logged {
            inner: BitCount { bits: 8 },
            calls: Default::default(),
        };
        let mut s = 0b0000_0110u64;
        let mut seen = Vec::new();
        let (cost, accepted) = p.try_move(&mut s, &0, |c| {
            seen.push(c);
            false
        });
        assert_eq!((cost, accepted), (3.0, false));
        assert_eq!(seen, [3.0], "accept sees the moved-to cost once");
        assert_eq!(s, 0b0000_0110, "a rejected move leaves the state");
        assert_eq!(*p.calls.borrow(), ["apply", "cost", "undo"]);

        p.calls.borrow_mut().clear();
        let (cost, accepted) = p.try_move(&mut s, &1, |c| c < 2.0);
        assert_eq!((cost, accepted), (1.0, true));
        assert_eq!(s, 0b0000_0100, "an accepted move is kept");
        assert_eq!(*p.calls.borrow(), ["apply", "cost"]);
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
