//! Property-based tests: the incremental density evaluator is the crate's
//! load-bearing component, so it is checked against full recomputation under
//! arbitrary move sequences, and its evaluate-first path against making the
//! move.

use std::collections::HashSet;

use anneal_core::Problem;
use anneal_linarr::{
    goto_arrangement, ArrangedState, Arrangement, CutProfile, LinearArrangementProblem, Swap,
};
use anneal_netlist::{generator, Netlist};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// An arbitrary netlist plus a seed for the starting arrangement. Element
/// counts fall within one 64-position mask word, across the first word
/// boundary, or across the second.
fn arb_instance() -> impl Strategy<Value = (Netlist, u64)> {
    let n = prop_oneof![2usize..16, 60usize..70, 124usize..136];
    (n, 0usize..480, any::<u64>(), any::<bool>()).prop_map(|(n, m, seed, multi)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = 1 + m % (4 * n);
        let nl = if multi && n >= 4 {
            generator::random_multi_pin(n, m, 2, (n / 12).clamp(4, 10), &mut rng)
        } else {
            generator::random_two_pin(n, m, &mut rng)
        };
        (nl, seed)
    })
}

/// Positions to reduce modulo the element count: any of them, at every
/// size `arb_instance` draws.
fn arb_positions() -> impl Strategy<Value = Vec<(usize, usize)>> {
    vec((0usize..1 << 16, 0usize..1 << 16), 1..60)
}

/// `s` after swapping the elements at `a` and `b`, built from scratch on the
/// moved arrangement.
fn rebuilt_after(
    p: &LinearArrangementProblem,
    s: &ArrangedState,
    Swap(a, b): Swap,
) -> ArrangedState {
    let mut arr = s.arrangement().clone();
    arr.swap_positions(a, b);
    p.state_from(arr)
}

/// The state's profile equals a from-scratch [`CutProfile::build`].
fn matches_a_rebuild(nl: &Netlist, s: &ArrangedState) -> Result<(), TestCaseError> {
    let oracle = CutProfile::build(nl, s.arrangement());
    prop_assert_eq!(s.cuts(), oracle.cuts());
    prop_assert_eq!(s.density(), oracle.density());
    prop_assert!(s.verify(nl), "state differs from a rebuild in its layout");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_density_matches_rebuild_under_swaps(
        (nl, seed) in arb_instance(),
        moves in arb_positions(),
    ) {
        let n = nl.n_elements();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = ArrangedState::new(&nl, Arrangement::random(n, &mut rng));
        for (p, q) in moves {
            s.swap(&nl, p % n, q % n);
            matches_a_rebuild(&nl, &s)?;
        }
    }

    #[test]
    fn try_move_scores_the_move_and_makes_it_only_on_acceptance(
        (nl, seed) in arb_instance(),
        answers in vec(any::<bool>(), 1..40),
    ) {
        let p = LinearArrangementProblem::new(nl.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = p.random_state(&mut rng);
        for &answer in &answers {
            let mv = p.propose(&s, &mut rng);
            let expected = rebuilt_after(&p, &s, mv);
            let mut applied = s.clone();
            p.apply(&mut applied, &mv);
            prop_assert_eq!(&applied, &expected, "apply {:?}", mv);
            let before = s.clone();
            let mut asked = Vec::new();
            let (cost, accepted) = p.try_move(&mut s, &mv, |c| {
                asked.push(c.to_bits());
                answer
            });
            prop_assert_eq!(cost.to_bits(), p.cost(&applied).to_bits(), "{:?}", mv);
            prop_assert_eq!(asked, vec![cost.to_bits()]);
            prop_assert_eq!(accepted, answer);
            prop_assert_eq!(&s, if answer { &applied } else { &before });
            matches_a_rebuild(&nl, &s)?;
        }
    }

    #[test]
    fn improving_move_matches_a_brute_force_scan((nl, seed) in arb_instance()) {
        let n = nl.n_elements();
        let p = LinearArrangementProblem::new(nl);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = p.random_state(&mut rng);
        let here = p.cost(&s);
        // Every swap in (p, q) order, each probed by apply/undo.
        let mut probe = s.clone();
        let mut expected = (None, 0u64);
        'scan: for a in 0..n {
            for b in a + 1..n {
                let mv = Swap(a, b);
                expected.1 += 1;
                p.apply(&mut probe, &mv);
                let cost = p.cost(&probe);
                p.undo(&mut probe, &mv);
                if cost < here {
                    expected.0 = Some(mv);
                    break 'scan;
                }
            }
        }
        prop_assert_eq!(&probe, &s);
        let mut probes = 0;
        let found = p.improving_move(&s, &mut probes);
        prop_assert_eq!((found, probes), expected);
    }

    #[test]
    fn undo_inverts_apply((nl, seed) in arb_instance(), n_moves in 1usize..40) {
        let p = LinearArrangementProblem::new(nl);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = p.random_state(&mut rng);
        let before = s.clone();
        let mut applied = Vec::new();
        for _ in 0..n_moves {
            let mv = p.propose(&s, &mut rng);
            p.apply(&mut s, &mv);
            applied.push(mv);
        }
        for mv in applied.iter().rev() {
            p.undo(&mut s, mv);
        }
        prop_assert_eq!(&s, &before);
    }

    #[test]
    fn all_moves_lists_every_neighbour_once((nl, seed) in arb_instance()) {
        let n = nl.n_elements();
        let size = n * (n - 1) / 2;
        // Swaps as unordered pairs: `propose` may draw `Swap(q, p)`.
        let key = |&Swap(p, q): &Swap| (p.min(q), p.max(q));
        let p = LinearArrangementProblem::new(nl);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = p.random_state(&mut rng);
        // The buffer holds a stale entry: the call must clear it.
        let mut buf = vec![Swap(0, 0)];
        p.all_moves_into(&s, &mut buf);
        let listed: HashSet<_> = buf.iter().map(key).collect();
        prop_assert_eq!(buf.len(), size);
        prop_assert_eq!(listed.len(), size, "a swap is listed twice");
        prop_assert!(listed.iter().all(|&(a, b)| a < b && b < n));
        for _ in 0..50 {
            let mv = p.propose(&s, &mut rng);
            prop_assert!(listed.contains(&key(&mv)), "{:?} not listed", mv);
        }
        if let Some(mv) = p.improving_move(&s, &mut 0) {
            prop_assert!(listed.contains(&key(&mv)), "{:?} not listed", mv);
        }
    }

    #[test]
    fn density_bounds((nl, seed) in arb_instance()) {
        let n = nl.n_elements();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = ArrangedState::new(&nl, Arrangement::random(n, &mut rng));
        prop_assert!(s.density() as usize <= nl.n_nets());
        if nl.n_nets() > 0 && n >= 2 {
            prop_assert!(s.density() >= 1, "any net crosses at least one gap");
        }
    }

    #[test]
    fn goto_is_a_permutation((nl, _) in arb_instance()) {
        let arr = goto_arrangement(&nl);
        let mut order = arr.order().to_vec();
        order.sort_unstable();
        prop_assert_eq!(order, (0..nl.n_elements() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn local_optimum_has_no_improving_swap((nl, seed) in arb_instance()) {
        let p = LinearArrangementProblem::new(nl.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = p.random_state(&mut rng);
        let mut probes = 0u64;
        // Descend fully (bounded by a generous iteration cap).
        for _ in 0..10_000 {
            match p.improving_move(&s, &mut probes) {
                Some(mv) => p.apply(&mut s, &mv),
                None => break,
            }
        }
        // At the fixed point, exhaustive search agrees there is no
        // improving pairwise interchange.
        let n = nl.n_elements();
        let here = p.cost(&s);
        let mut scratch = s.clone();
        for a in 0..n {
            for b in a + 1..n {
                scratch.swap(&nl, a, b);
                prop_assert!(p.cost(&scratch) >= here);
                scratch.swap(&nl, a, b);
            }
        }
    }
}
