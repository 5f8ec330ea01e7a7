//! Property-based tests: the incremental density evaluator is the crate's
//! load-bearing component, so it is checked against full recomputation under
//! arbitrary move sequences.

use std::collections::HashSet;

use anneal_core::Problem;
use anneal_linarr::{
    goto_arrangement, ArrMove, ArrangedState, Arrangement, LinearArrangementProblem, Neighborhood,
};
use anneal_netlist::{generator, Netlist};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// An arbitrary netlist plus a seed for the starting arrangement.
fn arb_instance() -> impl Strategy<Value = (Netlist, u64)> {
    (2usize..16, 1usize..60, any::<u64>(), any::<bool>()).prop_map(|(n, m, seed, multi)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = if multi && n >= 4 {
            generator::random_multi_pin(n, m, 2, 4.min(n), &mut rng)
        } else {
            generator::random_two_pin(n, m, &mut rng)
        };
        (nl, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_density_matches_rebuild_under_swaps(
        (nl, seed) in arb_instance(),
        moves in proptest::collection::vec((0usize..16, 0usize..16), 1..60),
    ) {
        let n = nl.n_elements();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = ArrangedState::new(&nl, Arrangement::random(n, &mut rng));
        for (p, q) in moves {
            s.swap(&nl, p % n, q % n);
            prop_assert!(s.verify(&nl));
        }
    }

    #[test]
    fn incremental_density_matches_rebuild_under_relocates(
        (nl, seed) in arb_instance(),
        moves in proptest::collection::vec((0usize..16, 0usize..16), 1..60),
    ) {
        let n = nl.n_elements();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = ArrangedState::new(&nl, Arrangement::random(n, &mut rng));
        for (f, t) in moves {
            s.relocate(&nl, f % n, t % n);
            prop_assert!(s.verify(&nl));
        }
    }

    #[test]
    fn undo_inverts_apply((nl, seed) in arb_instance(), n_moves in 1usize..40) {
        for neighborhood in [Neighborhood::PairwiseInterchange, Neighborhood::SingleExchange] {
            let p = LinearArrangementProblem::new(nl.clone()).with_neighborhood(neighborhood);
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
    }

    #[test]
    fn all_moves_lists_every_neighbour_once((nl, seed) in arb_instance()) {
        let n = nl.n_elements();
        // Swaps as unordered pairs: `propose` may draw `Swap(q, p)`.
        let key = |mv: &ArrMove| match *mv {
            ArrMove::Swap(p, q) => (p.min(q), p.max(q), false),
            ArrMove::Relocate { from, to } => (from, to, true),
        };
        // The buffer holds a stale entry and then the previous
        // neighbourhood's moves: each call must clear it.
        let mut buf = vec![ArrMove::Swap(0, 0)];
        for (neighborhood, size) in [
            (Neighborhood::PairwiseInterchange, n * (n - 1) / 2),
            (Neighborhood::SingleExchange, n * (n - 1)),
        ] {
            let p = LinearArrangementProblem::new(nl.clone()).with_neighborhood(neighborhood);
            let mut rng = StdRng::seed_from_u64(seed);
            let s = p.random_state(&mut rng);
            p.all_moves_into(&s, &mut buf);
            let listed: HashSet<_> = buf.iter().map(key).collect();
            prop_assert_eq!(buf.len(), size, "{:?}", neighborhood);
            prop_assert_eq!(listed.len(), size, "{:?} lists a move twice", neighborhood);
            prop_assert!(listed.iter().all(|&(a, b, _)| a != b && a.max(b) < n));
            for _ in 0..50 {
                let mv = p.propose(&s, &mut rng);
                prop_assert!(listed.contains(&key(&mv)), "{:?} not listed", mv);
            }
            if let Some(mv) = p.improving_move(&s, &mut 0) {
                prop_assert!(listed.contains(&key(&mv)), "{:?} not listed", mv);
            }
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
        // Total span is at least one per net and at most (n-1) per net.
        prop_assert!(s.total_span() >= nl.n_nets() as u64);
        prop_assert!(s.total_span() <= (nl.n_nets() * (n - 1)) as u64);
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
