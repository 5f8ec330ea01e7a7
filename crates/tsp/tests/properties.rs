//! Property-based tests for the TSP substrate.

use std::collections::HashSet;

use anneal_core::Problem;
use anneal_tsp::{
    hull_cheapest_insertion, nearest_neighbor, two_opt_descent, Tour, TourMove, TspInstance,
    TspProblem,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn arb_instance() -> impl Strategy<Value = TspInstance> {
    (3usize..25, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        TspInstance::random_euclidean(n, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_length_matches_recompute(inst in arb_instance(), seed in any::<u64>(), n_moves in 1usize..80) {
        let p = TspProblem::new(inst.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = p.random_state(&mut rng);
        for _ in 0..n_moves {
            let mv = p.propose(&t, &mut rng);
            p.apply(&mut t, &mv);
            prop_assert!(t.verify(&inst));
        }
        // The tour stays a permutation.
        let mut cities = t.order().to_vec();
        cities.sort_unstable();
        prop_assert_eq!(cities, (0..inst.n_cities() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn undo_inverts_apply(inst in arb_instance(), seed in any::<u64>()) {
        let p = TspProblem::new(inst.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = p.random_state(&mut rng);
        let before = t.clone();
        let mut moves = Vec::new();
        for _ in 0..20 {
            let mv = p.propose(&t, &mut rng);
            p.apply(&mut t, &mv);
            moves.push(mv);
        }
        for mv in moves.iter().rev() {
            p.undo(&mut t, mv);
        }
        prop_assert_eq!(t.order(), before.order());
        prop_assert!((t.length() - before.length()).abs() < 1e-6);
    }

    #[test]
    fn all_moves_lists_every_reversal_once(inst in arb_instance(), seed in any::<u64>()) {
        let n = inst.n_cities();
        let p = TspProblem::new(inst);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = p.random_state(&mut rng);
        let key = |mv: &TourMove| match *mv {
            TourMove::TwoOpt { i, j } => (i, j),
        };
        // A reused buffer holds stale moves: the call must clear it.
        let mut buf = vec![TourMove::TwoOpt { i: 0, j: n - 1 }];
        p.all_moves_into(&s, &mut buf);
        let listed: HashSet<_> = buf.iter().map(key).collect();
        prop_assert_eq!(buf.len(), n * (n - 1) / 2 - 1);
        prop_assert_eq!(listed.len(), buf.len(), "a reversal is listed twice");
        // No whole-tour reversal: it leaves the tour as it was.
        prop_assert!(listed.iter().all(|&(i, j)| i < j && j < n && !(i == 0 && j == n - 1)));
        for _ in 0..50 {
            let mv = p.propose(&s, &mut rng);
            prop_assert!(listed.contains(&key(&mv)), "{:?} not listed", mv);
        }
        if let Some(mv) = p.improving_move(&s, &mut 0) {
            prop_assert!(listed.contains(&key(&mv)), "{:?} not listed", mv);
        }
    }

    #[test]
    fn two_opt_delta_agrees_with_recomputation(inst in arb_instance(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tour::random(&inst, &mut rng);
        let n = inst.n_cities();
        for i in 0..n {
            for j in i..n {
                let delta = t.two_opt_delta(&inst, i, j);
                let mut t2 = t.clone();
                t2.apply_two_opt(&inst, i, j);
                t2.resync_length(&inst);
                prop_assert!(
                    (t2.length() - (t.length() + delta)).abs() < 1e-6,
                    "segment {i}..={j}: delta {delta}, actual {}",
                    t2.length() - t.length()
                );
            }
        }
    }

    #[test]
    fn descent_never_increases_length(inst in arb_instance(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = Tour::random(&inst, &mut rng);
        let (t, _) = two_opt_descent(&inst, start.clone());
        prop_assert!(t.length() <= start.length() + 1e-9);
        prop_assert!(t.verify(&inst));
    }

    #[test]
    fn constructives_produce_valid_tours(inst in arb_instance()) {
        let nn = nearest_neighbor(&inst, 0);
        let hull = hull_cheapest_insertion(&inst);
        for t in [&nn, &hull] {
            prop_assert!(t.verify(&inst));
            let mut cities = t.order().to_vec();
            cities.sort_unstable();
            prop_assert_eq!(cities, (0..inst.n_cities() as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tour_length_lower_bound(inst in arb_instance(), seed in any::<u64>()) {
        // Any tour is at least twice the maximum distance from any city to
        // its nearest neighbor... use the weaker bound: length >= 0 and
        // length >= perimeter contribution of the farthest pair (it must be
        // entered and left).
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tour::random(&inst, &mut rng);
        prop_assert!(t.length() >= 0.0);
        let n = inst.n_cities();
        let mut max_nn = 0f64;
        for a in 0..n {
            let nearest = (0..n)
                .filter(|&b| b != a)
                .map(|b| inst.distance(a, b))
                .fold(f64::INFINITY, f64::min);
            max_nn = max_nn.max(nearest);
        }
        prop_assert!(t.length() >= 2.0 * max_nn - 1e-9, "must enter and leave the most isolated city");
    }
}
