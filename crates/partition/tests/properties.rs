//! Property-based tests for the partition substrate.

use std::collections::HashSet;

use anneal_core::Problem;
use anneal_netlist::{generator, Netlist};
use anneal_partition::{
    fiduccia_mattheyses, kernighan_lin, PartitionProblem, PartitionState, SwapMove,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (4usize..20, 1usize..60, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generator::random_multi_pin(n, m, 2, 4.min(n), &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_cut_matches_recount(nl in arb_netlist(), moves in proptest::collection::vec((0usize..10, 0usize..10), 1..50)) {
        let mut s = PartitionState::split_first_half(&nl);
        for (i0, i1) in moves {
            let i0 = i0 % s.members(0).len();
            let i1 = i1 % s.members(1).len();
            s.swap(&nl, i0, i1);
            prop_assert!(s.verify(&nl));
        }
    }

    #[test]
    fn swaps_preserve_balance_and_membership(nl in arb_netlist(), seed in any::<u64>()) {
        let p = PartitionProblem::new(nl.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = p.random_state(&mut rng);
        let (a0, b0) = (s.members(0).len(), s.members(1).len());
        for _ in 0..30 {
            let mv = p.propose(&s, &mut rng);
            p.apply(&mut s, &mv);
        }
        prop_assert_eq!(s.members(0).len(), a0);
        prop_assert_eq!(s.members(1).len(), b0);
        prop_assert!(s.verify(&nl));
    }

    #[test]
    fn undo_inverts_apply(nl in arb_netlist(), seed in any::<u64>()) {
        let p = PartitionProblem::new(nl);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = p.random_state(&mut rng);
        let before = s.clone();
        let mv = p.propose(&s, &mut rng);
        p.apply(&mut s, &mv);
        p.undo(&mut s, &mv);
        prop_assert_eq!(s, before);
    }

    #[test]
    fn all_moves_lists_every_neighbour_once(nl in arb_netlist(), seed in any::<u64>()) {
        let p = PartitionProblem::new(nl);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = p.random_state(&mut rng);
        let (a, b) = (s.members(0).len(), s.members(1).len());
        // A reused buffer holds stale moves: the call must clear it.
        let mut buf = vec![SwapMove { i0: a, i1: b }];
        p.all_moves_into(&s, &mut buf);
        let listed: HashSet<_> = buf.iter().map(|mv| (mv.i0, mv.i1)).collect();
        prop_assert_eq!(buf.len(), a * b);
        prop_assert_eq!(listed.len(), a * b, "a swap is listed twice");
        prop_assert!(listed.iter().all(|&(i0, i1)| i0 < a && i1 < b));
        for _ in 0..50 {
            let mv = p.propose(&s, &mut rng);
            prop_assert!(listed.contains(&(mv.i0, mv.i1)), "{:?} not listed", mv);
        }
        if let Some(mv) = p.improving_move(&s, &mut 0) {
            prop_assert!(listed.contains(&(mv.i0, mv.i1)), "{:?} not listed", mv);
        }
    }

    #[test]
    fn cut_bounds(nl in arb_netlist(), seed in any::<u64>()) {
        let p = PartitionProblem::new(nl.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let s = p.random_state(&mut rng);
        prop_assert!((s.cut() as usize) <= nl.n_nets());
    }

    #[test]
    fn kl_never_worsens_and_is_balanced(nl in arb_netlist(), seed in any::<u64>()) {
        let p = PartitionProblem::new(nl.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let start = p.random_state(&mut rng);
        let start_cut = start.cut();
        let out = kernighan_lin(&nl, start);
        prop_assert!(out.state.cut() <= start_cut);
        prop_assert!(out.state.members(0).len().abs_diff(out.state.members(1).len()) <= 1);
        prop_assert!(out.state.verify(&nl));
    }

    #[test]
    fn fm_never_worsens_and_is_balanced(nl in arb_netlist(), seed in any::<u64>()) {
        let p = PartitionProblem::new(nl.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let start = p.random_state(&mut rng);
        let start_cut = start.cut();
        let out = fiduccia_mattheyses(&nl, start);
        prop_assert!(out.state.cut() <= start_cut);
        prop_assert!(out.state.members(0).len().abs_diff(out.state.members(1).len()) <= 1);
        prop_assert!(out.state.verify(&nl));
        // FM is deterministic.
        let mut rng2 = StdRng::seed_from_u64(seed);
        let again = fiduccia_mattheyses(&nl, p.random_state(&mut rng2));
        prop_assert_eq!(again.state.cut(), out.state.cut());
    }

    #[test]
    fn improving_move_improves(nl in arb_netlist(), seed in any::<u64>()) {
        let p = PartitionProblem::new(nl);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = p.random_state(&mut rng);
        let mut probes = 0u64;
        if let Some(mv) = p.improving_move(&s, &mut probes) {
            let before = s.cut();
            p.apply(&mut s, &mv);
            prop_assert!(s.cut() < before);
        }
        prop_assert!(probes > 0);
    }
}
