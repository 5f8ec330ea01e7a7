//! Property-based tests for the netlist substrate.

use anneal_netlist::{generator, Netlist, NetlistStats};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Strategy producing arbitrary valid netlists.
fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..20).prop_flat_map(|n| {
        let net = proptest::sample::subsequence((0..n as u32).collect::<Vec<_>>(), 2..=n.min(6));
        proptest::collection::vec(net, 0..40).prop_map(move |nets| {
            Netlist::builder(n)
                .nets(nets)
                .build()
                .expect("subsequences are valid nets")
        })
    })
}

proptest! {
    #[test]
    fn incidence_is_consistent(nl in arb_netlist()) {
        // Every pin of every net appears in that element's incidence list,
        // and vice versa.
        for (i, pins) in nl.nets().enumerate() {
            for &p in pins {
                prop_assert!(nl.nets_of(p as usize).contains(&(i as u32)));
            }
        }
        for e in 0..nl.n_elements() {
            for &n in nl.nets_of(e) {
                prop_assert!(nl.pins(n as usize).contains(&(e as u32)));
            }
        }
    }

    #[test]
    fn degree_sum_equals_total_pins(nl in arb_netlist()) {
        let degree_sum: usize = (0..nl.n_elements()).map(|e| nl.degree(e)).sum();
        prop_assert_eq!(degree_sum, nl.total_pins());
    }

    #[test]
    fn joint_nets_is_symmetric(nl in arb_netlist()) {
        for a in 0..nl.n_elements() {
            for b in 0..nl.n_elements() {
                prop_assert_eq!(nl.joint_nets(a, b), nl.joint_nets(b, a));
            }
        }
    }

    #[test]
    fn generated_two_pin_instances_are_valid(seed in any::<u64>(), n in 2usize..30, m in 0usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = generator::random_two_pin(n, m, &mut rng);
        prop_assert_eq!(nl.n_nets(), m);
        prop_assert!(nl.is_two_pin());
        for net in nl.nets() {
            prop_assert!(net[0] < net[1]);
            prop_assert!((net[1] as usize) < n);
        }
    }

    #[test]
    fn generated_multi_pin_instances_are_valid(
        seed in any::<u64>(),
        n in 5usize..30,
        m in 0usize..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = generator::random_multi_pin(n, m, 2, 5, &mut rng);
        prop_assert_eq!(nl.n_nets(), m);
        for net in nl.nets() {
            prop_assert!((2..=5).contains(&net.len()));
            for w in net.windows(2) {
                prop_assert!(w[0] < w[1], "pins sorted and distinct");
            }
        }
    }

    #[test]
    fn stats_are_internally_consistent(nl in arb_netlist()) {
        let s = NetlistStats::of(&nl);
        prop_assert_eq!(s.n_elements, nl.n_elements());
        prop_assert_eq!(s.n_nets, nl.n_nets());
        prop_assert!(s.min_degree <= s.max_degree);
        if s.n_nets > 0 {
            prop_assert!(s.min_net_size >= 2);
            prop_assert!(s.mean_net_size >= s.min_net_size as f64);
            prop_assert!(s.mean_net_size <= s.max_net_size as f64);
        }
    }
}
