//! Property-based tests for the framework's invariants.

use anneal_core::schedule::adaptive;
use anneal_core::{
    derive_seed, AcceptanceController, Annealer, Budget, DeltaStats, Form, GFunction, Gate, Meter,
    NoopObserver, Problem, Rng, RngExt, Schedule,
};
use proptest::prelude::*;

/// Toy problem for strategy-level properties.
struct BitCount {
    bits: u32,
}
impl Problem for BitCount {
    type State = u64;
    type Move = u32;
    fn random_state(&self, rng: &mut dyn Rng) -> u64 {
        rng.random_range(0..(1u64 << self.bits))
    }
    fn cost(&self, s: &u64) -> f64 {
        s.count_ones() as f64
    }
    fn propose(&self, _: &u64, rng: &mut dyn Rng) -> u32 {
        rng.random_range(0..self.bits)
    }
    fn apply(&self, s: &mut u64, m: &u32) {
        *s ^= 1 << m;
    }
    fn improving_move(&self, s: &u64, probes: &mut u64) -> Option<u32> {
        for b in 0..self.bits {
            *probes += 1;
            if s & (1u64 << b) != 0 {
                return Some(b);
            }
        }
        None
    }
    fn all_moves_into(&self, _: &u64, buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(0..self.bits);
    }
}

fn any_form() -> impl Strategy<Value = Form> {
    prop_oneof![
        Just(Form::Boltzmann),
        Just(Form::Constant),
        (1u32..=3).prop_map(|degree| Form::PolyCurrent { degree }),
        Just(Form::ExpCurrent),
        (1u32..=3).prop_map(|degree| Form::PolyDifference { degree }),
        Just(Form::ExpDifference),
        (1.0f64..1000.0).prop_map(|m| Form::Coho83a { m }),
    ]
}

proptest! {
    #[test]
    fn probabilities_stay_in_unit_interval(
        form in any_form(),
        h_i in 0.0f64..1e9,
        dh in 0.0f64..1e6,
        y in 1e-9f64..1e9,
    ) {
        let p = form.probability(h_i, h_i + dh, y);
        prop_assert!((0.0..=1.0).contains(&p), "{form:?} gave {p}");
    }

    #[test]
    fn boltzmann_monotone_in_delta(
        h_i in 0.0f64..1e6,
        dh1 in 0.0f64..1e3,
        dh2 in 0.0f64..1e3,
        y in 1e-3f64..1e3,
    ) {
        let (lo, hi) = if dh1 <= dh2 { (dh1, dh2) } else { (dh2, dh1) };
        let p_lo = Form::Boltzmann.probability(h_i, h_i + lo, y);
        let p_hi = Form::Boltzmann.probability(h_i, h_i + hi, y);
        prop_assert!(p_lo >= p_hi, "smaller uphill deltas are at least as acceptable");
    }

    #[test]
    fn difference_forms_monotone_in_delta(
        degree in 1u32..=3,
        h_i in 0.0f64..1e6,
        dh1 in 1e-3f64..1e3,
        dh2 in 1e-3f64..1e3,
        y in 1e-3f64..1e3,
    ) {
        let form = Form::PolyDifference { degree };
        let (lo, hi) = if dh1 <= dh2 { (dh1, dh2) } else { (dh2, dh1) };
        let p_lo = form.probability(h_i, h_i + lo, y);
        let p_hi = form.probability(h_i, h_i + hi, y);
        prop_assert!(p_lo >= p_hi);
    }

    #[test]
    fn gate_accepts_exactly_on_period(period in 1u32..100, uphills in 0u32..500) {
        let mut gate = Gate::new(period);
        let mut accepted = 0u32;
        for _ in 0..uphills {
            if gate.on_uphill() {
                accepted += 1;
            }
        }
        // Reference model: counter increments per uphill, opens at `period`,
        // restarts at 1 (the paper's asymmetric reset).
        let mut counter = 0u32;
        let mut direct = 0u32;
        for _ in 0..uphills {
            counter += 1;
            if counter >= period {
                counter = 1;
                direct += 1;
            }
        }
        prop_assert_eq!(accepted, direct);
    }

    #[test]
    fn budget_split_conserves_total(n in 1u64..1_000_000, k in 1usize..32) {
        let p = Budget::evaluations(n).split(k).evals();
        prop_assert!(p * k as u64 >= n, "split covers the whole budget");
        prop_assert!(p <= n, "a share never exceeds the total");
        prop_assert!((p.saturating_sub(1)) * (k as u64) < n, "shares are minimal");
    }

    #[test]
    fn meter_exhausts_exactly_at_limit(limit in 1u64..10_000, step in 1u64..97) {
        let mut m = Meter::new(Budget::evaluations(limit));
        let mut charged = 0u64;
        while !m.exhausted() {
            m.charge(step);
            charged += step;
            prop_assert!(charged < limit + step);
        }
        prop_assert!(charged >= limit);
    }

    #[test]
    fn geometric_schedule_is_strictly_decreasing(
        y1 in 1e-3f64..1e6,
        ratio in 0.01f64..0.999,
        k in 1usize..20,
    ) {
        let s = Schedule::geometric(y1, ratio, k);
        prop_assert_eq!(s.len(), k);
        for w in s.values().windows(2) {
            prop_assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn derive_seed_is_injective_in_small_ranges(base in any::<u64>()) {
        let mut seen = std::collections::HashSet::new();
        for idx in 0..256u64 {
            prop_assert!(seen.insert(derive_seed(base, idx)));
        }
    }

    #[test]
    fn figure1_best_never_exceeds_initial(seed in any::<u64>(), budget in 10u64..3000) {
        let mut g = GFunction::six_temp_annealing(2.0);
        let r = Annealer::new(&BitCount { bits: 16 })
            .budget(Budget::evaluations(budget))
            .seed(seed)
            .run(&mut g, &mut NoopObserver);
        prop_assert!(r.best_cost <= r.initial_cost);
        prop_assert!(r.best_cost <= r.final_cost);
        prop_assert!(r.stats.evals <= budget + 6, "budget respected within one step per temp");
    }

    #[test]
    fn figure2_best_never_exceeds_initial(seed in any::<u64>(), budget in 10u64..3000) {
        let mut g = GFunction::unit();
        let r = Annealer::new(&BitCount { bits: 16 })
            .strategy(anneal_core::Strategy::Figure2)
            .budget(Budget::evaluations(budget))
            .seed(seed)
            .run(&mut g, &mut NoopObserver);
        prop_assert!(r.best_cost <= r.initial_cost);
        // Descent probes arrive in bursts of up to `bits`, so allow one burst
        // of overshoot.
        prop_assert!(r.stats.evals <= budget + 17);
    }

    #[test]
    fn controller_adjust_is_monotone_in_observed_acceptance(
        planned in 1e-9f64..1e9,
        obs1 in 0.0f64..1.0,
        obs2 in 0.0f64..1.0,
        target in 0.0f64..1.0,
        gain in 0.0f64..10.0,
    ) {
        let c = AcceptanceController::default().with_gain(gain);
        let (lo, hi) = if obs1 <= obs2 { (obs1, obs2) } else { (obs2, obs1) };
        let t_lo = c.adjust(planned, lo, target);
        let t_hi = c.adjust(planned, hi, target);
        // Accepting more than the comparison point can only cool further.
        prop_assert!(t_hi <= t_lo, "adjust must be monotone decreasing in observed");
    }

    #[test]
    fn controller_output_stays_positive_and_finite(
        planned in prop_oneof![1e-30f64..1e30, Just(f64::INFINITY), Just(f64::NAN)],
        observed in -1.0f64..2.0,
        target in -1.0f64..2.0,
        gain in 0.0f64..1e6,
    ) {
        let c = AcceptanceController::default().with_gain(gain);
        let t = c.adjust(planned, observed, target);
        prop_assert!(t.is_finite() && t > 0.0, "adjust({planned}, {observed}, {target}) = {t}");
    }

    #[test]
    fn controller_target_trajectory_is_decreasing_and_bounded(
        hot in 0.5f64..0.99,
        cold_frac in 0.01f64..1.0,
        k in 1usize..32,
    ) {
        let cold = hot * cold_frac;
        let c = AcceptanceController::new(hot, cold);
        let mut prev = f64::INFINITY;
        for stage in 0..k {
            let t = c.target(stage, k);
            prop_assert!(t <= prev + 1e-12);
            prop_assert!((cold - 1e-12..=hot + 1e-12).contains(&t));
            prev = t;
        }
    }

    #[test]
    fn adaptive_schedules_are_positive_finite_and_decreasing(
        std_dev in 0.0f64..1e6,
        min_positive in prop_oneof![Just(None), (1e-9f64..1e3).prop_map(Some)],
        k in 1usize..32,
        probe in 1u64..100_000,
    ) {
        let stats = DeltaStats { mean: 0.0, std_dev, min_positive, samples: probe };
        for mode in [adaptive::AdaptiveMode::Acceptance, adaptive::AdaptiveMode::Asa] {
            let spec = adaptive::derive(&stats, mode, k, probe);
            prop_assert_eq!(spec.schedule.len(), k);
            prop_assert_eq!(spec.probe_evals, probe);
            for w in spec.schedule.values().windows(2) {
                prop_assert!(w[0] >= w[1], "{mode}: {w:?}");
            }
            for &y in spec.schedule.values() {
                prop_assert!(y.is_finite() && y > 0.0);
            }
        }
    }

    #[test]
    fn controlled_runs_are_deterministic(seed in any::<u64>(), budget in 100u64..3000) {
        let p = BitCount { bits: 12 };
        let run = || {
            let mut g = GFunction::six_temp_annealing(2.0);
            Annealer::new(&p)
                .controller(Some(AcceptanceController::default()))
                .budget(Budget::evaluations(budget))
                .seed(seed)
                .run(&mut g, &mut NoopObserver)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
        prop_assert_eq!(a.final_cost.to_bits(), b.final_cost.to_bits());
        prop_assert_eq!(a.stats, b.stats);
        for ts in &a.stats.per_temp {
            prop_assert!(ts.temperature.is_finite() && ts.temperature > 0.0);
        }
    }

    #[test]
    fn strategies_are_deterministic(seed in any::<u64>()) {
        let p = BitCount { bits: 12 };
        use anneal_core::Strategy as Chain;
        for strategy in [
            Chain::Figure1,
            Chain::Figure2,
            Chain::Rejectionless,
            Chain::ReplicaExchange { exchange_interval: 16 },
        ] {
            let run = || {
                Annealer::new(&p)
                    .strategy(strategy)
                    .budget(Budget::evaluations(500))
                    .seed(seed)
                    .run(&mut GFunction::two_level(), &mut NoopObserver)
            };
            let a = run();
            let b = run();
            prop_assert_eq!(a.best_cost, b.best_cost, "{:?}", strategy);
            prop_assert_eq!(a.final_cost, b.final_cost, "{:?}", strategy);
            prop_assert_eq!(a.stats, b.stats, "{:?}", strategy);
        }
    }
}
