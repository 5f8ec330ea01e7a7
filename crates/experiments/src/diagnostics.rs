//! Chain diagnostics: *why* the methods rank the way they do.
//!
//! The paper reports only endpoint reductions; this table exposes the
//! mechanics — overall acceptance rate, uphill acceptances, and how each
//! method's temperature control actually advanced — for the full Table-4.1
//! roster on the GOLA set at the 12-second budget.

use anneal_core::{derive_seed, Annealer, NoopObserver};

use crate::budgetmap::PAPER_SECONDS;
use crate::config::SuiteConfig;
use crate::instances::gola_paper_set;
use crate::roster::{full_roster, MethodCtx};
use crate::runner::ArrangementSet;
use crate::table::Table;

/// Regenerates the diagnostics table. Columns:
///
/// * `accept %` — proposals accepted (either direction), percent;
/// * `nonimpr/1k` — non-improving (flat or uphill) acceptances per
///   thousand proposals;
/// * `eq adv` — equilibrium-triggered temperature advances (total over 30
///   instances);
/// * `reduction` — the Table-4.1 12-second cell, for cross-reference.
pub fn run(config: &SuiteConfig) -> Table {
    let problems = gola_paper_set(config.seed);
    let set = ArrangementSet::with_random_starts(problems, config.seed);
    let budget = config.scale.vax_seconds(PAPER_SECONDS[2]);

    let mut table = Table::new(
        "Diagnostics — chain behaviour, GOLA, Figure 1, 12 sec/instance",
        "g function",
        vec![
            "accept %".into(),
            "nonimpr/1k".into(),
            "eq adv".into(),
            "reduction".into(),
        ],
    );

    for spec in full_roster(config.tuned) {
        let mut proposals = 0u64;
        let mut accepted = 0u64;
        let mut uphill = 0u64;
        let mut eq_adv = 0u64;
        let mut reduction = 0.0;
        for (idx, (problem, start)) in set.problems().iter().zip(set.starts()).enumerate() {
            let ctx = MethodCtx {
                n_nets: problem.netlist().n_nets(),
            };
            let r = Annealer::new(problem)
                .budget(budget)
                .seed(derive_seed(config.seed ^ 0x444941, idx as u64))
                .start_from(start.clone())
                .run(&mut spec.g(&ctx), &mut NoopObserver);
            proposals += r.stats.proposals;
            accepted += r.stats.accepted_downhill + r.stats.accepted_uphill;
            uphill += r.stats.accepted_uphill;
            eq_adv += r.stats.equilibrium_advances;
            reduction += r.reduction();
        }
        let p = proposals.max(1) as f64;
        table.push_row(
            spec.name(),
            vec![
                100.0 * accepted as f64 / p,
                1000.0 * uphill as f64 / p,
                eq_adv as f64,
                reduction,
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_are_coherent() {
        let t = run(&SuiteConfig::scaled(4));
        assert_eq!(t.rows.len(), 21);
        for (label, v) in &t.rows {
            let (accept_pct, uphill_per_k) = (v[0], v[1]);
            assert!((0.0..=100.0).contains(&accept_pct), "{label}: {accept_pct}");
            assert!((0.0..=1000.0).contains(&uphill_per_k), "{label}");
            // Uphill acceptances are a subset of acceptances.
            assert!(
                uphill_per_k <= 10.0 * accept_pct + 1e-9,
                "{label}: non-improving accepts ({uphill_per_k}/1k) exceed total accepts ({accept_pct}%)"
            );
            assert!(v[3] >= 0.0, "{label}: reductions nonnegative");
        }
        // The gate makes g = 1 accept strictly fewer uphill moves per
        // proposal than [COHO83a]'s ungated ~0.55 probability.
        let g1_up = t.value("g = 1", "nonimpr/1k").unwrap();
        let coho_up = t.value("[COHO83a]", "nonimpr/1k").unwrap();
        assert!(
            g1_up < coho_up,
            "gated g=1 ({g1_up}/1k) should accept fewer non-improving moves than COHO83a ({coho_up}/1k)"
        );
    }
}
