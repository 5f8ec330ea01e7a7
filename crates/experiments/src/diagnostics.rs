//! Chain diagnostics: *why* the methods rank the way they do.
//!
//! The paper reports only endpoint reductions; this table exposes the
//! mechanics — overall acceptance rate, uphill acceptances, and how each
//! method's temperature control actually advanced — for the full Table-4.1
//! roster on the GOLA set at the 12-second budget.

use anneal_core::Strategy;

use crate::budgetmap::PAPER_SECONDS;
use crate::config::SuiteConfig;
use crate::instances::gola_paper_set;
use crate::roster::{full_roster, TunedY};
use crate::runner::{ArrangementSet, CellPolicy};
use crate::table::Table;
use crate::telemetry::{CellKey, TelemetryLog};

/// Salt of the diagnostics chains' seed stream, apart from the tables'.
const DIAGNOSTICS_SALT: u64 = 0x444941;

/// Regenerates the diagnostics table. Columns:
///
/// * `accept %` — proposals accepted (either direction), percent;
/// * `nonimpr/1k` — non-improving (flat or uphill) acceptances per
///   thousand proposals;
/// * `eq adv` — equilibrium-triggered temperature advances (total over 30
///   instances);
/// * `reduction` — the total reduction of the same 30 starts. The chains
///   draw from their own seed stream, so this is a second sample of
///   Table 4.1's 12-second column, not a copy of it.
pub fn run(config: &SuiteConfig) -> Table {
    let problems = gola_paper_set(config.seed);
    let mut set = ArrangementSet::with_random_starts(problems, config.seed);
    set.salt = DIAGNOSTICS_SALT;
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

    let policy = CellPolicy::with_threads(config.threads);
    let log = TelemetryLog::disabled();
    for spec in full_roster(TunedY::default()) {
        let key = CellKey::new("diagnostics", spec.name(), budget.to_string());
        let r = set.run_cell(key, &spec, Strategy::Figure1, budget, &policy, &log);
        let proposals: u64 = r.per_temp.iter().map(|t| t.proposals).sum();
        let p = proposals.max(1) as f64;
        // Every stage that ended at equilibrium advanced the temperature,
        // except a run's last stage, which ended the run.
        let ended: u64 = r.per_temp.iter().map(|t| t.ended_equilibrium).sum();
        let advances = ended - r.stops_equilibrium as u64;
        table.push_row(
            spec.name(),
            vec![
                100.0 * (r.accepted_downhill + r.accepted_uphill) as f64 / p,
                1000.0 * r.accepted_uphill as f64 / p,
                advances as f64,
                r.reduction,
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
        // The threads a run fans out over change no bit of any column.
        let on_two = run(&SuiteConfig::scaled(4).with_threads(2));
        assert_eq!(on_two.rows.len(), 21);
        for ((label, a), (other, b)) in t.rows.iter().zip(&on_two.rows) {
            assert_eq!(label, other);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{label}");
        }
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
