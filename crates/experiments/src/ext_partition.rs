//! **Extension: circuit partition** (§5 / \[NAHA84\], \[KIRK83\]).
//!
//! The paper's conclusion reports that circuit-partition experiments were
//! also performed (full tables in the \[NAHA84\] technical report). This
//! module reproduces the comparison the DAC paper implies: simulated
//! annealing at Kirkpatrick's schedule versus `g = 1` versus the classical
//! Kernighan–Lin heuristic and time-equalized multistart descent, on random
//! two-pin netlists.

use anneal_core::{derive_seed, local, Annealer, GFunction, NoopObserver, Problem};
use anneal_netlist::generator::random_two_pin;
use anneal_partition::{fiduccia_mattheyses, kernighan_lin, PartitionProblem, PartitionState};
use rand::{rngs::StdRng, SeedableRng};

use crate::config::SuiteConfig;
use crate::runner::RUN_SALT;
use crate::table::Table;

/// Instances in the extension set.
pub const N_INSTANCES: usize = 10;
/// Elements per instance.
pub const N_ELEMENTS: usize = 32;
/// Two-pin nets per instance.
pub const N_NETS: usize = 96;
/// Paper-equivalent seconds per instance and method.
pub const SECONDS: f64 = 6.0;

/// Regenerates the partition extension table: rows are methods, columns are
/// the total best cut over the instance set (lower is better) and the number
/// of instances on which the method matches the best cut found by any
/// method.
pub fn run(config: &SuiteConfig) -> Table {
    let budget = config.scale.vax_seconds(SECONDS);
    let problems: Vec<PartitionProblem> = (0..N_INSTANCES)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(derive_seed(config.seed ^ 0x504152, i as u64));
            PartitionProblem::new(random_two_pin(N_ELEMENTS, N_NETS, &mut rng))
        })
        .collect();

    // Fixed random starting partitions shared by the Monte Carlo methods.
    let starts: Vec<PartitionState> = problems
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, i as u64));
            p.random_state(&mut rng)
        })
        .collect();

    type GFactory = fn() -> GFunction;
    let monte_carlo: Vec<(&str, GFactory)> = vec![
        ("Six Temperature Annealing (Y₁=10)", || {
            GFunction::six_temp_annealing(10.0)
        }),
        ("Metropolis", || GFunction::metropolis(2.0)),
        ("g = 1", GFunction::unit),
        ("Two level g", GFunction::two_level),
    ];

    // Collect per-method best cuts per instance.
    let mut results: Vec<(String, Vec<f64>)> = Vec::new();

    for (name, make_g) in &monte_carlo {
        let cuts: Vec<f64> = problems
            .iter()
            .zip(&starts)
            .enumerate()
            .map(|(i, (p, start))| {
                Annealer::new(p)
                    .budget(budget)
                    .seed(derive_seed(config.seed ^ RUN_SALT, i as u64))
                    .start_from(start.clone())
                    .run(&mut make_g(), &mut NoopObserver)
                    .best_cost
            })
            .collect();
        results.push((name.to_string(), cuts));
    }

    // Kernighan–Lin from the same starts (deterministic).
    let kl_cuts: Vec<f64> = problems
        .iter()
        .zip(&starts)
        .map(|(p, start)| kernighan_lin(p.netlist(), start.clone()).state.cut() as f64)
        .collect();
    results.push(("Kernighan-Lin".to_string(), kl_cuts));

    // Fiduccia–Mattheyses from the same starts (deterministic, net-native).
    let fm_cuts: Vec<f64> = problems
        .iter()
        .zip(&starts)
        .map(|(p, start)| fiduccia_mattheyses(p.netlist(), start.clone()).state.cut() as f64)
        .collect();
    results.push(("Fiduccia-Mattheyses".to_string(), fm_cuts));

    // Time-equalized multistart descent ([LIN73]-style protocol).
    let ms_cuts: Vec<f64> = problems
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut rng = StdRng::seed_from_u64(derive_seed(config.seed ^ 0x4D53, i as u64));
            local::multistart(p, budget, &mut rng).best_cost
        })
        .collect();
    results.push(("Multistart descent".to_string(), ms_cuts));

    // Per-instance best across methods, for the "wins" column.
    let best_per_instance: Vec<f64> = (0..N_INSTANCES)
        .map(|i| {
            results
                .iter()
                .map(|(_, cuts)| cuts[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();

    let mut table = Table::new(
        format!(
            "Extension — circuit partition: {N_INSTANCES} instances, \
             {N_ELEMENTS} elements, {N_NETS} nets, {SECONDS:.0} sec/instance"
        ),
        "method",
        vec!["total cut".into(), "ties best".into()],
    );
    for (name, cuts) in &results {
        let total: f64 = cuts.iter().sum();
        let wins = cuts
            .iter()
            .zip(&best_per_instance)
            .filter(|(c, b)| (*c - *b).abs() < 0.5)
            .count() as f64;
        table.push_row(name.clone(), vec![total, wins]);
    }
    table
}

/// The method names in the table, in order.
pub fn method_names() -> [&'static str; 7] {
    [
        "Six Temperature Annealing (Y₁=10)",
        "Metropolis",
        "g = 1",
        "Two level g",
        "Kernighan-Lin",
        "Fiduccia-Mattheyses",
        "Multistart descent",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape_and_sanity() {
        let table = run(&SuiteConfig::scaled(1));
        assert_eq!(table.rows.len(), 7);
        for name in method_names() {
            assert!(
                table.value(name, "total cut").is_some(),
                "missing row {name}"
            );
        }
        // Cuts are nonnegative and bounded by the net count.
        for (label, values) in &table.rows {
            assert!(
                values[0] >= 0.0 && values[0] <= (N_INSTANCES * N_NETS) as f64,
                "{label}"
            );
            assert!(values[1] >= 0.0 && values[1] <= N_INSTANCES as f64);
        }
    }
}
