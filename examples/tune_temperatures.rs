//! Reproduce the §4.2.1 temperature-tuning sweep at reduced scale and print
//! the per-class sweep table plus the winning temperatures.
//!
//! ```sh
//! cargo run --release --example tune_temperatures
//! ```

use annealbench::experiments::{tuning, SuiteConfig, G_CLASSES};

fn main() {
    // Paper-faithful sweep (fast at the calibrated 250 evals/VAX-second).
    let config = SuiteConfig::paper();
    let outcome = tuning::run(&config);

    println!("{}", outcome.table);
    println!("winning temperatures:");
    for (class, y1) in G_CLASSES.iter().zip(outcome.tuned.0) {
        println!("  {:<26} Y₁ = {y1}", class.name);
    }
}
