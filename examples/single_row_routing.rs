//! Single-row routing via NOLA (§4.1 of the paper: the linear-arrangement
//! problem "arises … in the ordering of via columns in single row routing
//! [RAGH84] [TING78]").
//!
//! A single-row routing instance places via columns along a line; each
//! multi-terminal net must connect its vias with wiring that runs in
//! horizontal tracks above/below the row. The number of tracks needed is
//! governed by the maximum number of nets crossing between adjacent
//! columns — exactly the NOLA density. Reordering the columns to minimize
//! density minimizes the channel height.
//!
//! ```sh
//! cargo run --release --example single_row_routing
//! ```

use annealbench::core::{Annealer, GFunction, NoopObserver, Strategy};
use annealbench::experiments::vax_seconds;
use annealbench::linarr::{goto_arrangement, LinearArrangementProblem};
use annealbench::netlist::Netlist;

fn main() {
    // A hand-built single-row instance: 12 via columns, 18 signal nets.
    // (In a real flow these come from the channel router's pin assignment.)
    let netlist = Netlist::builder(12)
        .net([0, 3, 7])
        .net([1, 2])
        .net([2, 5, 9])
        .net([0, 11])
        .net([4, 6])
        .net([3, 8, 10])
        .net([5, 7])
        .net([1, 6, 11])
        .net([2, 4])
        .net([8, 9])
        .net([0, 5, 10])
        .net([6, 9])
        .net([7, 11])
        .net([1, 4, 8])
        .net([3, 9])
        .net([2, 10, 11])
        .net([0, 6])
        .net([5, 8])
        .build()
        .expect("instance is well-formed");

    let problem = LinearArrangementProblem::new(netlist);

    // Identity order (as dealt by the netlist): the unoptimized channel.
    let identity = problem.state_from(annealbench::linarr::Arrangement::identity(12));
    println!(
        "via columns in given order  : {} tracks",
        identity.density()
    );

    // Goto's constructive ordering.
    let goto = problem.state_from(goto_arrangement(problem.netlist()));
    println!("Goto ordering               : {} tracks", goto.density());

    // Monte Carlo polish with g = 1 (the paper's recommendation).
    let result = Annealer::new(&problem)
        .strategy(Strategy::Figure1)
        .budget(vax_seconds(12.0))
        .start_from(goto.clone())
        .seed(9)
        .run(&mut GFunction::unit(), &mut NoopObserver);
    println!("after g = 1 polish          : {} tracks", result.best_cost);
    println!(
        "column order: {:?}",
        result.best_state.arrangement().order()
    );

    assert!(result.best_cost <= goto.density() as f64);
}
