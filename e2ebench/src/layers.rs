//! Benchmark-side timings of single layers, each calling a library crate's
//! public functions on the workload's own instances: the move kernels, the
//! acceptance decision, the adaptive probe, instance-set construction and
//! the WAL append.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use anneal_core::schedule::adaptive::{self, AdaptiveMode, DEFAULT_PROBE_SAMPLES};
use anneal_core::{derive_seed, estimate_delta_stats, Problem};
use anneal_experiments::checkpoint::{create_wal, WalMeta};
use anneal_experiments::{
    gola_paper_set, nola_paper_set, ArrangementSet, CellRecord, MethodCtx, MethodSpec, TelemetryLog,
};
use anneal_linarr::LinearArrangementProblem;
use anneal_netlist::generator::random_two_pin;
use anneal_partition::PartitionProblem;
use anneal_tsp::{TspInstance, TspProblem};
use rand::{rngs::StdRng, SeedableRng};

use crate::report::Outcome;
use crate::stats::median;

/// Times every kernel-level layer on the workload's instances at `seed`:
/// the four move kernels, the decision (over the NOLA or GOLA roster and
/// instance set, as the workload runs) and the adaptive probe.
pub fn kernel_metrics(out: &mut Outcome, seed: u64, nola: bool) {
    let gola = gola_paper_set(seed);
    let nola_set = nola_paper_set(seed);
    out.set("linarr.gola_cycle_ns", cycle_ns(&gola, seed));
    out.set("linarr.nola_cycle_ns", cycle_ns(&nola_set, seed));
    out.set("tsp.cycle_ns", cycle_ns(&tsp_set(seed), seed));
    out.set("partition.cycle_ns", cycle_ns(&partition_set(seed), seed));
    let tuned = anneal_experiments::TunedY::default();
    let (set, roster) = if nola {
        (&nola_set, anneal_experiments::reduced_roster(tuned))
    } else {
        (&gola, anneal_experiments::full_roster(tuned))
    };
    out.set("accept.decide_ns", decide_ns(set, &roster, seed));
    out.set("adaptive.probe_us", probe_us(set, seed));
}

/// Wall time each kernel timing aims for, split over several rounds.
const KERNEL_TARGET: Duration = Duration::from_millis(60);

/// Median nanoseconds of one propose/apply/cost/undo cycle — the Figure-1
/// inner loop minus the decision — over every problem in `problems`.
pub fn cycle_ns<P: Problem>(problems: &[P], seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut states: Vec<P::State> = problems.iter().map(|p| p.random_state(&mut rng)).collect();
    const CYCLES: usize = 256;
    let mut rounds = Vec::new();
    let started = Instant::now();
    while rounds.len() < 5 || started.elapsed() < KERNEL_TARGET {
        let t = Instant::now();
        for (p, state) in problems.iter().zip(states.iter_mut()) {
            for _ in 0..CYCLES {
                let mv = p.propose(state, &mut rng);
                p.apply(state, &mv);
                black_box(p.cost(state));
                p.undo(state, &mv);
            }
        }
        rounds.push(t.elapsed().as_nanos() as f64 / (CYCLES * problems.len()) as f64);
    }
    median(&rounds)
}

/// TSP instances shaped like the job server's default (60 cities).
fn tsp_set(seed: u64) -> Vec<TspProblem> {
    (0..4)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed ^ 0x5453, i));
            TspProblem::new(TspInstance::random_euclidean(60, &mut rng))
        })
        .collect()
}

/// Partition instances shaped like the job server's default (15 elements,
/// 150 two-pin nets).
fn partition_set(seed: u64) -> Vec<PartitionProblem> {
    (0..4)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed ^ 0x5041, i));
            PartitionProblem::new(random_two_pin(15, 150, &mut rng))
        })
        .collect()
}

/// Median nanoseconds of one `GFunction::decide_figure1` call, over every
/// method in `roster`, on (current, proposed) cost pairs drawn from real
/// moves on `problems`.
pub fn decide_ns(problems: &[LinearArrangementProblem], roster: &[MethodSpec], seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(4096);
    for p in problems.iter().cycle().take(64) {
        let mut state = p.random_state(&mut rng);
        for _ in 0..64 {
            let before = p.cost(&state);
            let mv = p.propose(&state, &mut rng);
            p.apply(&mut state, &mv);
            pairs.push((before, p.cost(&state)));
        }
    }
    let ctx = MethodCtx {
        n_nets: problems[0].netlist().n_nets(),
    };
    let per_method: Vec<f64> = roster
        .iter()
        .map(|spec| {
            let mut g = spec.g(&ctx);
            let t = Instant::now();
            let mut accepted = 0u32;
            for _ in 0..4 {
                for &(h_i, h_j) in &pairs {
                    accepted += u32::from(g.decide_figure1(0, h_i, h_j, &mut rng));
                }
            }
            black_box(accepted);
            t.elapsed().as_nanos() as f64 / (4 * pairs.len()) as f64
        })
        .collect();
    median(&per_method)
}

/// Median microseconds of the adaptive probe one instance pays:
/// `estimate_delta_stats` over the default sample count plus `derive`.
pub fn probe_us(problems: &[LinearArrangementProblem], seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_instance: Vec<f64> = problems
        .iter()
        .map(|p| {
            let t = Instant::now();
            let stats = estimate_delta_stats(p, DEFAULT_PROBE_SAMPLES, &mut rng);
            black_box(adaptive::derive(
                &stats,
                AdaptiveMode::Acceptance,
                6,
                DEFAULT_PROBE_SAMPLES,
            ));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&per_instance)
}

/// Whether a table runs on the NOLA instance set.
pub fn is_nola(table: &str) -> bool {
    matches!(table, "table4.2c" | "table4.2d")
}

/// Builds `table`'s instance set and starting arrangements exactly as its
/// runner does: the paper set plus random or Goto starts.
pub fn build_set(table: &str, seed: u64) -> ArrangementSet {
    let problems = if is_nola(table) {
        nola_paper_set(seed)
    } else {
        gola_paper_set(seed)
    };
    match table {
        "table4.2a" | "table4.2d" => ArrangementSet::with_goto_starts(problems, seed),
        _ => ArrangementSet::with_random_starts(problems, seed),
    }
}

/// Median milliseconds of [`build_set`] for `table`.
pub fn build_ms(table: &str, seed: u64) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(build_set(table, seed));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Median microseconds of one WAL append: `records` re-appended through
/// `TelemetryLog::with_writer(create_wal(..))` into a fresh file at `path`.
pub fn append_us(records: &[CellRecord], path: &Path, meta: &WalMeta) -> Result<f64, String> {
    let log = TelemetryLog::with_writer(create_wal(&path.display().to_string(), meta)?);
    let samples: Vec<f64> = records
        .iter()
        .map(|r| {
            let r = r.clone();
            let t = Instant::now();
            log.record(r);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    if log.write_errors() > 0 {
        return Err(format!("WAL appends to {} failed", path.display()));
    }
    Ok(median(&samples))
}
