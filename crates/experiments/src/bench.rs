//! The benchmark subsystem: named hot-path kernels and a machine-readable
//! perf report (`BENCH_core.json`).
//!
//! The `bench` binary (`cargo run --release -p anneal-experiments --bin
//! bench`) times every kernel returned by [`kernels`] with the vendored
//! criterion substitute's [`criterion::measure`] API and renders the results
//! with [`render_report`]. The kernel set covers the hot paths the paper's
//! equal-budget comparisons spend their time in: the linarr swap score and
//! commit (`linarr/gola_swap_cycle` on per-pair net counts,
//! `linarr/nola_swap_cycle` on per-position net rows, the layouts the
//! paper's GOLA and NOLA instances pick), the TSP 2-opt delta, the
//! partition gain update, the Figure-1/Figure-2 decision path, and full
//! chains at a fixed seed and budget.
//!
//! Methodology, schema, and cross-commit comparison workflow are documented
//! in `BENCHMARKS.md` at the repository root.

use anneal_core::schedule::adaptive::{self, AdaptiveMode, DEFAULT_PROBE_SAMPLES};
use anneal_core::{
    estimate_delta_stats, json::Json, Annealer, Budget, GFunction, NoopObserver, Problem, Rng,
    Strategy,
};
use anneal_linarr::LinearArrangementProblem;
use anneal_netlist::generator::{random_multi_pin, random_two_pin};
use anneal_partition::PartitionProblem;
use anneal_tsp::{TspInstance, TspProblem};
use criterion::{measure, Bencher, MeasureConfig, Measurement};
use rand::{rngs::StdRng, SeedableRng};

/// Seed every kernel derives its instances, starting states and chains
/// from. Pinned so numbers are comparable across commits.
pub const BENCH_SEED: u64 = 1985;

/// Evaluation budget of the full-chain kernels.
pub const CHAIN_EVALS: u64 = 1_500;

/// One named benchmark kernel.
pub struct Kernel {
    /// Stable kernel identifier (`area/name`), the unit of cross-commit
    /// comparison.
    pub name: &'static str,
    /// Cost evaluations (decisions, for `accept/*`) one iteration performs;
    /// throughput is derived as `evals_per_iter / seconds_per_iter`.
    pub evals_per_iter: f64,
    run: Box<dyn FnMut(&mut Bencher)>,
}

/// A measured kernel: timing statistics plus derived throughput.
pub struct KernelResult {
    /// Stable kernel identifier.
    pub name: &'static str,
    /// Evaluations one iteration performs (copied from the [`Kernel`]).
    pub evals_per_iter: f64,
    /// Timing statistics from [`criterion::measure`].
    pub measurement: Measurement,
}

impl KernelResult {
    /// Throughput in cost evaluations per second, from the median timing.
    pub fn evals_per_sec(&self) -> f64 {
        if self.measurement.median_ns > 0.0 {
            self.evals_per_iter * 1e9 / self.measurement.median_ns
        } else {
            f64::INFINITY
        }
    }
}

fn gola(index: u64) -> LinearArrangementProblem {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED.wrapping_add(index));
    LinearArrangementProblem::new(random_two_pin(15, 150, &mut rng))
}

fn nola(index: u64) -> LinearArrangementProblem {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED.wrapping_add(0x4E4F).wrapping_add(index));
    LinearArrangementProblem::new(random_multi_pin(15, 150, 2, 10, &mut rng))
}

/// One propose/apply/cost/undo round trip: a proposal made and unmade, as
/// the default `Problem::try_move` runs a rejected one.
fn cycle<P: Problem>(p: &P, state: &mut P::State, rng: &mut dyn Rng) -> f64 {
    let mv = p.propose(state, rng);
    p.apply(state, &mv);
    let cost = p.cost(state);
    p.undo(state, &mv);
    cost
}

fn move_cycle_kernel<P: Problem + 'static>(
    name: &'static str,
    problem: P,
    rng_seed: u64,
) -> Kernel {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut state = problem.random_state(&mut rng);
    Kernel {
        name,
        evals_per_iter: 1.0,
        run: Box::new(move |b| {
            b.iter(|| std::hint::black_box(cycle(&problem, &mut state, &mut rng)))
        }),
    }
}

fn chain_kernel(
    name: &'static str,
    problem: LinearArrangementProblem,
    strategy: Strategy,
    proto: GFunction,
) -> Kernel {
    // Probe run: learn exactly how many evaluations one chain charges (a
    // chain may stop just past the budget), so throughput is honest.
    let evals = {
        let mut g = proto.clone();
        Annealer::new(&problem)
            .strategy(strategy)
            .budget(Budget::evaluations(CHAIN_EVALS))
            .seed(BENCH_SEED)
            .run(&mut g, &mut NoopObserver)
            .stats
            .evals
    };
    Kernel {
        name,
        evals_per_iter: evals as f64,
        run: Box::new(move |b| {
            b.iter(|| {
                let mut g = proto.clone();
                let r = Annealer::new(&problem)
                    .strategy(strategy)
                    .budget(Budget::evaluations(CHAIN_EVALS))
                    .seed(BENCH_SEED)
                    .run(&mut g, &mut NoopObserver);
                std::hint::black_box(r.best_cost)
            })
        }),
    }
}

/// The full kernel roster, in report order.
pub fn kernels() -> Vec<Kernel> {
    let mut list = Vec::new();

    // Move kernels: perturbation delta + incremental bookkeeping update.
    list.push(move_cycle_kernel("linarr/gola_swap_cycle", gola(0), 11));
    list.push(move_cycle_kernel("linarr/nola_swap_cycle", nola(0), 13));
    list.push(move_cycle_kernel(
        "partition/swap_cycle",
        {
            let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x5041);
            PartitionProblem::new(random_two_pin(32, 96, &mut rng))
        },
        14,
    ));
    list.push(move_cycle_kernel(
        "tsp/two_opt_cycle",
        {
            let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x5453);
            TspProblem::new(TspInstance::random_euclidean(60, &mut rng))
        },
        15,
    ));

    // Pure 2-opt delta evaluation (no tour mutation).
    {
        let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x5453);
        let instance = TspInstance::random_euclidean(60, &mut rng);
        let problem = TspProblem::new(instance.clone());
        let tour = problem.random_state(&mut rng);
        let pairs: Vec<(usize, usize)> = (0..64).map(|k| (k % 29, 30 + (k % 29))).collect();
        let mut k = 0usize;
        list.push(Kernel {
            name: "tsp/two_opt_delta",
            evals_per_iter: 1.0,
            run: Box::new(move |b| {
                b.iter(|| {
                    let (i, j) = pairs[k & 63];
                    k += 1;
                    std::hint::black_box(tour.two_opt_delta(&instance, i, j))
                })
            }),
        });
    }

    // Acceptance decisions: the Figure-1 decision path on an uphill move.
    {
        let mut g = GFunction::metropolis(1.5);
        let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x4143);
        list.push(Kernel {
            name: "accept/metropolis_decide",
            evals_per_iter: 1.0,
            run: Box::new(move |b| {
                b.iter(|| std::hint::black_box(g.decide_figure1(0, 80.0, 82.0, &mut rng)))
            }),
        });
    }
    {
        let mut g = GFunction::unit();
        let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x4144);
        list.push(Kernel {
            name: "accept/unit_gate_decide",
            evals_per_iter: 1.0,
            run: Box::new(move |b| {
                b.iter(|| std::hint::black_box(g.decide_figure1(0, 80.0, 82.0, &mut rng)))
            }),
        });
    }

    // Full chains at fixed seed and budget.
    list.push(chain_kernel(
        "chain/fig1_metropolis_gola",
        gola(1),
        Strategy::Figure1,
        GFunction::metropolis(1.5),
    ));
    list.push(chain_kernel(
        "chain/fig2_unit_gola",
        gola(1),
        Strategy::Figure2,
        GFunction::unit(),
    ));
    list.push(chain_kernel(
        "chain/rejectionless_gola",
        gola(1),
        Strategy::Rejectionless,
        GFunction::metropolis(1.5),
    ));

    // Replica exchange over the six-rung ladder: the default exchange
    // spacing, and a swap-heavy variant that stresses the swap phase (an
    // 8x higher swap rate isolates exchange overhead from chain work).
    list.push(chain_kernel(
        "replex/six_temp_gola",
        gola(1),
        Strategy::ReplicaExchange {
            exchange_interval: 64,
        },
        GFunction::six_temp_annealing(2.0),
    ));
    list.push(chain_kernel(
        "replex/six_temp_gola_swap_heavy",
        gola(1),
        Strategy::ReplicaExchange {
            exchange_interval: 8,
        },
        GFunction::six_temp_annealing(2.0),
    ));

    // Adaptive temperature control: the per-instance probe + schedule
    // derivation (the tuning cost `--schedule` charges in-run), and a full
    // controlled chain so the controller's stage-entry arithmetic is priced
    // against the plain Figure-1 chain above.
    {
        let problem = gola(1);
        let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x4150);
        list.push(Kernel {
            name: "adaptive/probe_derive",
            evals_per_iter: DEFAULT_PROBE_SAMPLES as f64,
            run: Box::new(move |b| {
                b.iter(|| {
                    let stats = estimate_delta_stats(&problem, DEFAULT_PROBE_SAMPLES, &mut rng);
                    std::hint::black_box(adaptive::derive(
                        &stats,
                        AdaptiveMode::Acceptance,
                        6,
                        DEFAULT_PROBE_SAMPLES,
                    ))
                })
            }),
        });
    }
    {
        let problem = gola(1);
        let mut probe_rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x4151);
        let stats = estimate_delta_stats(&problem, DEFAULT_PROBE_SAMPLES, &mut probe_rng);
        let spec = adaptive::derive(&stats, AdaptiveMode::Acceptance, 6, DEFAULT_PROBE_SAMPLES);
        let proto = GFunction::annealing(spec.schedule.clone());
        let controller = spec.controller;
        let evals = {
            let mut g = proto.clone();
            Annealer::new(&problem)
                .strategy(Strategy::Figure1)
                .budget(Budget::evaluations(CHAIN_EVALS))
                .seed(BENCH_SEED)
                .controller(controller)
                .run(&mut g, &mut NoopObserver)
                .stats
                .evals
        };
        list.push(Kernel {
            name: "adaptive/fig1_controlled_gola",
            evals_per_iter: evals as f64,
            run: Box::new(move |b| {
                b.iter(|| {
                    let mut g = proto.clone();
                    let r = Annealer::new(&problem)
                        .strategy(Strategy::Figure1)
                        .budget(Budget::evaluations(CHAIN_EVALS))
                        .seed(BENCH_SEED)
                        .controller(controller)
                        .run(&mut g, &mut NoopObserver);
                    std::hint::black_box(r.best_cost)
                })
            }),
        });
    }

    // Observability overhead: one span guard open/close (an Instant read
    // plus a histogram record on drop) and one labeled-counter increment —
    // the per-cell costs the live ops plane charges at cell boundaries.
    // These guard the "spans are cheap enough to leave on" claim.
    {
        let registry = anneal_core::metrics::Registry::new();
        list.push(Kernel {
            name: "metrics/span_guard",
            evals_per_iter: 1.0,
            run: Box::new(move |b| b.iter(|| std::hint::black_box(registry.span("bench")))),
        });
    }
    {
        let registry = anneal_core::metrics::Registry::new();
        let counter = registry.counter_with("bench_cells", &[("method", "m"), ("table", "t")]);
        list.push(Kernel {
            name: "metrics/labeled_counter_inc",
            evals_per_iter: 1.0,
            run: Box::new(move |b| b.iter(|| counter.inc())),
        });
    }

    list
}

/// Measures every kernel whose name contains `filter` (all, when `None`).
pub fn run_kernels(cfg: &MeasureConfig, filter: Option<&str>) -> Vec<KernelResult> {
    kernels()
        .into_iter()
        .filter(|k| filter.is_none_or(|f| k.name.contains(f)))
        .map(|k| {
            let Kernel {
                name,
                evals_per_iter,
                mut run,
            } = k;
            let measurement = measure(name, cfg, &mut run);
            KernelResult {
                name,
                evals_per_iter,
                measurement,
            }
        })
        .collect()
}

/// Best-effort current git revision (`unknown` outside a work tree).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders the `BENCH_core.json` document (schema in `BENCHMARKS.md`).
pub fn render_report(results: &[KernelResult], git_rev: &str, cfg: &MeasureConfig) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"annealbench-bench-v1\",\n");
    s.push_str(&format!("  \"git_rev\": \"{git_rev}\",\n"));
    s.push_str(&format!("  \"seed\": {BENCH_SEED},\n"));
    s.push_str(&format!("  \"sample_size\": {},\n", cfg.sample_size));
    s.push_str(&format!(
        "  \"min_sample_time_ns\": {},\n",
        cfg.min_sample_time.as_nanos()
    ));
    s.push_str("  \"kernels\": [\n");
    for (i, r) in results.iter().enumerate() {
        let m = &r.measurement;
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {}, \"lo_ns\": {}, \"hi_ns\": {}, \
             \"iters_per_sample\": {}, \"samples\": {}, \"evals_per_iter\": {}, \
             \"evals_per_sec\": {}}}{}\n",
            r.name,
            Json::from(m.median_ns),
            Json::from(m.lo_ns),
            Json::from(m.hi_ns),
            m.iters_per_sample,
            m.samples,
            Json::from(r.evals_per_iter),
            Json::from(r.evals_per_sec()),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_roster_is_stable() {
        let names: Vec<&str> = kernels().iter().map(|k| k.name).collect();
        assert!(names.len() >= 8, "ISSUE requires >= 8 kernels: {names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "kernel names must be unique");
        for name in &names {
            assert!(name.contains('/'), "kernel names are area/name: {name}");
        }
    }

    #[test]
    fn quick_run_produces_wellformed_report() {
        let cfg = MeasureConfig::quick();
        let results = run_kernels(&cfg, Some("accept/"));
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.measurement.median_ns > 0.0);
            assert!(r.evals_per_sec() > 0.0);
        }
        let json = render_report(&results, "deadbeef", &cfg);
        assert!(json.contains("\"schema\": \"annealbench-bench-v1\""));
        assert!(json.contains("accept/metropolis_decide"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn chain_kernels_report_real_eval_counts() {
        let chains: Vec<Kernel> = kernels()
            .into_iter()
            .filter(|k| k.name.starts_with("chain/"))
            .collect();
        assert_eq!(chains.len(), 3);
        for k in &chains {
            assert!(
                k.evals_per_iter >= CHAIN_EVALS as f64,
                "{}: chain must charge at least its budget ({})",
                k.name,
                k.evals_per_iter
            );
        }
    }

    #[test]
    fn adaptive_kernels_probe_and_run_controlled_chains() {
        let adaptive: Vec<Kernel> = kernels()
            .into_iter()
            .filter(|k| k.name.starts_with("adaptive/"))
            .collect();
        let names: Vec<&str> = adaptive.iter().map(|k| k.name).collect();
        assert_eq!(
            names,
            ["adaptive/probe_derive", "adaptive/fig1_controlled_gola"]
        );
        // The probe kernel is priced at exactly the evaluations the runner
        // charges against the budget per instance.
        assert_eq!(adaptive[0].evals_per_iter, DEFAULT_PROBE_SAMPLES as f64);
        // The controlled chain runs a real budget's worth of work.
        assert!(adaptive[1].evals_per_iter >= CHAIN_EVALS as f64);
    }

    #[test]
    fn replica_exchange_kernels_are_present_and_budget_exact() {
        let replex: Vec<Kernel> = kernels()
            .into_iter()
            .filter(|k| k.name.starts_with("replex/"))
            .collect();
        assert_eq!(replex.len(), 2);
        for k in &replex {
            // Replica exchange stops exactly at the budget (the swap phase
            // charges nothing), so the probe reports the budget itself.
            assert_eq!(
                k.evals_per_iter, CHAIN_EVALS as f64,
                "{}: tempering charges exactly its budget",
                k.name
            );
        }
    }
}
