#![doc = include_str!("../README.md")]

pub mod golden;
pub mod layers;
pub mod program;
pub mod report;
pub mod serve;
pub mod stats;
pub mod suite;

use report::{Outcome, Tracer};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["suite_gola", "suite_nola", "suite_process", "jobs_mixed"];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("evals_per_s", "evals/s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("reduction_sum", "cost"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload that does not
/// reach a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("linarr.gola_cycle_ns", "ns"),
    ("linarr.nola_cycle_ns", "ns"),
    ("tsp.cycle_ns", "ns"),
    ("partition.cycle_ns", "ns"),
    ("accept.decide_ns", "ns"),
    ("accept.acceptance_ratio", "ratio"),
    ("strategy.evals", "count"),
    ("strategy.fig1_ns_per_eval", "ns"),
    ("strategy.fig2_ns_per_eval", "ns"),
    ("strategy.chain_share", "ratio"),
    ("adaptive.probe_us", "us"),
    ("adaptive.probe_eval_share", "ratio"),
    ("adaptive.share", "ratio"),
    ("instances.build_ms", "ms"),
    ("instances.share", "ratio"),
    ("runner.cells", "count"),
    ("runner.cell_ms_p50", "ms"),
    ("runner.cell_ms_p90", "ms"),
    ("runner.failed_cells", "count"),
    ("scheduler.utilization", "ratio"),
    ("checkpoint.append_us", "us"),
    ("checkpoint.wal_bytes", "bytes"),
    ("checkpoint.share", "ratio"),
    ("supervisor.cell_overhead_ms_p50", "ms"),
    ("supervisor.cell_overhead_ms_p90", "ms"),
    ("supervisor.share", "ratio"),
    ("jobs.submit_us_p50", "us"),
    ("jobs.queue_wait_ms_p50", "ms"),
    ("jobs.execute_ms_p50", "ms"),
    ("jobs.execute_share", "ratio"),
    ("jobs.inproc_latency_ms_p50", "ms"),
    ("jobs.journal_bytes_per_job", "bytes"),
    ("ops.rtt_ms_p50", "ms"),
    ("ops.rtt_ms_p99", "ms"),
    ("ops.requests_per_job", "count"),
    ("ops.job_latency_ms_p99", "ms"),
    ("ops.share", "ratio"),
    ("setup.share", "ratio"),
    ("unattributed_share", "ratio"),
    ("trace_overhead_share", "ratio"),
    ("traced_wall_s", "s"),
];

/// The time-split terms of a traced run: with `unattributed_share` they
/// sum to 1 on every workload.
pub const SHARES: [&str; 8] = [
    "setup.share",
    "instances.share",
    "strategy.chain_share",
    "adaptive.share",
    "checkpoint.share",
    "supervisor.share",
    "ops.share",
    "unattributed_share",
];

/// Run options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed; the program sees only inputs derived from it.
    pub seed: u64,
    /// How long an end-to-end run measures.
    pub seconds: f64,
    /// Smoke sizes: suites at `--scale 1000`, 16 jobs, one invocation.
    pub smoke: bool,
    /// Rewrite the goldens from this run instead of checking them.
    pub bless: bool,
}

/// Runs `workload` end to end, or traced. Returns the outcome and, for a
/// traced run, its spans as Chrome Trace Event JSON.
pub fn run(workload: &str, opts: &Opts, trace: bool) -> Result<(Outcome, Option<String>), String> {
    let env = program::Env::prepare(workload)?;
    let mut tracer = Tracer::default();
    let mut out = match (workload, trace) {
        ("jobs_mixed", false) => serve::e2e(&env, opts),
        ("jobs_mixed", true) => serve::traced(&env, opts, &mut tracer),
        (name, trace) => {
            let suite = suite::SUITES
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| {
                    format!(
                        "unknown workload `{name}` (one of {})",
                        WORKLOADS.join(", ")
                    )
                })?;
            if trace {
                suite::traced(&env, suite, opts, &mut tracer)
            } else {
                suite::e2e(&env, suite, opts)
            }
        }
    };
    out.check(out.attempted > 0, "work attempted", || {
        "the run attempted nothing".into()
    });
    Ok((out, trace.then(|| tracer.chrome_json())))
}
