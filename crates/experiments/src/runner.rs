//! Shared machinery for the arrangement tables: an instance set with fixed
//! per-instance starting states, run under any method × strategy × budget.
//!
//! Every cell run is **fault isolated**: each instance executes under
//! [`std::panic::catch_unwind`], so a panicking method (a buggy g function, a
//! degenerate instance) is recorded as a failed cell in the
//! [`TelemetryLog`] — with its method, instance index and chain seed — while
//! the rest of the table completes. Without an enabled log the panic is
//! re-raised, preserving fail-fast behavior for ad-hoc runs.
//!
//! On top of the isolation, a [`CellPolicy`] adds the rest of the failure
//! path: **retry with backoff** (failed instances are re-run up to a
//! bounded number of attempts — deterministic seeding means a retried
//! instance that succeeds produces exactly the values of a clean run), a
//! **watchdog deadline** per instance (see [`anneal_core::watchdog`]) so a
//! runaway chain cannot hang its cell, and **resume replay** (a cell whose
//! clean record is in the log's `--resume` cache is replayed from the WAL
//! instead of re-run). Chaos testing hooks in through the log's
//! [`FaultPlan`](crate::faults::FaultPlan).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use anneal_core::schedule::adaptive::{self, AcceptanceController, AdaptiveMode};
use anneal_core::{
    derive_seed, estimate_delta_stats, metrics, watchdog, Annealer, Budget, ChainObserver,
    DeltaStats, GFunction, NoopObserver, Problem, RunResult, Strategy, TraceCollector,
    DEFAULT_EQUILIBRIUM,
};
use anneal_linarr::{goto_arrangement, ArrangedState, LinearArrangementProblem};
use rand::{rngs::StdRng, SeedableRng};

use crate::faults::InstanceFault;
use crate::roster::{MethodCtx, MethodSpec};
use crate::telemetry::{CellFailure, CellKey, CellRecord, TelemetryLog};
use crate::trace::CellTraceWriter;

/// Seed-stream salt separating start generation from chain randomness.
pub(crate) const RUN_SALT: u64 = 0x52554E;

/// Seed-stream salt for the adaptive-schedule probe, so probing an instance
/// never perturbs its chain RNG stream: with `--schedule` the chain still
/// consumes exactly the stream a grid-swept run would.
pub(crate) const PROBE_SALT: u64 = 0x50524F4245;

/// Probes `problem`'s delta statistics on the dedicated `probe_seed` RNG
/// stream, independent of the chain's. The result is a pure function of
/// the problem and the seed.
pub(crate) fn probe<P: Problem>(problem: &P, probe_seed: u64) -> DeltaStats {
    let _probe_span = metrics::span("probe");
    let mut probe_rng = StdRng::seed_from_u64(probe_seed);
    estimate_delta_stats(problem, adaptive::DEFAULT_PROBE_SAMPLES, &mut probe_rng)
}

/// Applies an adaptive-schedule override to one run: replaces `g`'s
/// grid-swept schedule with one of the same length derived from the
/// [`probe`]'s statistics that `stats` returns, and charges the probe
/// against an evaluation budget, whether or not `stats` ran it. Returns
/// the (possibly reduced) budget and the feedback controller to attach.
/// With `mode == None` this is a no-op and `stats` is not called.
///
/// Shared by the suite runner, which probes each instance once, and the
/// job server ([`crate::jobs`]), which probes each job instance, so both
/// derive schedules — and charge probe costs — identically for the same
/// seed.
pub(crate) fn adapt_schedule_for(
    mode: Option<AdaptiveMode>,
    stats: impl FnOnce() -> DeltaStats,
    g: &mut GFunction,
    budget: Budget,
) -> (Budget, Option<AcceptanceController>) {
    let Some(mode) = mode else {
        return (budget, None);
    };
    let stats = stats();
    let derived = adaptive::derive(
        &stats,
        mode,
        g.schedule().len(),
        adaptive::DEFAULT_PROBE_SAMPLES,
    );
    *g = g.clone().with_schedule(derived.schedule);
    // Floor of one evaluation: a budget smaller than the probe still runs
    // a (vanishingly short) chain instead of panicking.
    let budget = Budget::evaluations(budget.evals().saturating_sub(derived.probe_evals).max(1));
    (budget, derived.controller)
}

/// Bounded retry for failed cells: up to `attempts` runs per instance, with
/// exponential backoff between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum run attempts per instance (≥ 1; 1 = no retries).
    pub attempts: u32,
    /// Backoff before attempt `k+1`, doubled each retry (capped at 2⁸×).
    pub backoff: Duration,
}

impl RetryPolicy {
    /// No retries: one attempt, fail-fast into the record.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            backoff: Duration::ZERO,
        }
    }

    /// Up to `attempts` attempts with `backoff` base delay (clamped to at
    /// least one attempt).
    pub fn new(attempts: u32, backoff: Duration) -> Self {
        RetryPolicy {
            attempts: attempts.max(1),
            backoff,
        }
    }

    /// The backoff before retry number `retry` (1-based), doubling each
    /// time. Shared with the [`supervisor`](crate::supervisor), whose
    /// process respawns back off on exactly the same curve.
    pub(crate) fn delay_before(&self, retry: u32) -> Duration {
        self.backoff * 2u32.pow(retry.saturating_sub(1).min(8))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// How one table cell is executed: parallelism, retries, and the
/// per-instance watchdog deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellPolicy {
    /// OS threads the instances fan out over (≥ 1; totals are identical
    /// for any thread count).
    pub threads: usize,
    /// Bounded retry for failed instances.
    pub retry: RetryPolicy,
    /// Per-instance wall-clock deadline; an instance that exceeds it is
    /// recorded as a failure (see [`anneal_core::watchdog`]).
    pub watchdog: Option<Duration>,
}

impl CellPolicy {
    /// Sequential, no retries, no watchdog — the historical behavior.
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// `threads`-way fan-out, no retries, no watchdog.
    pub fn with_threads(threads: usize) -> Self {
        CellPolicy {
            threads,
            retry: RetryPolicy::none(),
            watchdog: None,
        }
    }
}

impl Default for CellPolicy {
    fn default() -> Self {
        Self::sequential()
    }
}

/// What one instance run produced: its result and wall time, or the
/// message of a caught panic (or watchdog timeout).
struct InstanceOutcome {
    index: usize,
    seed: u64,
    outcome: Result<(RunResult<ArrangedState>, Duration), String>,
}

/// The message a caught panic carried, for failure records.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// An instance set with one fixed starting state per instance, so every
/// method sees identical starts ("Each g class used the same initial
/// arrangement", §4.2.1).
#[derive(Debug)]
pub struct ArrangementSet {
    problems: Vec<LinearArrangementProblem>,
    starts: Vec<ArrangedState>,
    seed: u64,
    /// Each instance's adaptive-schedule [`probe`], run by the first cell
    /// that needs it and reused by every later one.
    probes: Vec<OnceLock<DeltaStats>>,
    /// Equilibrium counter limit `n` for both strategies.
    pub equilibrium: u64,
    /// Rung-count override for [`Strategy::ReplicaExchange`]: rebuild each
    /// method's temperature ladder to this many geometric rungs
    /// (Kirkpatrick ratio from the method's top temperature) before
    /// tempering. `None` keeps the method's own ladder.
    pub replicas: Option<usize>,
    /// Adaptive-schedule override (`--schedule`): before each instance runs,
    /// replace the method's grid-swept schedule with one of the same length
    /// derived from the instance's delta statistics (see
    /// [`adaptive::derive`]). Each instance is probed once per set, yet
    /// every run is charged the probe's evaluations against its budget, so
    /// adaptive cells stay equal-cost with grid-swept cells *including*
    /// tuning. `None` keeps the method's tuned schedule.
    pub schedule: Option<AdaptiveMode>,
}

impl ArrangementSet {
    /// Fixed random starting arrangements, derived from `seed` (Table 4.1,
    /// 4.2(b), 4.2(c) protocol).
    pub fn with_random_starts(problems: Vec<LinearArrangementProblem>, seed: u64) -> Self {
        let starts = problems
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, i as u64));
                p.random_state(&mut rng)
            })
            .collect();
        Self::with_starts(problems, starts, seed)
    }

    /// Goto arrangements as starting states (Table 4.2(a)/(d) protocol).
    pub fn with_goto_starts(problems: Vec<LinearArrangementProblem>, seed: u64) -> Self {
        let starts = problems
            .iter()
            .map(|p| p.state_from(goto_arrangement(p.netlist())))
            .collect();
        Self::with_starts(problems, starts, seed)
    }

    fn with_starts(
        problems: Vec<LinearArrangementProblem>,
        starts: Vec<ArrangedState>,
        seed: u64,
    ) -> Self {
        ArrangementSet {
            probes: problems.iter().map(|_| OnceLock::new()).collect(),
            problems,
            starts,
            seed,
            equilibrium: DEFAULT_EQUILIBRIUM,
            replicas: None,
            schedule: None,
        }
    }

    /// The instances.
    pub fn problems(&self) -> &[LinearArrangementProblem] {
        &self.problems
    }

    /// The per-instance starting states.
    pub fn starts(&self) -> &[ArrangedState] {
        &self.starts
    }

    /// Sum of starting densities (the paper reports 2594 for its GOLA set
    /// and 4254 for its NOLA set).
    pub fn start_density_sum(&self) -> f64 {
        self.starts.iter().map(|s| s.density() as f64).sum()
    }

    /// Total reduction the Goto construction achieves relative to this set's
    /// starting states (the "Goto" row of Tables 4.1 and 4.2(c)).
    pub fn goto_reduction(&self) -> f64 {
        self.problems
            .iter()
            .zip(&self.starts)
            .map(|(p, start)| {
                let goto = p.state_from(goto_arrangement(p.netlist()));
                start.density() as f64 - goto.density() as f64
            })
            .sum()
    }

    /// Runs `spec` on every instance under `strategy` with per-instance
    /// `budget`, returning the total cost reduction over the set — the cell
    /// value in the paper's tables.
    ///
    /// # Panics
    ///
    /// Re-raises any instance panic (use [`run_cell`](Self::run_cell) with an
    /// enabled [`TelemetryLog`] for fault-isolated runs).
    pub fn run_method(&self, spec: &MethodSpec, strategy: Strategy, budget: Budget) -> f64 {
        self.run_cell(
            CellKey::new("adhoc", spec.name(), budget.to_string()),
            spec,
            strategy,
            budget,
            &CellPolicy::sequential(),
            &TelemetryLog::disabled(),
        )
    }

    /// Runs one table cell — `spec` × `strategy` × `budget` over the whole
    /// set — under `policy`, with per-instance fault isolation, recording a
    /// [`CellRecord`] into `log`, and returns the total reduction over
    /// instances that completed.
    ///
    /// Instances are fanned out over `policy.threads` OS threads
    /// (1 = sequential); per-instance results are summed in index order, so
    /// totals are bitwise identical regardless of thread count. Failed
    /// instances are re-run up to `policy.retry.attempts` times (same
    /// derived seed, so a successful retry is indistinguishable from a
    /// clean first run), and `policy.watchdog` bounds each instance's
    /// wall-clock time.
    ///
    /// If the cell's clean record is in `log`'s `--resume` cache (same
    /// strategy, budget and base seed), it is **replayed**: re-recorded
    /// into `log` and its reduction returned without running anything.
    ///
    /// # Panics
    ///
    /// Panics if `policy.threads == 0`. When `log` is disabled an instance
    /// panic is re-raised (fail-fast); when it is enabled the panic is
    /// recorded as a [`CellFailure`] and the remaining instances still run.
    pub fn run_cell(
        &self,
        key: CellKey,
        spec: &MethodSpec,
        strategy: Strategy,
        budget: Budget,
        policy: &CellPolicy,
        log: &TelemetryLog,
    ) -> f64 {
        assert!(policy.threads > 0, "need at least one thread");
        // A draining parent stops starting cells: the skipped cells are
        // simply absent from the WAL and re-run on `--resume`.
        if crate::supervisor::signals::draining() {
            return 0.0;
        }
        let strategy_name = format!("{strategy:?}");
        if let Some(cached) = log.replay(&key, &strategy_name, &budget.to_string(), self.seed) {
            metrics::global().counter("runner.cells_replayed").inc();
            let total = cached.reduction;
            log.record_replayed(cached);
            return total;
        }
        // Under `--isolation process` the cell runs in the supervisor's
        // worker process (see `tables::TableCache`); the supervisor
        // records the outcome (or the process failure) into `log` exactly
        // as the code below would.
        if let Some(sup) = log.supervisor() {
            return sup.run_cell(
                &key,
                &strategy_name,
                budget,
                policy,
                self.problems.len(),
                log,
            );
        }
        metrics::global().counter("runner.cells").inc();
        // Phase timing for the ops plane: one histogram record when the
        // guard drops at the end of the cell. Never inside chain loops.
        let _cell_span = metrics::span("cell");

        // Replayed cells leave no trace file: nothing ran. A sink that
        // cannot open the cell's file degrades to an untraced cell rather
        // than failing the run.
        let tracer = log.trace_sink().and_then(|sink| {
            sink.cell_writer(&key, &strategy_name, &budget.to_string(), self.seed)
                .map_err(|e| {
                    metrics::global().counter("trace.open_errors").inc();
                    eprintln!("trace: {e}");
                })
                .ok()
        });

        let n = self.problems.len();
        let mut outcomes: Vec<Option<InstanceOutcome>> = (0..n).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..n).collect();
        let mut attempts = 0u32;
        while !pending.is_empty() && attempts < policy.retry.attempts {
            if attempts > 0 {
                let backoff = policy.retry.delay_before(attempts);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            if attempts > 0 {
                metrics::global().counter("runner.retries").inc();
            }
            for outcome in self.run_instances(
                &pending,
                spec,
                strategy,
                budget,
                policy,
                attempts,
                &key,
                log,
                tracer.as_ref(),
            ) {
                let slot = outcome.index;
                outcomes[slot] = Some(outcome);
            }
            attempts += 1;
            pending = outcomes
                .iter()
                .filter_map(|o| match o {
                    Some(o) if o.outcome.is_err() => Some(o.index),
                    _ => None,
                })
                .collect();
        }

        let mut record = CellRecord::empty(key, strategy_name, budget, self.seed);
        record.instances = n;
        record.attempts = attempts.max(1);
        // Absorbed in instance order, so the cell total (`record.reduction`)
        // is bitwise identical for any thread count.
        for o in outcomes
            .iter()
            .map(|o| o.as_ref().expect("every instance ran"))
        {
            match &o.outcome {
                Ok((result, wall)) => record.absorb(o.index, o.seed, result, *wall),
                Err(message) => record.failures.push(CellFailure {
                    instance: o.index,
                    seed: o.seed,
                    message: message.clone(),
                }),
            }
        }

        if !log.is_enabled() {
            if let Some(f) = record.failures.first() {
                panic!(
                    "instance {} (seed {}) of cell {} panicked: {}",
                    f.instance, f.seed, record.key, f.message
                );
            }
        }
        let total = record.reduction;
        log.record(record);
        total
    }

    /// Runs the instances in `indices` (one attempt each) over
    /// `policy.threads` workers, returning their outcomes in `indices`
    /// order.
    #[allow(clippy::too_many_arguments)]
    fn run_instances(
        &self,
        indices: &[usize],
        spec: &MethodSpec,
        strategy: Strategy,
        budget: Budget,
        policy: &CellPolicy,
        attempt: u32,
        key: &CellKey,
        log: &TelemetryLog,
        tracer: Option<&CellTraceWriter>,
    ) -> Vec<InstanceOutcome> {
        let n = indices.len();
        let run_one = |idx: usize| {
            let fault = log
                .faults()
                .map(|plan| plan.instance_fault(key, idx, attempt))
                .unwrap_or_default();
            self.run_instance_caught(
                idx,
                spec,
                strategy,
                budget,
                fault,
                policy.watchdog,
                tracer,
                attempt,
            )
        };
        // Per-instance results come back in slot (index) order, so the
        // floating-point total is identical to the sequential version
        // regardless of thread interleaving — see [`scheduler::run_indexed`].
        crate::scheduler::run_indexed(n, policy.threads, |slot| run_one(indices[slot]))
    }

    #[allow(clippy::too_many_arguments)]
    fn run_instance_caught(
        &self,
        idx: usize,
        spec: &MethodSpec,
        strategy: Strategy,
        budget: Budget,
        fault: InstanceFault,
        watchdog_timeout: Option<Duration>,
        tracer: Option<&CellTraceWriter>,
        attempt: u32,
    ) -> InstanceOutcome {
        let seed = derive_seed(self.seed ^ RUN_SALT, idx as u64);
        let started = Instant::now();
        // Arm the watchdog on this worker thread: every Meter the strategy
        // creates inside the closure captures the deadline, so a runaway
        // chain winds down as soon as it polls its budget.
        let guard = watchdog_timeout.map(watchdog::arm);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(delay) = fault.delay {
                std::thread::sleep(delay);
            }
            if let Some(hang) = fault.hang {
                // A wedge the in-process watchdog cannot catch: the
                // deadline is only observed when the chain polls its
                // budget, and a sleeping thread never does. Only the
                // supervisor's wall-clock SIGKILL bounds this (the sleep
                // itself is capped so un-supervised chaos runs still end).
                std::thread::sleep(hang);
            }
            if fault.abort {
                eprintln!("fault injection: forced abort (instance {idx})");
                std::process::abort();
            }
            if fault.panic {
                panic!("fault injection: forced panic (instance {idx})");
            }
            // The traced and untraced paths are separate monomorphizations;
            // with no tracer the chain runs the exact PR 2 hot path.
            match tracer {
                Some(_) => {
                    let mut collector = TraceCollector::new();
                    let result = self.run_instance(idx, spec, strategy, budget, &mut collector);
                    (result, Some(collector.into_trace()))
                }
                None => (
                    self.run_instance(idx, spec, strategy, budget, &mut NoopObserver),
                    None,
                ),
            }
        }));
        let elapsed = started.elapsed();
        let timed_out = guard.is_some() && watchdog::expired();
        drop(guard);
        let reg = metrics::global();
        reg.counter("runner.instances").inc();
        reg.histogram("runner.instance_wall_ms")
            .record(elapsed.as_millis() as u64);
        InstanceOutcome {
            index: idx,
            seed,
            outcome: match outcome {
                Ok(_) if timed_out => Err(format!(
                    "watchdog: instance exceeded its {:.0} ms deadline (ran {:.0} ms)",
                    watchdog_timeout
                        .expect("timed out implies armed")
                        .as_secs_f64()
                        * 1e3,
                    elapsed.as_secs_f64() * 1e3
                )),
                Ok((result, trace)) => {
                    // Only clean runs leave trace events; tracing errors are
                    // counted, never fatal.
                    if let (Some(w), Some(trace)) = (tracer, trace) {
                        if let Err(e) = w.write_instance(idx, seed, attempt + 1, &trace) {
                            reg.counter("trace.write_errors").inc();
                            eprintln!("trace: {e}");
                        }
                        // Stage span timings from the walls the collector
                        // already measured: recorded here at the instance
                        // boundary, so the chain loop itself is untouched
                        // (and untraced runs skip even this).
                        let stages =
                            reg.histogram_with(metrics::SPAN_METRIC, &[("phase", "stage")]);
                        for stage in &trace.stages {
                            stages.record(stage.wall.as_micros() as u64);
                        }
                    }
                    Ok((result, elapsed))
                }
                Err(payload) => Err(panic_message(payload)),
            },
        }
    }

    fn run_instance<O: ChainObserver>(
        &self,
        idx: usize,
        spec: &MethodSpec,
        strategy: Strategy,
        budget: Budget,
        obs: &mut O,
    ) -> RunResult<ArrangedState> {
        let problem = &self.problems[idx];
        let ctx = MethodCtx {
            n_nets: problem.netlist().n_nets(),
        };
        let mut g = spec.g(&ctx);
        // The `--schedule` probe draws from its own salted stream, so the
        // chain's RNG stream is untouched.
        let probe_seed = derive_seed(self.seed ^ PROBE_SALT, idx as u64);
        let stats = || *self.probes[idx].get_or_init(|| probe(problem, probe_seed));
        let (budget, controller) = adapt_schedule_for(self.schedule, stats, &mut g, budget);
        Annealer::new(problem)
            .strategy(strategy)
            .equilibrium(self.equilibrium)
            .budget(budget)
            .seed(derive_seed(self.seed ^ RUN_SALT, idx as u64))
            .start_from(self.starts[idx].clone())
            .replicas(self.replicas)
            .controller(controller)
            .run(&mut g, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::gola_paper_set;
    use crate::roster::{full_roster, TunedY};

    fn tiny_set() -> ArrangementSet {
        let problems = gola_paper_set(3).into_iter().take(4).collect();
        ArrangementSet::with_random_starts(problems, 3)
    }

    /// A fail-fast cell over `threads` OS threads.
    fn run_threaded(
        set: &ArrangementSet,
        spec: &MethodSpec,
        strategy: Strategy,
        budget: Budget,
        threads: usize,
    ) -> f64 {
        let (key, log) = (CellKey::new("adhoc", "", ""), TelemetryLog::disabled());
        set.run_cell(
            key,
            spec,
            strategy,
            budget,
            &CellPolicy::with_threads(threads),
            &log,
        )
    }

    #[test]
    fn starts_are_stable_across_constructions() {
        let a = tiny_set();
        let b = tiny_set();
        assert_eq!(a.starts()[0], b.starts()[0]);
        assert_eq!(a.start_density_sum(), b.start_density_sum());
    }

    #[test]
    fn goto_reduction_is_positive_on_random_starts() {
        let set = tiny_set();
        assert!(set.goto_reduction() > 0.0);
    }

    #[test]
    fn goto_starts_have_lower_density() {
        let problems = gola_paper_set(3).into_iter().take(4).collect();
        let random = tiny_set();
        let goto = ArrangementSet::with_goto_starts(problems, 3);
        assert!(goto.start_density_sum() < random.start_density_sum());
    }

    #[test]
    fn run_method_is_deterministic_and_nonnegative() {
        let set = tiny_set();
        let roster = full_roster(TunedY::default());
        let spec = &roster[3]; // g = 1
        let budget = Budget::evaluations(2_000);
        let a = set.run_method(spec, Strategy::Figure1, budget);
        let b = set.run_method(spec, Strategy::Figure1, budget);
        assert_eq!(a, b);
        assert!(a >= 0.0, "best never exceeds initial");
    }

    #[test]
    fn parallel_run_matches_sequential_exactly() {
        let set = tiny_set();
        let roster = full_roster(TunedY::default());
        let budget = Budget::evaluations(1_000);
        for spec in roster.iter().take(4) {
            let seq = set.run_method(spec, Strategy::Figure1, budget);
            for threads in [1, 2, 3, 8] {
                let par = run_threaded(&set, spec, Strategy::Figure1, budget, threads);
                assert_eq!(seq, par, "{} with {threads} threads", spec.name());
            }
        }
    }

    #[test]
    fn replica_exchange_parallel_matches_sequential_bitwise() {
        let set = tiny_set();
        let roster = full_roster(TunedY::default());
        let spec = &roster[2]; // Six Temperature Annealing: a ladder to temper over
        let budget = Budget::evaluations(1_500);
        let strategy = Strategy::ReplicaExchange {
            exchange_interval: 32,
        };
        let seq = set.run_method(spec, strategy, budget);
        assert!(seq >= 0.0);
        for threads in [1, 2, 8] {
            let par = run_threaded(&set, spec, strategy, budget, threads);
            assert_eq!(seq.to_bits(), par.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn replica_exchange_cell_records_swap_counters() {
        let set = tiny_set();
        let roster = full_roster(TunedY::default());
        let spec = &roster[2]; // Six Temperature Annealing
        let log = TelemetryLog::in_memory();
        let _ = set.run_cell(
            CellKey::new("test", spec.name(), "2000 evals"),
            spec,
            Strategy::ReplicaExchange {
                exchange_interval: 16,
            },
            Budget::evaluations(2_000),
            &CellPolicy::sequential(),
            &log,
        );
        let record = log.records().remove(0);
        assert!(record.ok());
        let attempts: u64 = record.per_temp.iter().map(|t| t.swap_attempts).sum();
        let accepts: u64 = record.per_temp.iter().map(|t| t.swap_accepts).sum();
        assert!(attempts > 0, "swaps were attempted");
        assert!(accepts <= attempts);
        assert!(record.per_temp.iter().any(|t| t.ended_exchange > 0));
    }

    #[test]
    fn adaptive_schedule_is_deterministic_and_parallel_safe() {
        let mut set = tiny_set();
        set.schedule = Some(AdaptiveMode::Acceptance);
        let roster = full_roster(TunedY::default());
        let spec = &roster[2]; // Six Temperature Annealing
        let budget = Budget::evaluations(2_000);
        let a = set.run_method(spec, Strategy::Figure1, budget);
        let b = set.run_method(spec, Strategy::Figure1, budget);
        assert_eq!(a.to_bits(), b.to_bits(), "probe + controller are pure");
        for threads in [2, 8] {
            let par = run_threaded(&set, spec, Strategy::Figure1, budget, threads);
            assert_eq!(a.to_bits(), par.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn adaptive_cells_record_controller_telemetry_and_charge_the_probe() {
        let roster = full_roster(TunedY::default());
        let spec = &roster[2]; // Six Temperature Annealing
        let budget = Budget::evaluations(2_000);
        let run = |mode| {
            let mut set = tiny_set();
            set.schedule = mode;
            let log = TelemetryLog::in_memory();
            let _ = set.run_cell(
                CellKey::new("test", spec.name(), "2000 evals"),
                spec,
                Strategy::Figure1,
                budget,
                &CellPolicy::sequential(),
                &log,
            );
            log.records().remove(0)
        };
        let tuned = run(None);
        let acc = run(Some(AdaptiveMode::Acceptance));
        let asa = run(Some(AdaptiveMode::Asa));
        for r in [&tuned, &acc, &asa] {
            assert!(r.ok());
            assert!(r.per_temp.iter().all(|t| t.temperature.is_finite()));
        }
        // Only the acceptance controller publishes a target trajectory.
        assert!(acc.per_temp.iter().all(|t| t.target_acceptance.is_finite()));
        assert!(asa.per_temp.iter().all(|t| t.target_acceptance.is_nan()));
        assert!(tuned.per_temp.iter().all(|t| t.target_acceptance.is_nan()));
        // The probe is charged: no adaptive instance may spend more chain
        // evaluations than the reduced budget allows.
        let cap = 2_000 - adaptive::DEFAULT_PROBE_SAMPLES;
        for r in [&acc, &asa] {
            for i in &r.per_instance {
                assert!(i.evals <= cap, "instance {} spent {}", i.index, i.evals);
            }
        }
        // A derived schedule actually ran: the cell value moved off the
        // grid-swept one.
        assert_ne!(acc.reduction.to_bits(), tuned.reduction.to_bits());
    }

    #[test]
    fn each_instance_is_probed_once_per_set_and_cells_do_not_notice() {
        let roster = full_roster(TunedY::default());
        let spec = &roster[2]; // Six Temperature Annealing
        let budget = Budget::evaluations(2_000);
        let cell = |set: &ArrangementSet| {
            let log = TelemetryLog::in_memory();
            let key = CellKey::new("test", spec.name(), "2000 evals");
            let policy = CellPolicy::with_threads(2);
            set.run_cell(key, spec, Strategy::Figure1, budget, &policy, &log);
            let mut record = log.records().remove(0);
            record.wall_ms = 0.0;
            for row in &mut record.per_instance {
                row.wall_ms = 0.0;
            }
            record
        };
        let mut set = tiny_set();
        set.schedule = Some(AdaptiveMode::Acceptance);
        assert!(set.probes.iter().all(|p| p.get().is_none()));
        let first = cell(&set);
        assert!(first.ok());
        assert!(set.probes.iter().all(|p| p.get().is_some()));
        let second = cell(&set);

        let mut fresh = tiny_set();
        fresh.schedule = Some(AdaptiveMode::Acceptance);
        assert_eq!(first, cell(&fresh));
        assert_eq!(second, first, "the memo changed the second cell");
        for (i, memo) in set.probes.iter().enumerate() {
            let probe_seed = derive_seed(set.seed ^ PROBE_SALT, i as u64);
            assert_eq!(memo.get(), Some(&probe(&set.problems[i], probe_seed)));
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let set = tiny_set();
        let roster = full_roster(TunedY::default());
        let budget = Budget::evaluations(10);
        let _ = run_threaded(&set, &roster[0], Strategy::Figure1, budget, 0);
    }

    /// Instances with distinct net counts, so a method spec can single one
    /// out (net counts 60..=63, instance index = n_nets - 60).
    fn mixed_set() -> ArrangementSet {
        use anneal_netlist::generator::random_two_pin;
        let problems = (0..4u64)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(100 + i);
                LinearArrangementProblem::new(random_two_pin(10, 60 + i as usize, &mut rng))
            })
            .collect();
        ArrangementSet::with_random_starts(problems, 7)
    }

    /// Panics while instantiating g for the instance with 62 nets (index 2).
    fn poisoned_spec() -> MethodSpec {
        use anneal_core::GFunction;
        MethodSpec::with_ctx("poisoned", |ctx| {
            assert_ne!(ctx.n_nets, 62, "injected failure");
            GFunction::unit()
        })
    }

    #[test]
    fn injected_panic_becomes_failed_cell_and_rest_completes() {
        let set = mixed_set();
        let log = TelemetryLog::in_memory();
        let key = CellKey::new("test", "poisoned", "500 evals");
        let total = set.run_cell(
            key,
            &poisoned_spec(),
            Strategy::Figure1,
            Budget::evaluations(500),
            &CellPolicy::sequential(),
            &log,
        );

        let records = log.records();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert!(!r.ok());
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].instance, 2);
        assert!(r.failures[0].message.contains("injected failure"));
        // The other three instances completed and were recorded.
        assert_eq!(r.instances, 4);
        let done: Vec<usize> = r.per_instance.iter().map(|i| i.index).collect();
        assert_eq!(done, vec![0, 1, 3]);
        assert_eq!(total, r.reduction);
        assert!(total > 0.0, "surviving instances still did useful work");
        // The summary surfaces the failure for triage.
        let summary = log.summary();
        assert_eq!(summary.failed.len(), 1);
        assert_eq!(summary.failed[0].failures[0].instance, 2);
        assert_eq!(summary.failed[0].attempts, 1);
    }

    #[test]
    fn parallel_cell_with_panic_matches_sequential() {
        let set = mixed_set();
        let budget = Budget::evaluations(500);
        let run = |threads| {
            let log = TelemetryLog::in_memory();
            let key = CellKey::new("test", "poisoned", "500 evals");
            let total = set.run_cell(
                key,
                &poisoned_spec(),
                Strategy::Figure1,
                budget,
                &CellPolicy::with_threads(threads),
                &log,
            );
            (total, log.records().remove(0))
        };
        // Wall times differ run to run; compare the deterministic fields.
        let fingerprint = |rec: &crate::telemetry::CellRecord| {
            (
                rec.failures.clone(),
                rec.evals,
                rec.per_temp.clone(),
                rec.per_instance
                    .iter()
                    .map(|i| (i.index, i.seed, i.reduction.to_bits(), i.evals, i.stop))
                    .collect::<Vec<_>>(),
            )
        };
        let (seq_total, seq_rec) = run(1);
        for threads in [2, 3, 8] {
            let (par_total, par_rec) = run(threads);
            assert_eq!(seq_total, par_total, "{threads} threads");
            assert_eq!(fingerprint(&seq_rec), fingerprint(&par_rec));
        }
    }

    #[test]
    #[should_panic(expected = "injected failure")]
    fn disabled_log_fails_fast_on_instance_panic() {
        let set = mixed_set();
        let _ = set.run_method(
            &poisoned_spec(),
            Strategy::Figure1,
            Budget::evaluations(500),
        );
    }

    #[test]
    fn clean_cell_record_is_consistent() {
        let set = tiny_set();
        let roster = full_roster(TunedY::default());
        let spec = &roster[3]; // g = 1
        let log = TelemetryLog::in_memory();
        let key = CellKey::new("test", spec.name(), "2000 evals");
        let total = set.run_cell(
            key,
            spec,
            Strategy::Figure1,
            Budget::evaluations(2_000),
            &CellPolicy::sequential(),
            &log,
        );
        let r = log.records().remove(0);
        assert!(r.ok());
        assert_eq!(r.instances, 4);
        assert_eq!(r.per_instance.len(), 4);
        assert_eq!(r.stops_budget + r.stops_equilibrium, 4);
        assert_eq!(r.reduction, total);
        assert!(r.evals > 0);
        assert!(r.wall_ms > 0.0);
        assert!(!r.per_temp.is_empty());
        // Per-temperature evals add up to the cell total.
        let per_temp_evals: u64 = r.per_temp.iter().map(|t| t.evals).sum();
        assert_eq!(per_temp_evals, r.evals);
        assert_eq!(r.strategy, "Figure1");
        assert_eq!(r.budget, "2000 evals");
        // Matches the plain (un-logged) runner exactly.
        assert_eq!(
            total,
            set.run_method(spec, Strategy::Figure1, Budget::evaluations(2_000))
        );
    }

    #[test]
    fn panic_message_handles_all_payload_kinds() {
        let capture = |f: Box<dyn Fn() + Send>| -> String {
            panic_message(catch_unwind(AssertUnwindSafe(f)).unwrap_err())
        };
        assert_eq!(capture(Box::new(|| panic!("plain str"))), "plain str");
        assert_eq!(
            capture(Box::new(|| panic!("formatted {}", 42))),
            "formatted 42"
        );
        assert_eq!(
            capture(Box::new(|| std::panic::panic_any(String::from("owned")))),
            "owned"
        );
        // Non-string payloads (integers, structs) must not be lost or crash
        // the fault isolation.
        assert_eq!(
            capture(Box::new(|| std::panic::panic_any(7u32))),
            "non-string panic payload"
        );
        assert_eq!(
            capture(Box::new(|| std::panic::panic_any(vec![1, 2, 3]))),
            "non-string panic payload"
        );
    }

    /// Panics on the first `fail_first` g-instantiations, then works — a
    /// flaky method that a retry can recover.
    fn flaky_spec(fail_first: u32) -> MethodSpec {
        use anneal_core::GFunction;
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = AtomicU32::new(0);
        MethodSpec::with_ctx("flaky", move |_| {
            if calls.fetch_add(1, Ordering::SeqCst) < fail_first {
                panic!("transient failure");
            }
            GFunction::unit()
        })
    }

    #[test]
    fn retry_recovers_a_transient_failure_exactly() {
        let set = tiny_set();
        let budget = Budget::evaluations(500);
        let clean = {
            let log = TelemetryLog::in_memory();
            set.run_cell(
                CellKey::new("test", "flaky", "500 evals"),
                &flaky_spec(0),
                Strategy::Figure1,
                budget,
                &CellPolicy::sequential(),
                &log,
            )
        };

        let log = TelemetryLog::in_memory();
        let policy = CellPolicy {
            retry: RetryPolicy::new(3, Duration::ZERO),
            ..CellPolicy::sequential()
        };
        let total = set.run_cell(
            CellKey::new("test", "flaky", "500 evals"),
            &flaky_spec(1),
            Strategy::Figure1,
            budget,
            &policy,
            &log,
        );
        let record = log.records().remove(0);
        assert!(record.ok(), "the retry recovered: {:?}", record.failures);
        assert_eq!(record.attempts, 2);
        assert_eq!(record.per_instance.len(), 4);
        // Deterministic per-instance seeding: the retried instance produced
        // exactly what a clean run would have.
        assert_eq!(total, clean);
    }

    #[test]
    fn retry_attempts_are_bounded_and_recorded() {
        let set = mixed_set();
        let log = TelemetryLog::in_memory();
        let policy = CellPolicy {
            retry: RetryPolicy::new(3, Duration::ZERO),
            ..CellPolicy::sequential()
        };
        let _ = set.run_cell(
            CellKey::new("test", "poisoned", "500 evals"),
            &poisoned_spec(),
            Strategy::Figure1,
            Budget::evaluations(500),
            &policy,
            &log,
        );
        let record = log.records().remove(0);
        assert!(!record.ok(), "a deterministic panic survives every retry");
        assert_eq!(record.attempts, 3);
        assert_eq!(record.failures.len(), 1);
        // The healthy instances ran once and were not re-run.
        assert_eq!(record.per_instance.len(), 3);
    }

    #[test]
    fn injected_panic_fault_is_contained() {
        use crate::faults::FaultPlan;
        let set = tiny_set();
        let log = TelemetryLog::in_memory()
            .with_faults(Some(FaultPlan::parse("seed=1,panic=1").unwrap()));
        let total = set.run_cell(
            CellKey::new("test", "g = 1", "500 evals"),
            &full_roster(TunedY::default())[3],
            Strategy::Figure1,
            Budget::evaluations(500),
            &CellPolicy::sequential(),
            &log,
        );
        let record = log.records().remove(0);
        assert_eq!(total, 0.0, "every instance was killed");
        assert_eq!(record.failures.len(), 4);
        assert!(record.failures[0].message.contains("fault injection"));
    }

    #[test]
    fn watchdog_contains_an_injected_slowdown() {
        use crate::faults::FaultPlan;
        let set = tiny_set();
        // Every instance sleeps 80 ms against a 20 ms deadline.
        let log = TelemetryLog::in_memory()
            .with_faults(Some(FaultPlan::parse("delay=1,delay_ms=80").unwrap()));
        let policy = CellPolicy {
            watchdog: Some(Duration::from_millis(20)),
            ..CellPolicy::sequential()
        };
        let started = Instant::now();
        let _ = set.run_cell(
            CellKey::new("test", "g = 1", "500 evals"),
            &full_roster(TunedY::default())[3],
            Strategy::Figure1,
            Budget::evaluations(500),
            &policy,
            &log,
        );
        let record = log.records().remove(0);
        assert!(!record.ok());
        assert_eq!(record.failures.len(), 4);
        for f in &record.failures {
            assert!(f.message.contains("watchdog"), "{}", f.message);
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the cell did not hang"
        );
    }

    #[test]
    fn watchdog_leaves_fast_cells_alone() {
        let set = tiny_set();
        let log = TelemetryLog::in_memory();
        let policy = CellPolicy {
            watchdog: Some(Duration::from_secs(600)),
            ..CellPolicy::sequential()
        };
        let spec = &full_roster(TunedY::default())[3];
        let budget = Budget::evaluations(500);
        let total = set.run_cell(
            CellKey::new("test", "g = 1", "500 evals"),
            spec,
            Strategy::Figure1,
            budget,
            &policy,
            &log,
        );
        assert!(log.records().remove(0).ok());
        assert_eq!(total, set.run_method(spec, Strategy::Figure1, budget));
    }

    #[test]
    fn traced_cell_matches_untraced_and_leaves_a_parseable_trace() {
        use crate::trace::{self, TraceSink};
        let set = tiny_set();
        let roster = full_roster(TunedY::default());
        let spec = &roster[3]; // g = 1
        let budget = Budget::evaluations(1_000);
        let plain = set.run_method(spec, Strategy::Figure1, budget);

        let dir = std::env::temp_dir().join(format!(
            "anneal-runner-trace-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let sink = TraceSink::new(&dir, None).unwrap();
        let key = CellKey::new("test", "g = 1", "1000 evals");
        let path = sink.cell_path(&key);
        let log = TelemetryLog::in_memory().with_trace(Some(sink));
        let traced = set.run_cell(
            key,
            spec,
            Strategy::Figure1,
            budget,
            &CellPolicy::sequential(),
            &log,
        );
        // Tracing never touches the RNG: the cell value is bitwise identical.
        assert_eq!(plain.to_bits(), traced.to_bits());

        let loaded = trace::load(&path).unwrap();
        assert_eq!(loaded.meta.strategy, "Figure1");
        assert_eq!(loaded.meta.base_seed, 3);
        let (run_starts, temps, samples, _bests, stops) = loaded.counts();
        assert_eq!(run_starts, 4, "one run_start per instance");
        assert_eq!(stops, 4, "one stop per instance");
        assert!(temps > 0 && samples > 0);
        // The traced temp events aggregate to the WAL record's per_temp.
        let record = log.records().remove(0);
        let agg_stages: u64 = record
            .per_temp
            .iter()
            .map(|t| t.ended_budget + t.ended_equilibrium + t.ended_exchange)
            .sum();
        assert_eq!(temps as u64, agg_stages);
        assert!(record.per_temp.iter().all(|t| t.proposals > 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replayed_cell_is_not_re_run() {
        let set = tiny_set();
        let spec = &full_roster(TunedY::default())[3];
        let budget = Budget::evaluations(500);
        let key = CellKey::new("test", "g = 1", "500 evals");

        let first = TelemetryLog::in_memory();
        let total = set.run_cell(
            key.clone(),
            spec,
            Strategy::Figure1,
            budget,
            &CellPolicy::sequential(),
            &first,
        );
        let cached = first.records().remove(0);

        // Replaying with a spec that always panics proves nothing ran.
        let bomb = MethodSpec::new("bomb", || panic!("must not run"));
        let resumed = TelemetryLog::in_memory().with_resume(vec![cached.clone()]);
        let replayed_total = set.run_cell(
            key,
            &bomb,
            Strategy::Figure1,
            budget,
            &CellPolicy::sequential(),
            &resumed,
        );
        assert_eq!(replayed_total, total);
        assert_eq!(resumed.records().remove(0), cached);
        assert_eq!(resumed.summary().replayed, 1);
    }
}
