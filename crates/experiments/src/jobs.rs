//! The annealing job server: queued multi-client submission on the ops
//! plane.
//!
//! PR 9's [`ops`](crate::ops) endpoint only *observes* a run; this module
//! lets clients *submit* one. A [`JobServer`] owns a bounded
//! [`crate::scheduler::TaskQueue`] of accepted jobs and a pool
//! of worker threads draining it; [`ops::OpsServer`](crate::ops::OpsServer)
//! exposes it over HTTP as `POST /jobs`, `GET /jobs`, `GET /jobs/:id` and
//! `DELETE /jobs/:id` (see EXPERIMENTS.md "Job server" for the wire
//! contract).
//!
//! # Determinism contract
//!
//! A [`JobSpec`] pins everything a run depends on — problem generator,
//! method, strategy, budget and base seed — and execution flows through the
//! same chain runner the offline CLI uses ([`anneal_core::Annealer`], with
//! `runner`'s `adapt_schedule_for` and the same seed-stream salts).
//! A job's result [record](JobSpec::execute) therefore contains no
//! wall-clock fields and is **byte-identical** to running
//! `repro job SPEC.json` offline with the same spec. The only
//! determinism escape hatch is the opt-in `watchdog_ms` runaway guard,
//! which can stop an instance early on wall time.
//!
//! # Crash safety
//!
//! Accepted jobs are journaled under the same rules as the telemetry WAL
//! (versioned header, per-record flush, torn-final-line tolerance; see
//! [`jsonl`]): a `submitted` event
//! is flushed *before* the HTTP 202 goes out, so killing the server
//! mid-queue and restarting with the same `--journal` loses no accepted
//! job — non-terminal jobs are re-enqueued, terminal ones keep their
//! recorded outcome.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use anneal_core::json::Json;
use anneal_core::schedule::adaptive::AdaptiveMode;
use anneal_core::{
    derive_seed, json_object, metrics, watchdog, Annealer, Budget, GFunction, NoopObserver,
    Problem, Strategy,
};
use anneal_linarr::LinearArrangementProblem;
use anneal_netlist::Netlist;
use anneal_partition::PartitionProblem;
use anneal_tsp::TspProblem;
use rand::{rngs::StdRng, SeedableRng};

use crate::budgetmap::Scale;
use crate::checkpoint::{field_str, field_u64};
use crate::instances::{self, DEFAULT_SEED, NOLA_PIN_RANGE};
use crate::jsonl::{self, JOURNAL};
use crate::runner::{adapt_schedule_for, panic_message, probe, PROBE_SALT, RUN_SALT};
use crate::scheduler::{PushError, TaskQueue};

/// Schema tag of a job result record.
pub const JOB_SCHEMA: &str = "anneal-job-record";
/// Current job record version.
pub const JOB_VERSION: u64 = 1;
/// Default bounded-queue capacity (`repro serve --queue` overrides).
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;
/// Default worker-thread count (`repro serve --job-threads` overrides).
pub const DEFAULT_JOB_THREADS: usize = 2;
/// Most instances one job may request.
pub const MAX_INSTANCES: u64 = 64;
/// Largest per-instance paper-seconds budget one job may request.
pub const MAX_SECONDS: f64 = 36_000.0;
/// Default `GET /jobs` page size.
pub const DEFAULT_LIST_LIMIT: u64 = 50;
/// Largest `GET /jobs` page size.
pub const MAX_LIST_LIMIT: u64 = 500;
/// Most elements a netlist job may have, and most cities a rejectionless
/// TSP job may have: each rejectionless step weighs all n(n−1)/2 2-opt
/// neighbours, so its time grows as n³ and its memory as n².
const MAX_ELEMENTS: u64 = 1024;

/// Which problem family a job solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemKind {
    /// Gate-oriented linear arrangement (two-pin nets).
    Gola,
    /// Net-oriented linear arrangement (multi-pin nets).
    Nola,
    /// Euclidean traveling salesperson.
    Tsp,
    /// Balanced two-way netlist partitioning.
    Partition,
}

impl ProblemKind {
    /// Stable lower-case name used on the wire and in metric labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            ProblemKind::Gola => "gola",
            ProblemKind::Nola => "nola",
            ProblemKind::Tsp => "tsp",
            ProblemKind::Partition => "partition",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "gola" => Ok(ProblemKind::Gola),
            "nola" => Ok(ProblemKind::Nola),
            "tsp" => Ok(ProblemKind::Tsp),
            "partition" => Ok(ProblemKind::Partition),
            other => Err(format!(
                "field `problem` must be one of gola, nola, tsp, partition; got `{other}`"
            )),
        }
    }

    fn is_netlist(&self) -> bool {
        !matches!(self, ProblemKind::Tsp)
    }
}

/// Which acceptance function (`g`) a job runs, mirroring the suite's
/// method roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Six-temperature annealing (the paper's tuned STA).
    Sta,
    /// Single-temperature Metropolis.
    Metropolis,
    /// `g = 1` (always accept, paper-gated).
    Unit,
    /// Two-level g.
    TwoLevel,
}

impl Method {
    /// Stable lower-case name used on the wire.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Sta => "sta",
            Method::Metropolis => "metropolis",
            Method::Unit => "g1",
            Method::TwoLevel => "two-level",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "sta" => Ok(Method::Sta),
            "metropolis" => Ok(Method::Metropolis),
            "g1" => Ok(Method::Unit),
            "two-level" => Ok(Method::TwoLevel),
            other => Err(format!(
                "field `method` must be one of sta, metropolis, g1, two-level; got `{other}`"
            )),
        }
    }
}

/// A fully validated job specification: everything a deterministic run
/// depends on. Parsed strictly from client JSON ([`JobSpec::parse`]
/// rejects unknown fields, out-of-range budgets and malformed netlists
/// with precise messages that become HTTP 400 bodies) and re-serialized
/// canonically by [`JobSpec::to_json`] (`parse(to_json(s)) == s`).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Problem family.
    pub problem: ProblemKind,
    /// Instances to solve (1..=[`MAX_INSTANCES`]).
    pub instances: u64,
    /// Elements per generated netlist instance (netlist problems).
    pub elements: u64,
    /// Nets per generated netlist instance (netlist problems).
    pub nets: u64,
    /// Cities per generated instance (TSP only).
    pub cities: u64,
    /// Inline netlist (pins per net); replaces the generator, so every
    /// instance solves this exact netlist from a different start.
    pub netlist: Option<Vec<Vec<u64>>>,
    /// Acceptance function.
    pub method: Method,
    /// `y1` override for `sta`/`metropolis` (family default otherwise).
    pub temperature: Option<f64>,
    /// Control strategy (exchange interval riding inside
    /// [`Strategy::ReplicaExchange`]).
    pub strategy: Strategy,
    /// Ladder size for replica-exchange (`--replicas` semantics).
    pub replicas: Option<usize>,
    /// Adaptive-schedule override (`--schedule` semantics).
    pub schedule: Option<AdaptiveMode>,
    /// Per-instance budget in paper (VAX) seconds.
    pub seconds: f64,
    /// Budget divisor (`--scale` semantics).
    pub scale: u64,
    /// Base seed; every instance derives its streams from it.
    pub seed: u64,
    /// Optional per-instance wall-clock runaway guard (the thread-local
    /// watchdog). The one knob that can make a record time-dependent.
    pub watchdog_ms: Option<u64>,
}

/// Every field name [`JobSpec::parse`] accepts.
const SPEC_FIELDS: [&str; 16] = [
    "problem",
    "instances",
    "elements",
    "nets",
    "cities",
    "netlist",
    "method",
    "temperature",
    "strategy",
    "replicas",
    "exchange_interval",
    "schedule",
    "seconds",
    "scale",
    "seed",
    "watchdog_ms",
];

fn ranged_u64(v: &Json, key: &str, lo: u64, hi: u64) -> Result<u64, String> {
    let n = v
        .as_u64_checked()
        .map_err(|e| format!("field `{key}`: {e}"))?;
    if n < lo || n > hi {
        return Err(format!("field `{key}` must be in {lo}..={hi}, got {n}"));
    }
    Ok(n)
}

fn reject_for(fields: &[(String, Json)], key: &str, why: &str) -> Result<(), String> {
    if fields.iter().any(|(k, _)| k == key) {
        return Err(format!("field `{key}` {why}"));
    }
    Ok(())
}

impl JobSpec {
    /// Parses and validates a job spec from client JSON text.
    ///
    /// # Errors
    ///
    /// Returns a precise, field-naming message (the HTTP 400 body) for
    /// unknown or duplicate fields, type mismatches, out-of-range values,
    /// malformed netlists, or options that do not apply to the chosen
    /// problem, method or strategy.
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        let value = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        Self::from_value(&value)
    }

    /// [`parse`](JobSpec::parse) on an already parsed JSON value (used by
    /// journal replay).
    pub fn from_value(value: &Json) -> Result<JobSpec, String> {
        let fields = value
            .as_obj()
            .ok_or_else(|| "job spec must be a JSON object".to_string())?;
        for (i, (key, _)) in fields.iter().enumerate() {
            if !SPEC_FIELDS.contains(&key.as_str()) {
                return Err(format!("unknown field `{key}`"));
            }
            if fields[..i].iter().any(|(k, _)| k == key) {
                return Err(format!("duplicate field `{key}`"));
            }
        }

        let problem = ProblemKind::parse(
            value
                .get("problem")
                .ok_or_else(|| "missing required field `problem`".to_string())?
                .as_str()
                .ok_or_else(|| "field `problem` must be a string".to_string())?,
        )?;

        let instances = match value.get("instances") {
            Some(v) => ranged_u64(v, "instances", 1, MAX_INSTANCES)?,
            None => 4,
        };

        // Problem-family parameters: each knob only exists for the family
        // it configures, so a typo'd spec fails loudly instead of being
        // silently ignored.
        let netlist = match value.get("netlist") {
            Some(v) => {
                if !problem.is_netlist() {
                    return Err(format!(
                        "field `netlist` does not apply to problem `{}`",
                        problem.as_str()
                    ));
                }
                Some(parse_netlist(v)?)
            }
            None => None,
        };
        let (elements, nets) = if problem.is_netlist() {
            reject_for(
                fields,
                "cities",
                &format!("does not apply to problem `{}`", problem.as_str()),
            )?;
            let elements = match value.get("elements") {
                Some(v) => ranged_u64(v, "elements", 2, MAX_ELEMENTS)?,
                None if netlist.is_some() => {
                    return Err("inline `netlist` requires `elements`".to_string())
                }
                None => 15,
            };
            let nets = match value.get("nets") {
                Some(_) if netlist.is_some() => {
                    return Err("field `nets` conflicts with inline `netlist`".to_string())
                }
                Some(v) => ranged_u64(v, "nets", 1, 100_000)?,
                None => 150,
            };
            if let Some(nl) = &netlist {
                validate_netlist(problem, elements, nl)?;
            } else if problem == ProblemKind::Nola && elements < NOLA_PIN_RANGE.1 as u64 {
                let max_pins = NOLA_PIN_RANGE.1;
                return Err(format!(
                    "field `elements` must be at least {max_pins} for generated NOLA nets \
                     of up to {max_pins} pins, got {elements}"
                ));
            }
            (elements, nets)
        } else {
            for key in ["elements", "nets"] {
                reject_for(fields, key, "does not apply to problem `tsp`")?;
            }
            (15, 150)
        };
        let cities = if problem == ProblemKind::Tsp {
            match value.get("cities") {
                Some(v) => ranged_u64(v, "cities", 3, 10_000)?,
                None => 60,
            }
        } else {
            60
        };

        let method = match value.get("method") {
            Some(v) => Method::parse(
                v.as_str()
                    .ok_or_else(|| "field `method` must be a string".to_string())?,
            )?,
            None => Method::Sta,
        };
        let temperature = match value.get("temperature") {
            Some(v) => {
                if matches!(method, Method::Unit | Method::TwoLevel) {
                    return Err(format!(
                        "field `temperature` does not apply to method `{}`",
                        method.as_str()
                    ));
                }
                let t = v
                    .as_f64()
                    .ok_or_else(|| "field `temperature` must be a number".to_string())?;
                if !t.is_finite() || t <= 0.0 {
                    return Err(format!(
                        "field `temperature` must be finite and positive, got {t}"
                    ));
                }
                Some(t)
            }
            None => None,
        };

        let strategy_name = match value.get("strategy") {
            Some(v) => v
                .as_str()
                .ok_or_else(|| "field `strategy` must be a string".to_string())?,
            None => "figure1",
        };
        let exchange_interval = match value.get("exchange_interval") {
            Some(v) => Some(ranged_u64(v, "exchange_interval", 1, 1_000_000)?),
            None => None,
        };
        let replicas = match value.get("replicas") {
            Some(v) => Some(ranged_u64(v, "replicas", 2, 16)? as usize),
            None => None,
        };
        let strategy = Strategy::from_name(strategy_name, exchange_interval).ok_or_else(|| {
            format!(
                "field `strategy` must be one of figure1, figure2, rejectionless, \
                 replica-exchange; got `{strategy_name}`"
            )
        })?;
        if !matches!(strategy, Strategy::ReplicaExchange { .. })
            && (replicas.is_some() || exchange_interval.is_some())
        {
            return Err(
                "fields `replicas` and `exchange_interval` require strategy replica-exchange"
                    .to_string(),
            );
        }
        if strategy == Strategy::Rejectionless && cities > MAX_ELEMENTS {
            return Err(format!(
                "field `cities` must be at most {MAX_ELEMENTS} with strategy rejectionless, \
                 got {cities}"
            ));
        }

        let schedule =
            match value.get("schedule") {
                Some(v) => {
                    let s = v
                        .as_str()
                        .ok_or_else(|| "field `schedule` must be a string".to_string())?;
                    Some(s.parse::<AdaptiveMode>().map_err(|_| {
                        format!("field `schedule` must be adaptive or asa; got `{s}`")
                    })?)
                }
                None => None,
            };

        let seconds = match value.get("seconds") {
            Some(v) => {
                let s = v
                    .as_f64()
                    .ok_or_else(|| "field `seconds` must be a number".to_string())?;
                if !s.is_finite() || s <= 0.0 || s > MAX_SECONDS {
                    return Err(format!(
                        "field `seconds` must be in (0, {MAX_SECONDS:.0}], got {s}"
                    ));
                }
                s
            }
            None => 6.0,
        };
        let scale = match value.get("scale") {
            Some(v) => ranged_u64(v, "scale", 1, 1_000_000_000)?,
            None => 1,
        };
        let seed = match value.get("seed") {
            Some(v) => v
                .as_u64_checked()
                .map_err(|e| format!("field `seed`: {e}"))?,
            None => DEFAULT_SEED,
        };
        let watchdog_ms = match value.get("watchdog_ms") {
            Some(v) => Some(ranged_u64(v, "watchdog_ms", 1, 600_000)?),
            None => None,
        };

        Ok(JobSpec {
            problem,
            instances,
            elements,
            nets,
            cities,
            netlist,
            method,
            temperature,
            strategy,
            replicas,
            schedule,
            seconds,
            scale,
            seed,
            watchdog_ms,
        })
    }

    /// The canonical serialization: fixed field order, family-specific
    /// knobs only for the family that owns them, optional fields omitted
    /// when unset. `parse(to_json(spec)) == spec`.
    pub fn to_json(&self) -> Json {
        let netlist = self.problem.is_netlist();
        let nets = match &self.netlist {
            Some(nets) => {
                let pins = |net: &Vec<u64>| Json::Arr(net.iter().map(|&p| p.into()).collect());
                ("netlist", Json::Arr(nets.iter().map(pins).collect()))
            }
            None => ("nets", self.nets.into()),
        };
        let exchange_interval = match self.strategy {
            Strategy::ReplicaExchange { exchange_interval } => Some(exchange_interval),
            _ => None,
        };
        let members = [
            Some(("problem", self.problem.as_str().into())),
            Some(("instances", self.instances.into())),
            netlist.then(|| ("elements", self.elements.into())),
            netlist.then_some(nets),
            (!netlist).then(|| ("cities", self.cities.into())),
            Some(("method", self.method.as_str().into())),
            self.temperature.map(|t| ("temperature", t.into())),
            Some(("strategy", self.strategy.name().into())),
            self.replicas.map(|k| ("replicas", k.into())),
            exchange_interval.map(|n| ("exchange_interval", n.into())),
            self.schedule
                .map(|mode| ("schedule", mode.to_string().into())),
            Some(("seconds", self.seconds.into())),
            Some(("scale", self.scale.into())),
            Some(("seed", self.seed.into())),
            self.watchdog_ms.map(|ms| ("watchdog_ms", ms.into())),
        ];
        Json::obj(members.into_iter().flatten())
    }

    /// The per-instance evaluation budget this spec buys.
    pub fn budget(&self) -> Budget {
        Scale::new(self.scale).vax_seconds(self.seconds)
    }

    /// Runs the job to completion, checking `cancel` between instances
    /// (cancellation is cooperative at instance boundaries; the optional
    /// `watchdog_ms` guard bounds a runaway instance from within). The
    /// `Done` record is pure f64-shortest-representation JSON with no
    /// wall-clock fields — the byte-determinism contract.
    pub fn execute(&self, cancel: &AtomicBool) -> JobOutcome {
        let _wall =
            metrics::global().span_into("job_wall_us", &[("problem", self.problem.as_str())]);
        let mut outs = Vec::with_capacity(self.instances as usize);
        for i in 0..self.instances {
            if cancel.load(Ordering::SeqCst) {
                return JobOutcome::Cancelled;
            }
            match catch_unwind(AssertUnwindSafe(|| self.run_instance(i))) {
                Ok(out) => outs.push(out),
                Err(payload) => {
                    return JobOutcome::Failed {
                        error: format!("instance {i}: {}", panic_message(payload)),
                    };
                }
            }
        }
        JobOutcome::Done {
            record: self.record_json(&outs).to_string(),
        }
    }

    fn run_instance(&self, i: u64) -> InstanceOut {
        let _guard = self
            .watchdog_ms
            .map(|ms| watchdog::arm(Duration::from_millis(ms)));
        match self.problem {
            ProblemKind::Gola | ProblemKind::Nola => {
                let p = LinearArrangementProblem::new(self.netlist_for(i));
                self.run_generic(&p, i)
            }
            ProblemKind::Partition => {
                let p = PartitionProblem::new(self.netlist_for(i));
                self.run_generic(&p, i)
            }
            ProblemKind::Tsp => {
                let p =
                    TspProblem::new(instances::tsp_instance(self.seed, i, self.cities as usize));
                self.run_generic(&p, i)
            }
        }
    }

    /// Instance `i`'s netlist: the inline one verbatim, or the family
    /// generator the suite uses ([`crate::instances`]).
    fn netlist_for(&self, i: u64) -> Netlist {
        if let Some(nets) = &self.netlist {
            let pins = nets
                .iter()
                .map(|net| net.iter().map(|&p| p as u32).collect::<Vec<_>>());
            return Netlist::builder(self.elements as usize)
                .nets(pins)
                .build()
                .expect("netlist validated at parse time");
        }
        let generate = match self.problem {
            ProblemKind::Gola => instances::gola_netlist,
            ProblemKind::Nola => instances::nola_netlist,
            ProblemKind::Partition => instances::partition_netlist,
            ProblemKind::Tsp => unreachable!("TSP has no netlist"),
        };
        generate(self.seed, i, self.elements as usize, self.nets as usize)
    }

    fn run_generic<P: Problem>(&self, p: &P, i: u64) -> InstanceOut {
        let mut start_rng = StdRng::seed_from_u64(derive_seed(self.seed, i));
        let start = p.random_state(&mut start_rng);
        let mut g = self.g_function();
        let probe_seed = derive_seed(self.seed ^ PROBE_SALT, i);
        let (budget, controller) = adapt_schedule_for(
            self.schedule,
            || probe(p, probe_seed),
            &mut g,
            self.budget(),
        );
        let chain_seed = derive_seed(self.seed ^ RUN_SALT, i);
        let result = Annealer::new(p)
            .strategy(self.strategy)
            .budget(budget)
            .seed(chain_seed)
            .start_from(start)
            .replicas(self.replicas)
            .controller(controller)
            .run(&mut g, &mut NoopObserver);
        InstanceOut {
            seed: chain_seed,
            initial: result.initial_cost,
            best: result.best_cost,
            final_cost: result.final_cost,
            reduction: result.reduction(),
            evals: result.stats.evals,
            stop: result.stop.as_str(),
            accepted_downhill: result.stats.accepted_downhill,
            accepted_uphill: result.stats.accepted_uphill,
            rejected_uphill: result.stats.rejected_uphill,
        }
    }

    /// The method's `g` with the family's tuned default `y1` (GOLA-scale
    /// costs vs unit-square tour lengths) unless `temperature` overrides.
    fn g_function(&self) -> GFunction {
        let tsp = self.problem == ProblemKind::Tsp;
        match self.method {
            Method::Sta => GFunction::six_temp_annealing(self.temperature.unwrap_or(if tsp {
                0.3
            } else {
                10.0
            })),
            Method::Metropolis => {
                GFunction::metropolis(self.temperature.unwrap_or(if tsp { 0.1 } else { 2.0 }))
            }
            Method::Unit => GFunction::unit(),
            Method::TwoLevel => GFunction::two_level(),
        }
    }

    fn record_json(&self, outs: &[InstanceOut]) -> Json {
        let per_instance = outs.iter().enumerate().map(|(i, o)| {
            json_object! {
                "instance": i, "seed": o.seed, "initial": o.initial, "best": o.best,
                "final": o.final_cost, "reduction": o.reduction, "evals": o.evals, "stop": o.stop,
                "accepted_downhill": o.accepted_downhill, "accepted_uphill": o.accepted_uphill,
                "rejected_uphill": o.rejected_uphill,
            }
        });
        json_object! {
            "schema": JOB_SCHEMA, "version": JOB_VERSION, "spec": self.to_json(),
            "budget": self.budget().to_string(),
            "reduction": outs.iter().map(|o| o.reduction).sum::<f64>(),
            "evals": outs.iter().map(|o| o.evals).sum::<u64>(),
            "per_instance": Json::Arr(per_instance.collect()),
        }
    }
}

fn parse_netlist(v: &Json) -> Result<Vec<Vec<u64>>, String> {
    let nets = v
        .as_arr()
        .ok_or_else(|| "field `netlist` must be an array of nets".to_string())?;
    if nets.is_empty() {
        return Err("field `netlist` must contain at least one net".to_string());
    }
    if nets.len() > 100_000 {
        return Err("field `netlist` has too many nets (max 100000)".to_string());
    }
    let mut out = Vec::with_capacity(nets.len());
    for (i, net) in nets.iter().enumerate() {
        let pins = net
            .as_arr()
            .ok_or_else(|| format!("netlist net {i} must be an array of element indices"))?;
        let mut p = Vec::with_capacity(pins.len());
        for pin in pins {
            p.push(
                pin.as_u64_checked()
                    .map_err(|e| format!("netlist net {i}: {e}"))?,
            );
        }
        out.push(p);
    }
    Ok(out)
}

fn validate_netlist(problem: ProblemKind, elements: u64, nets: &[Vec<u64>]) -> Result<(), String> {
    if problem == ProblemKind::Gola {
        if let Some((i, net)) = nets.iter().enumerate().find(|(_, n)| n.len() != 2) {
            return Err(format!(
                "problem `gola` requires two-pin nets; net {i} has {} pins",
                net.len()
            ));
        }
    }
    let pins = nets.iter().map(|net| {
        net.iter()
            .map(|&p| p.min(u32::MAX as u64) as u32)
            .collect::<Vec<_>>()
    });
    Netlist::builder(elements as usize)
        .nets(pins)
        .build()
        .map(|_| ())
        .map_err(|e| format!("invalid netlist: {e}"))
}

/// One instance's wall-free result numbers.
struct InstanceOut {
    seed: u64,
    initial: f64,
    best: f64,
    final_cost: f64,
    reduction: f64,
    evals: u64,
    stop: &'static str,
    accepted_downhill: u64,
    accepted_uphill: u64,
    rejected_uphill: u64,
}

/// How a job execution ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// All instances completed; `record` is the canonical result JSON.
    Done {
        /// The byte-deterministic result record.
        record: String,
    },
    /// An instance panicked (or its input was rejected at run time).
    Failed {
        /// What went wrong, naming the instance.
        error: String,
    },
    /// The cancel flag was observed at an instance boundary.
    Cancelled,
}

/// The job lifecycle: `queued → running → done | failed | cancelled`,
/// with `queued → cancelled` for jobs cancelled before a worker claims
/// them. Terminal states absorb — in particular, cancel is terminal and
/// `done` can never regress to `running`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and journaled, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Completed with a result record.
    Done,
    /// Execution failed.
    Failed,
    /// Cancelled by a client.
    Cancelled,
}

/// Every job state, in display order (the order `jobs_state` gauges are
/// exported in).
pub const JOB_STATES: [JobState; 5] = [
    JobState::Queued,
    JobState::Running,
    JobState::Done,
    JobState::Failed,
    JobState::Cancelled,
];

impl JobState {
    /// Stable lower-case name used on the wire, in the journal and as the
    /// `jobs_state{state=...}` gauge label.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether no further transition can leave this state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Whether the state machine allows `self → to`.
    pub fn can_transition(&self, to: JobState) -> bool {
        matches!(
            (self, to),
            (JobState::Queued, JobState::Running)
                | (JobState::Queued, JobState::Cancelled)
                | (JobState::Running, JobState::Done)
                | (JobState::Running, JobState::Failed)
                | (JobState::Running, JobState::Cancelled)
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug, Clone)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    error: Option<String>,
    /// The finished record as text, since the server keeps every record
    /// and a parsed tree takes several times the memory. It always parses.
    record: Option<Arc<str>>,
    cancel: Arc<AtomicBool>,
}

impl JobEntry {
    fn new(spec: JobSpec, state: JobState) -> Self {
        JobEntry {
            spec,
            state,
            error: None,
            record: None,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The wire shape of one job (`GET /jobs/:id`). The `record` object is
    /// deliberately the *last* field so clients (and the determinism e2e
    /// test) can slice it off the tail verbatim.
    fn to_json(&self, id: u64) -> String {
        let cancel_requested =
            self.state == JobState::Running && self.cancel.load(Ordering::SeqCst);
        let members = [
            Some(("id", id.into())),
            Some(("state", self.state.as_str().into())),
            Some(("spec", self.spec.to_json())),
            cancel_requested.then(|| ("cancel_requested", true.into())),
            self.error.as_deref().map(|e| ("error", e.into())),
            self.record
                .as_deref()
                .map(|r| ("record", Json::parse(r).expect("records parse"))),
        ];
        Json::obj(members.into_iter().flatten()).to_string()
    }
}

/// One job-state transition as the journal records it: `Done` carries
/// the result record and `Failed` the error.
enum JournalEvent<'a> {
    Submitted(&'a JobSpec),
    Running,
    Done(&'a str),
    Failed(&'a str),
    Cancelled,
}

impl JournalEvent<'_> {
    /// The event record for job `id`, before its `seq` is added.
    fn to_json(&self, id: u64) -> Json {
        let (event, member) = match self {
            Self::Submitted(spec) => ("submitted", Some(("spec", spec.to_json()))),
            Self::Running => ("running", None),
            Self::Done(record) => ("done", Some(("record", (*record).into()))),
            Self::Failed(error) => ("failed", Some(("error", (*error).into()))),
            Self::Cancelled => ("cancelled", None),
        };
        let head = [("job", id.into()), ("event", event.into())];
        Json::obj(head.into_iter().chain(member))
    }
}

struct Journal {
    writer: BufWriter<File>,
    path: String,
    seq: u64,
}

struct JobsRegistry {
    jobs: BTreeMap<u64, JobEntry>,
    next_id: u64,
    journal: Option<Journal>,
}

struct Inner {
    queue: TaskQueue<u64>,
    draining: AtomicBool,
    state: Mutex<JobsRegistry>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, JobsRegistry> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mirrors per-state job counts into the `jobs_state{state=...}`
    /// gauges after every transition.
    fn update_gauges(reg: &JobsRegistry) {
        let m = metrics::global();
        for state in JOB_STATES {
            let count = reg.jobs.values().filter(|j| j.state == state).count();
            m.gauge_with("jobs_state", &[("state", state.as_str())])
                .set(count as f64);
        }
    }

    /// Journals a job event with the next `seq`, flushed before the
    /// caller's HTTP response leaves. Write failures degrade to stderr (the
    /// in-memory state machine stays authoritative for this process's
    /// lifetime).
    fn journal_event(reg: &mut JobsRegistry, id: u64, event: JournalEvent) {
        if let Some(journal) = reg.journal.as_mut() {
            journal.seq += 1;
            let line = jsonl::sequenced(journal.seq, event.to_json(id)).to_string();
            if let Err(e) = jsonl::append(&mut journal.writer, line) {
                metrics::global().counter("jobs.journal_errors").inc();
                eprintln!("jobs: cannot append to job journal `{}`: {e}", journal.path);
            }
        }
    }
}

/// The body of every JSON error response: `{"error":message}`.
pub(crate) fn error_body(message: &str) -> String {
    json_object! { "error": message }.to_string()
}

/// The queued job server: a bounded submission queue, a worker pool
/// executing [`JobSpec`]s deterministically, and an optional WAL-style
/// journal making accepted jobs survive a crash. The HTTP verbs map to
/// [`submit`](JobServer::submit) / [`get`](JobServer::get) /
/// [`list`](JobServer::list) / [`cancel`](JobServer::cancel), each
/// returning `(status, json_body)` so [`crate::ops`] stays a thin router
/// and tests can drive the server without sockets.
pub struct JobServer {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobServer {
    /// Starts `threads` workers over a queue of `capacity`. With a journal
    /// path, replays any existing journal first: terminal jobs keep their
    /// outcome, non-terminal (accepted but unfinished) jobs are re-queued —
    /// the capacity grows to fit them all, since they were already
    /// accepted once.
    ///
    /// # Errors
    ///
    /// Returns an error for an unreadable or corrupt journal (a torn
    /// final line is tolerated, as for any WAL).
    pub fn start(
        threads: usize,
        capacity: usize,
        journal_path: Option<&str>,
    ) -> Result<JobServer, String> {
        let threads = threads.max(1);
        let capacity = capacity.max(1);
        let (jobs, next_id, journal) = match journal_path {
            Some(path) => {
                let (jobs, next_id, seq) = replay_journal(path)?;
                let writer = JOURNAL
                    .open_append(Path::new(path))
                    .map_err(|e| format!("job journal: {e}"))?;
                // New lines continue the replayed sequence.
                let journal = Journal {
                    writer,
                    path: path.to_string(),
                    seq,
                };
                (jobs, next_id, Some(journal))
            }
            None => (BTreeMap::new(), 1, None),
        };
        let requeue: Vec<u64> = jobs
            .iter()
            .filter(|(_, j)| j.state == JobState::Queued)
            .map(|(&id, _)| id)
            .collect();
        let inner = Arc::new(Inner {
            queue: TaskQueue::bounded(capacity.max(requeue.len())),
            draining: AtomicBool::new(false),
            state: Mutex::new(JobsRegistry {
                jobs,
                next_id,
                journal,
            }),
        });
        for id in requeue {
            inner
                .queue
                .push(id)
                .expect("capacity covers every replayed job");
        }
        Inner::update_gauges(&inner.lock());
        let workers = (0..threads)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(JobServer {
            inner,
            workers: Mutex::new(workers),
        })
    }

    /// `POST /jobs`: validates `body` as a [`JobSpec`], journals and
    /// enqueues it. `202` with the job resource on acceptance, `400` with
    /// a precise message on a bad spec, `429` when the queue is full (the
    /// backpressure contract) and `503` while shutting down.
    pub fn submit(&self, body: &str) -> (u16, String) {
        let spec = match JobSpec::parse(body) {
            Ok(spec) => spec,
            Err(e) => {
                metrics::global().counter("jobs.rejected_invalid").inc();
                return (400, error_body(&e));
            }
        };
        let mut reg = self.inner.lock();
        if self.inner.draining.load(Ordering::SeqCst) {
            return (503, error_body("server is draining"));
        }
        let id = reg.next_id;
        reg.jobs
            .insert(id, JobEntry::new(spec.clone(), JobState::Queued));
        match self.inner.queue.push(id) {
            Ok(()) => {}
            Err(PushError::Full) => {
                reg.jobs.remove(&id);
                metrics::global()
                    .counter("jobs.rejected_backpressure")
                    .inc();
                let capacity = self.inner.queue.capacity();
                let body = json_object! { "error": "queue full", "capacity": capacity };
                return (429, body.to_string());
            }
            Err(PushError::Closed) => {
                reg.jobs.remove(&id);
                return (503, error_body("server is shutting down"));
            }
        }
        reg.next_id = id + 1;
        // Flush the journal before the 202 leaves: an acknowledged job
        // must survive a crash.
        Inner::journal_event(&mut reg, id, JournalEvent::Submitted(&spec));
        Inner::update_gauges(&reg);
        metrics::global().counter("jobs.submitted").inc();
        let body = reg.jobs[&id].to_json(id);
        (202, body)
    }

    /// `GET /jobs/:id`: the job resource, or `404`.
    pub fn get(&self, id_str: &str) -> (u16, String) {
        // A copy of the entry (its record is shared, not copied), so the
        // record parses and prints after the registry lock is released.
        let job = |id| Some((id, self.inner.lock().jobs.get(&id)?.clone()));
        match parse_id(id_str).and_then(job) {
            Some((id, job)) => (200, job.to_json(id)),
            None => (404, error_body(&format!("no such job `{id_str}`"))),
        }
    }

    /// `GET /jobs?offset=N&limit=M`: a paginated id-ordered listing.
    pub fn list(&self, query: &str) -> (u16, String) {
        let mut offset: u64 = 0;
        let mut limit: u64 = DEFAULT_LIST_LIMIT;
        for pair in query.split('&').filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            let parsed: Result<u64, _> = value.parse();
            match (key, parsed) {
                ("offset", Ok(n)) => offset = n,
                ("limit", Ok(n)) if (1..=MAX_LIST_LIMIT).contains(&n) => limit = n,
                _ => {
                    return (
                        400,
                        error_body(&format!(
                            "bad query parameter `{pair}` (offset=N, limit=1..={MAX_LIST_LIMIT})"
                        )),
                    )
                }
            }
        }
        let reg = self.inner.lock();
        let page = reg.jobs.iter().skip(offset as usize).take(limit as usize);
        let jobs = page.map(|(&id, job)| json_object! { "id": id, "state": job.state.as_str() });
        let listing = json_object! {
            "total": reg.jobs.len(), "offset": offset, "limit": limit,
            "jobs": Json::Arr(jobs.collect()),
        };
        (200, listing.to_string())
    }

    /// `DELETE /jobs/:id`: cancellation. A queued job cancels immediately
    /// (`200`); a running one gets its cancel flag raised and finishes
    /// cancelling at the next instance boundary (`202`); a terminal job is
    /// a `409` conflict; unknown ids are `404`.
    pub fn cancel(&self, id_str: &str) -> (u16, String) {
        let mut reg = self.inner.lock();
        let Some(id) = parse_id(id_str) else {
            return (404, error_body(&format!("no such job `{id_str}`")));
        };
        let Some(job) = reg.jobs.get_mut(&id) else {
            return (404, error_body(&format!("no such job `{id_str}`")));
        };
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                // The queued id stays in the queue; the worker skips
                // entries that are no longer `queued` when it pops them.
                Inner::journal_event(&mut reg, id, JournalEvent::Cancelled);
                Inner::update_gauges(&reg);
                let body = reg.jobs[&id].to_json(id);
                (200, body)
            }
            JobState::Running => {
                job.cancel.store(true, Ordering::SeqCst);
                let body = job.to_json(id);
                (202, body)
            }
            state => (
                409,
                error_body(&format!("job {id} is already {state}; cancel is terminal")),
            ),
        }
    }

    /// Jobs currently waiting in the queue (for ops surfaces).
    pub fn queued(&self) -> usize {
        self.inner.queue.len()
    }

    /// Stops accepting *and starting* jobs, drains the in-flight ones, and
    /// joins the workers. Queued-but-unstarted jobs stay journaled as
    /// accepted and re-run after a restart — the SIGTERM drain contract.
    pub fn shutdown(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.queue.close();
        let workers: Vec<_> = {
            let mut guard = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            guard.drain(..).collect()
        };
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn parse_id(s: &str) -> Option<u64> {
    // Strict digits-only: "+3", "3x" and "" are all unknown ids.
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

fn worker_loop(inner: &Inner) {
    while let Some(id) = inner.queue.pop() {
        if inner.draining.load(Ordering::SeqCst) {
            // Drain: leave the job `queued` (it is journaled as accepted
            // and will re-run after a restart).
            continue;
        }
        let (spec, cancel) = {
            let mut reg = inner.lock();
            let Some(job) = reg.jobs.get_mut(&id) else {
                continue;
            };
            if job.state != JobState::Queued {
                // Cancelled while waiting; its queue entry is stale.
                continue;
            }
            job.state = JobState::Running;
            let claimed = (job.spec.clone(), Arc::clone(&job.cancel));
            Inner::journal_event(&mut reg, id, JournalEvent::Running);
            Inner::update_gauges(&reg);
            claimed
        };
        let outcome = spec.execute(&cancel);
        let mut reg = inner.lock();
        let Some(job) = reg.jobs.get_mut(&id) else {
            continue;
        };
        let (to, event) = match &outcome {
            JobOutcome::Done { record } => {
                job.record = Some(record.as_str().into());
                (JobState::Done, JournalEvent::Done(record))
            }
            JobOutcome::Failed { error } => {
                job.error = Some(error.clone());
                (JobState::Failed, JournalEvent::Failed(error))
            }
            JobOutcome::Cancelled => (JobState::Cancelled, JournalEvent::Cancelled),
        };
        debug_assert!(job.state.can_transition(to));
        job.state = to;
        Inner::journal_event(&mut reg, id, event);
        Inner::update_gauges(&reg);
    }
}

/// Replays a journal into the job map: the last event per job wins, and
/// jobs whose last event is non-terminal come back `queued` (a `running`
/// job's worker died with the process — the accepted spec re-runs, and
/// determinism makes the re-run equivalent). Returns the map, the next
/// fresh id and the highest `seq` replayed (0 for an empty journal).
fn replay_journal(path: &str) -> Result<(BTreeMap<u64, JobEntry>, u64, u64), String> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((BTreeMap::new(), 1, 0));
        }
        Err(e) => return Err(format!("cannot read job journal `{path}`: {e}")),
    };
    let mut jobs: BTreeMap<u64, JobEntry> = BTreeMap::new();
    let (mut max_id, mut max_seq) = (0u64, 0u64);
    JOURNAL
        .scan(&bytes, |value| {
            max_seq = max_seq.max(field_u64(value, "seq")?);
            let id = field_u64(value, "job")?;
            let event = field_str(value, "event")?;
            max_id = max_id.max(id);
            if event == "submitted" {
                let spec = JobSpec::from_value(value.get("spec").ok_or("missing field `spec`")?)?;
                jobs.insert(id, JobEntry::new(spec, JobState::Queued));
                return Ok(());
            }
            let job = jobs
                .get_mut(&id)
                .ok_or_else(|| format!("{event} event for unknown job {id}"))?;
            match event {
                // The process died mid-run; the job goes back to the queue.
                "running" => job.state = JobState::Queued,
                "done" => {
                    job.state = JobState::Done;
                    let record = field_str(value, "record")?;
                    Json::parse(record)?;
                    job.record = Some(record.into());
                }
                "failed" => {
                    job.state = JobState::Failed;
                    job.error = Some(field_str(value, "error")?.to_string());
                }
                "cancelled" => job.state = JobState::Cancelled,
                other => return Err(format!("unknown journal event `{other}`")),
            }
            Ok(())
        })
        .map_err(|e| format!("job journal `{path}`: {e}"))?;
    Ok((jobs, max_id + 1, max_seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gola_spec(extra: &str) -> String {
        format!("{{\"problem\":\"gola\",\"scale\":2000{extra}}}")
    }

    #[test]
    fn minimal_specs_parse_with_defaults() {
        let spec = JobSpec::parse("{\"problem\":\"gola\"}").unwrap();
        assert_eq!(spec.problem, ProblemKind::Gola);
        assert_eq!(spec.instances, 4);
        assert_eq!((spec.elements, spec.nets), (15, 150));
        assert_eq!(spec.method, Method::Sta);
        assert_eq!(spec.strategy, Strategy::Figure1);
        assert_eq!(spec.seconds, 6.0);
        assert_eq!(spec.scale, 1);
        assert_eq!(spec.seed, DEFAULT_SEED);
        let tsp = JobSpec::parse("{\"problem\":\"tsp\"}").unwrap();
        assert_eq!(tsp.cities, 60);
    }

    #[test]
    fn parse_rejects_precisely() {
        for (body, needle) in [
            ("nonsense", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            ("{}", "missing required field `problem`"),
            (
                "{\"problem\":\"sudoku\"}",
                "one of gola, nola, tsp, partition",
            ),
            (
                "{\"problem\":\"gola\",\"bogus\":1}",
                "unknown field `bogus`",
            ),
            (
                "{\"problem\":\"gola\",\"seed\":1,\"seed\":2}",
                "duplicate field `seed`",
            ),
            (
                "{\"problem\":\"gola\",\"instances\":0}",
                "must be in 1..=64",
            ),
            (
                "{\"problem\":\"gola\",\"seconds\":0}",
                "field `seconds` must be in (0, 36000]",
            ),
            (
                "{\"problem\":\"gola\",\"seconds\":-3}",
                "field `seconds` must be in",
            ),
            ("{\"problem\":\"gola\",\"scale\":0}", "field `scale`"),
            (
                "{\"problem\":\"tsp\",\"nets\":3}",
                "does not apply to problem `tsp`",
            ),
            (
                "{\"problem\":\"tsp\",\"netlist\":[[0,1]]}",
                "field `netlist` does not apply",
            ),
            (
                "{\"problem\":\"gola\",\"cities\":4}",
                "does not apply to problem `gola`",
            ),
            (
                "{\"problem\":\"gola\",\"replicas\":4}",
                "require strategy replica-exchange",
            ),
            (
                "{\"problem\":\"gola\",\"method\":\"g1\",\"temperature\":2}",
                "does not apply to method `g1`",
            ),
            (
                "{\"problem\":\"gola\",\"temperature\":0}",
                "finite and positive",
            ),
            (
                "{\"problem\":\"gola\",\"netlist\":[[0,1]]}",
                "requires `elements`",
            ),
            (
                "{\"problem\":\"gola\",\"elements\":4,\"nets\":2,\"netlist\":[[0,1]]}",
                "conflicts with inline `netlist`",
            ),
            (
                "{\"problem\":\"gola\",\"elements\":4,\"netlist\":[[0,1,2]]}",
                "requires two-pin nets",
            ),
            (
                "{\"problem\":\"nola\",\"elements\":4,\"netlist\":[[0,9]]}",
                "only 4 elements exist",
            ),
            (
                "{\"problem\":\"nola\",\"elements\":4,\"netlist\":[[1,1]]}",
                "more than once",
            ),
            (
                "{\"problem\":\"gola\",\"schedule\":\"magic\"}",
                "must be adaptive or asa",
            ),
            (
                "{\"problem\":\"gola\",\"strategy\":\"anneal\"}",
                "field `strategy` must be one of",
            ),
            (
                "{\"problem\":\"nola\",\"elements\":5,\"instances\":1,\"scale\":2000}",
                "field `elements` must be at least 10 for generated NOLA nets",
            ),
            (
                "{\"problem\":\"tsp\",\"cities\":4000,\"instances\":1,\
                 \"strategy\":\"rejectionless\",\"scale\":1000000000}",
                "field `cities` must be at most 1024 with strategy rejectionless, got 4000",
            ),
        ] {
            let err = JobSpec::parse(body).unwrap_err();
            assert!(err.contains(needle), "body {body}: got `{err}`");
        }
    }

    /// A generated GOLA or NOLA job at the default size solves the paper
    /// instances: its instance `i` is member `i` of the paper set at the
    /// job's seed.
    #[test]
    fn default_netlist_jobs_solve_the_paper_instances() {
        use crate::instances::{gola_paper_set, nola_paper_set};
        for (problem, set) in [("gola", gola_paper_set(7)), ("nola", nola_paper_set(7))] {
            let spec =
                JobSpec::parse(&format!("{{\"problem\":\"{problem}\",\"seed\":7}}")).unwrap();
            for (i, member) in set.iter().enumerate() {
                assert_eq!(
                    &spec.netlist_for(i as u64),
                    member.netlist(),
                    "{problem} {i}"
                );
            }
        }
    }

    #[test]
    fn canonical_json_round_trips() {
        for body in [
            "{\"problem\":\"gola\"}",
            "{\"problem\":\"nola\",\"instances\":2,\"elements\":10,\"nets\":40}",
            "{\"problem\":\"tsp\",\"cities\":12,\"method\":\"metropolis\",\"temperature\":0.25}",
            "{\"problem\":\"partition\",\"elements\":6,\"netlist\":[[0,1],[2,3,4]],\
             \"watchdog_ms\":500}",
            "{\"problem\":\"nola\",\"elements\":4,\"netlist\":[[0,1,2],[1,3]]}",
            "{\"problem\":\"tsp\",\"cities\":1024,\"strategy\":\"rejectionless\"}",
            "{\"problem\":\"tsp\",\"cities\":4000}",
            "{\"problem\":\"gola\",\"strategy\":\"replica-exchange\",\"replicas\":4,\
             \"exchange_interval\":16,\"schedule\":\"asa\",\"seconds\":9,\"scale\":100,\
             \"seed\":42}",
        ] {
            let spec = JobSpec::parse(body).unwrap();
            let canonical = spec.to_json().to_string();
            let reparsed = JobSpec::parse(&canonical).unwrap();
            assert_eq!(spec, reparsed, "round-trip failed for {body}");
            assert_eq!(canonical, reparsed.to_json().to_string());
        }
    }

    #[test]
    fn execution_is_deterministic_across_calls() {
        let spec = JobSpec::parse(&gola_spec(",\"instances\":2,\"seed\":7")).unwrap();
        let flag = AtomicBool::new(false);
        let a = spec.execute(&flag);
        let b = spec.execute(&flag);
        assert_eq!(a, b);
        let JobOutcome::Done { record } = a else {
            panic!("expected Done, got {a:?}");
        };
        assert!(
            record.starts_with("{\"schema\":\"anneal-job-record\""),
            "{record}"
        );
        assert!(
            !record.contains("wall"),
            "records must be wall-free: {record}"
        );
        // Another seed gives a different record.
        let other = JobSpec::parse(&gola_spec(",\"instances\":2,\"seed\":8")).unwrap();
        assert_ne!(other.execute(&flag), b);
    }

    #[test]
    fn every_problem_family_executes() {
        for body in [
            "{\"problem\":\"gola\",\"instances\":1,\"scale\":2000}",
            "{\"problem\":\"nola\",\"instances\":1,\"scale\":2000}",
            "{\"problem\":\"tsp\",\"cities\":8,\"instances\":1,\"scale\":2000}",
            "{\"problem\":\"partition\",\"instances\":1,\"scale\":2000}",
            "{\"problem\":\"gola\",\"instances\":1,\"scale\":2000,\"schedule\":\"adaptive\"}",
            "{\"problem\":\"gola\",\"instances\":1,\"scale\":2000,\
             \"strategy\":\"replica-exchange\",\"replicas\":3}",
            "{\"problem\":\"gola\",\"instances\":1,\"scale\":2000,\"elements\":4,\
             \"netlist\":[[0,1],[1,2],[2,3]]}",
        ] {
            let spec = JobSpec::parse(body).unwrap();
            let outcome = spec.execute(&AtomicBool::new(false));
            assert!(
                matches!(outcome, JobOutcome::Done { .. }),
                "{body}: {outcome:?}"
            );
        }
    }

    /// The whole record of a one-instance job per family at 75 evaluations,
    /// and of an adaptive GOLA job at 375 whose 128-evaluation probe is
    /// charged against the chain: every byte, budget label included.
    #[test]
    fn job_records_are_pinned() {
        for (body, expected) in [
            (
                "{\"problem\":\"gola\",\"instances\":1,\"scale\":20}",
                concat!(
                    r#"{"schema":"anneal-job-record","version":1,"#,
                    r#""spec":{"problem":"gola","instances":1,"elements":15,"nets":150,"#,
                    r#""method":"sta","strategy":"figure1","seconds":6,"scale":20,"seed":1985},"#,
                    r#""budget":"75 evals","reduction":3,"evals":78,"#,
                    r#""per_instance":[{"instance":0,"seed":12622070191368005789,"initial":75,"#,
                    r#""best":72,"final":82,"reduction":3,"evals":78,"#,
                    r#""stop":"budget","accepted_downhill":18,"accepted_uphill":43,"#,
                    r#""rejected_uphill":17}]}"#,
                ),
            ),
            (
                "{\"problem\":\"nola\",\"instances\":1,\"scale\":20}",
                concat!(
                    r#"{"schema":"anneal-job-record","version":1,"#,
                    r#""spec":{"problem":"nola","instances":1,"elements":15,"nets":150,"#,
                    r#""method":"sta","strategy":"figure1","seconds":6,"scale":20,"seed":1985},"#,
                    r#""budget":"75 evals","reduction":7,"evals":78,"#,
                    r#""per_instance":[{"instance":0,"seed":12622070191368005789,"initial":137,"#,
                    r#""best":130,"final":136,"reduction":7,"evals":78,"#,
                    r#""stop":"budget","accepted_downhill":13,"accepted_uphill":60,"#,
                    r#""rejected_uphill":5}]}"#,
                ),
            ),
            (
                "{\"problem\":\"tsp\",\"instances\":1,\"scale\":20}",
                concat!(
                    r#"{"schema":"anneal-job-record","version":1,"#,
                    r#""spec":{"problem":"tsp","instances":1,"cities":60,"method":"sta","#,
                    r#""strategy":"figure1","seconds":6,"scale":20,"seed":1985},"#,
                    r#""budget":"75 evals","reduction":7.1158638192883075,"evals":78,"#,
                    r#""per_instance":[{"instance":0,"seed":12622070191368005789,"#,
                    r#""initial":33.052132892879456,"#,
                    r#""best":25.93626907359115,"final":25.93626907359115,"#,
                    r#""reduction":7.1158638192883075,"evals":78,"#,
                    r#""stop":"budget","accepted_downhill":36,"accepted_uphill":15,"#,
                    r#""rejected_uphill":27}]}"#,
                ),
            ),
            (
                "{\"problem\":\"partition\",\"instances\":1,\"scale\":20}",
                concat!(
                    r#"{"schema":"anneal-job-record","version":1,"#,
                    r#""spec":{"problem":"partition","instances":1,"elements":15,"nets":150,"#,
                    r#""method":"sta","strategy":"figure1","seconds":6,"scale":20,"seed":1985},"#,
                    r#""budget":"75 evals","reduction":35,"evals":78,"#,
                    r#""per_instance":[{"instance":0,"seed":12622070191368005789,"initial":91,"#,
                    r#""best":56,"final":82,"reduction":35,"evals":78,"#,
                    r#""stop":"budget","accepted_downhill":20,"accepted_uphill":16,"#,
                    r#""rejected_uphill":42}]}"#,
                ),
            ),
            (
                "{\"problem\":\"gola\",\"instances\":1,\"scale\":4,\"schedule\":\"adaptive\"}",
                concat!(
                    r#"{"schema":"anneal-job-record","version":1,"#,
                    r#""spec":{"problem":"gola","instances":1,"elements":15,"nets":150,"#,
                    r#""method":"sta","strategy":"figure1","schedule":"adaptive","seconds":6,"#,
                    r#""scale":4,"seed":1985},"#,
                    r#""budget":"375 evals","reduction":11,"evals":252,"#,
                    r#""per_instance":[{"instance":0,"seed":12622070191368005789,"initial":75,"#,
                    r#""best":64,"final":64,"reduction":11,"evals":252,"#,
                    r#""stop":"budget","accepted_downhill":31,"accepted_uphill":121,"#,
                    r#""rejected_uphill":100}]}"#,
                ),
            ),
        ] {
            let outcome = JobSpec::parse(body)
                .unwrap()
                .execute(&AtomicBool::new(false));
            let JobOutcome::Done { record } = outcome else {
                panic!("{body}: {outcome:?}");
            };
            assert_eq!(record, expected, "{body}");
        }
    }

    #[test]
    fn a_pre_set_cancel_flag_cancels_before_work() {
        let spec = JobSpec::parse(&gola_spec("")).unwrap();
        let outcome = spec.execute(&AtomicBool::new(true));
        assert_eq!(outcome, JobOutcome::Cancelled);
    }

    #[test]
    fn state_machine_shape() {
        use JobState::*;
        assert!(Queued.can_transition(Running));
        assert!(Queued.can_transition(Cancelled));
        assert!(Running.can_transition(Done));
        assert!(Running.can_transition(Failed));
        assert!(Running.can_transition(Cancelled));
        // No resurrection, no regression.
        assert!(!Done.can_transition(Running));
        assert!(!Queued.can_transition(Done));
        for terminal in [Done, Failed, Cancelled] {
            assert!(terminal.is_terminal());
            for to in JOB_STATES {
                assert!(!terminal.can_transition(to), "{terminal} -> {to}");
            }
        }
    }

    #[test]
    fn server_runs_a_job_end_to_end() {
        let server = JobServer::start(1, 4, None).unwrap();
        let (status, body) = server.submit(&gola_spec(",\"instances\":1"));
        assert_eq!(status, 202, "{body}");
        assert!(body.contains("\"id\":1"), "{body}");
        // Poll until terminal.
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let (status, body) = server.get("1");
            assert_eq!(status, 200);
            if body.contains("\"state\":\"done\"") {
                assert!(
                    body.contains(",\"record\":{\"schema\":\"anneal-job-record\""),
                    "{body}"
                );
                assert!(
                    body.ends_with("]}}"),
                    "record must be the last field: {body}"
                );
                break;
            }
            assert!(
                !body.contains("\"state\":\"failed\"") && std::time::Instant::now() < deadline,
                "{body}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let (status, listing) = server.list("");
        assert_eq!(status, 200);
        assert!(listing.contains("\"total\":1"), "{listing}");
        let (status, body) = server.get("99");
        assert_eq!(status, 404);
        assert_eq!(body, r#"{"error":"no such job `99`"}"#);
        let (status, body) = server.submit("{\"problem\":\"warp\"}");
        assert_eq!(status, 400);
        assert_eq!(
            body,
            r#"{"error":"field `problem` must be one of gola, nola, tsp, partition; got `warp`"}"#
        );
    }

    #[test]
    fn cancelling_a_terminal_job_conflicts() {
        let server = JobServer::start(1, 4, None).unwrap();
        server.submit(&gola_spec(",\"instances\":1"));
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !server.get("1").1.contains("\"state\":\"done\"") {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(10));
        }
        let (status, body) = server.cancel("1");
        assert_eq!(status, 409, "{body}");
        assert_eq!(
            body,
            r#"{"error":"job 1 is already done; cancel is terminal"}"#
        );
        let (status, body) = server.cancel("notanid");
        assert_eq!(status, 404);
        assert_eq!(body, r#"{"error":"no such job `notanid`"}"#);
    }

    #[test]
    fn list_paginates_in_id_order() {
        let server = JobServer::start(1, 16, None).unwrap();
        // Saturate the single worker with a slow job so the rest stay put.
        for _ in 0..5 {
            let (status, _) = server.submit(&gola_spec(",\"instances\":1"));
            assert_eq!(status, 202);
        }
        let (_, page) = server.list("offset=1&limit=2");
        assert!(page.contains("\"total\":5"), "{page}");
        assert!(
            page.contains("\"id\":2") && page.contains("\"id\":3"),
            "{page}"
        );
        assert!(!page.contains("\"id\":4"), "{page}");
        let (status, body) = server.list("limit=0");
        assert_eq!(status, 400, "{body}");
        assert_eq!(
            body,
            r#"{"error":"bad query parameter `limit=0` (offset=N, limit=1..=500)"}"#
        );
        let (status, _) = server.list("frobnicate=1");
        assert_eq!(status, 400);
    }

    #[test]
    fn journal_replays_after_restart() {
        let dir = std::env::temp_dir().join(format!("jobs-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("restart.journal");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        {
            // Zero-progress server: workers exist but we shut down before
            // polling, so some jobs may stay queued — all must survive.
            let server = JobServer::start(1, 8, Some(path)).unwrap();
            for _ in 0..3 {
                let (status, _) = server.submit(&gola_spec(",\"instances\":1"));
                assert_eq!(status, 202);
            }
        }
        let server = JobServer::start(1, 8, Some(path)).unwrap();
        let (_, listing) = server.list("");
        assert!(listing.contains("\"total\":3"), "{listing}");
        // Every accepted job eventually completes after the restart.
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        for id in ["1", "2", "3"] {
            loop {
                let (_, body) = server.get(id);
                if body.contains("\"state\":\"done\"") {
                    break;
                }
                assert!(std::time::Instant::now() < deadline, "job {id}: {body}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        drop(server);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn journal_tolerates_a_torn_final_line() {
        let dir = std::env::temp_dir().join(format!("jobs-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.journal");
        let path = path.to_str().unwrap();
        let spec = JobSpec::parse("{\"problem\":\"gola\"}").unwrap();
        std::fs::write(
            path,
            format!(
                "{}\n{}\n{{\"seq\":2,\"job\":2,\"event\":\"submitt",
                JOURNAL.header([]),
                jsonl::sequenced(1, JournalEvent::Submitted(&spec).to_json(1)),
            ),
        )
        .unwrap();
        let (jobs, next_id, seq) = replay_journal(path).unwrap();
        assert_eq!(jobs.len(), 1, "torn line dropped");
        assert_eq!((next_id, seq), (2, 1));
        // An empty journal loads empty.
        std::fs::write(path, "").unwrap();
        let (jobs, next_id, seq) = replay_journal(path).unwrap();
        assert!(jobs.is_empty() && next_id == 1 && seq == 0);
        // Corruption before the final line is an error, not a shrug, and
        // so is a recorded result that does not parse.
        let submitted = jsonl::sequenced(1, JournalEvent::Submitted(&spec).to_json(1));
        let done = jsonl::sequenced(2, JournalEvent::Done("{\"schema\":").to_json(1));
        for bad in ["not json at all".to_string(), done.to_string()] {
            let header = JOURNAL.header([]);
            std::fs::write(path, format!("{header}\n{submitted}\n{bad}\n{{}}\n")).unwrap();
            let err = replay_journal(path).unwrap_err();
            assert!(err.contains("corrupt record at line 3"), "{err}");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn a_restart_cuts_a_torn_journal_tail_before_appending() {
        let dir = std::env::temp_dir().join(format!("jobs-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn-restart.journal");
        let path = path.to_str().unwrap();
        let spec = JobSpec::parse(&gola_spec(",\"instances\":1")).unwrap();
        let submitted = jsonl::sequenced(1, JournalEvent::Submitted(&spec).to_json(1));
        let torn = "{\"seq\":2,\"job\":1,\"event\":\"runn";
        let header = JOURNAL.header([]);
        std::fs::write(path, format!("{header}\n{submitted}\n{torn}")).unwrap();
        {
            let server = JobServer::start(1, 8, Some(path)).unwrap();
            assert_eq!(server.submit(&gola_spec(",\"instances\":1")).0, 202);
            let deadline = std::time::Instant::now() + Duration::from_secs(120);
            while server.list("").1.matches("\"state\":\"done\"").count() < 2 {
                assert!(std::time::Instant::now() < deadline, "jobs never finished");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        // The torn line is gone, so the next start reads a clean journal.
        let server = JobServer::start(1, 8, Some(path)).unwrap();
        let (_, listing) = server.list("");
        assert!(listing.contains("\"total\":2"), "{listing}");
        drop(server);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn a_restart_continues_the_journal_seq() {
        let dir = std::env::temp_dir().join(format!("jobs-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seq-restart.journal");
        let path = path.to_str().unwrap();
        // Job 1 was submitted and cancelled before the restart: terminal,
        // so the restarted server writes nothing for it.
        let spec = JobSpec::parse(&gola_spec(",\"instances\":1")).unwrap();
        let lines = [
            JOURNAL.header([]),
            jsonl::sequenced(1, JournalEvent::Submitted(&spec).to_json(1)),
            jsonl::sequenced(2, JournalEvent::Cancelled.to_json(1)),
        ];
        std::fs::write(path, lines.map(|l| format!("{l}\n")).concat()).unwrap();
        {
            let server = JobServer::start(1, 8, Some(path)).unwrap();
            assert_eq!(server.submit(&gola_spec(",\"instances\":1")).0, 202);
        }
        let text = std::fs::read_to_string(path).unwrap();
        let seqs: Vec<u64> = text
            .lines()
            .skip(1)
            .map(|line| field_u64(&Json::parse(line).unwrap(), "seq").unwrap())
            .collect();
        // The submission of job 2 is line 3, whatever its worker wrote next.
        assert_eq!(seqs[..3], [1, 2, 3], "{text}");
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{text}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn backpressure_responds_429_and_drains() {
        // No workers consuming (queue capacity 1, one slow worker blocked
        // by an artificial long job is racy — instead submit to a server
        // whose single worker is busy on a big job).
        let server = JobServer::start(1, 1, None).unwrap();
        // Big enough to keep the worker busy through the saturation check.
        let slow = "{\"problem\":\"gola\",\"instances\":64,\"seconds\":36000,\"scale\":1000000}";
        let (status, _) = server.submit(slow);
        assert_eq!(status, 202);
        // Fill the queue slot, then overflow it.
        let mut saw_429 = false;
        for _ in 0..3 {
            let (status, body) = server.submit(&gola_spec(""));
            if status == 429 {
                assert_eq!(body, r#"{"error":"queue full","capacity":1}"#);
                saw_429 = true;
                break;
            }
            assert_eq!(status, 202);
        }
        assert!(saw_429, "queue never saturated");
    }

    #[test]
    fn journal_event_lines_are_pinned() {
        let spec = JobSpec::parse("{\"problem\":\"gola\",\"seed\":3}").unwrap();
        let lines: Vec<String> = [
            JournalEvent::Submitted(&spec),
            JournalEvent::Running,
            JournalEvent::Done("{\"schema\":\"anneal-job-record\"}"),
            JournalEvent::Failed("instance 0: boom\n\"quoted\""),
            JournalEvent::Cancelled,
        ]
        .iter()
        .zip(1..)
        .map(|(event, seq)| jsonl::sequenced(seq, event.to_json(4)).to_string())
        .collect();
        assert_eq!(
            lines,
            [
                concat!(
                    r#"{"seq":1,"job":4,"event":"submitted","spec":{"problem":"gola","#,
                    r#""instances":4,"elements":15,"nets":150,"method":"sta","#,
                    r#""strategy":"figure1","seconds":6,"scale":1,"seed":3}}"#,
                ),
                r#"{"seq":2,"job":4,"event":"running"}"#,
                r#"{"seq":3,"job":4,"event":"done","record":"{\"schema\":\"anneal-job-record\"}"}"#,
                r#"{"seq":4,"job":4,"event":"failed","error":"instance 0: boom\n\"quoted\""}"#,
                r#"{"seq":5,"job":4,"event":"cancelled"}"#,
            ]
        );
    }

    mod spec_properties {
        use super::*;
        use proptest::prelude::*;
        use proptest::Strategy as PropStrategy;

        proptest! {
            // Any spec the parser accepts must round-trip through its
            // canonical serialization — the schema-stability property the
            // golden files pin from the outside.
            #[test]
            fn canonical_round_trip(
                problem in prop_oneof![
                    Just("gola"), Just("nola"), Just("tsp"), Just("partition")
                ],
                instances in 1u64..=8,
                seconds in prop_oneof![
                    Just(0.5f64), Just(1.0), Just(6.0), Just(9.5), Just(36000.0)
                ],
                scale in 1u64..=1_000_000,
                seed in any::<u64>(),
                method in prop_oneof![
                    Just("sta"), Just("metropolis"), Just("g1"), Just("two-level")
                ],
            ) {
                let body = format!(
                    "{{\"problem\":\"{problem}\",\"instances\":{instances},\
                     \"seconds\":{seconds},\"scale\":{scale},\"seed\":{seed},\
                     \"method\":\"{method}\"}}"
                );
                let spec = JobSpec::parse(&body).unwrap();
                let reparsed = JobSpec::parse(&spec.to_json().to_string()).unwrap();
                prop_assert_eq!(spec, reparsed);
            }

            #[test]
            fn out_of_range_budgets_are_rejected(
                instances in prop_oneof![Just(0u64), Just(65u64), 1000u64..=100_000],
            ) {
                let err = JobSpec::parse(
                    &format!("{{\"problem\":\"gola\",\"instances\":{instances}}}")
                ).unwrap_err();
                prop_assert!(err.contains("field `instances`"), "{}", err);
                let err = JobSpec::parse(
                    "{\"problem\":\"gola\",\"scale\":0}"
                ).unwrap_err();
                prop_assert!(err.contains("field `scale`"), "{}", err);
            }

            // Unknown fields never pass, wherever they appear (the `zz`
            // prefix guarantees the generated name is not in the schema).
            #[test]
            fn unknown_fields_are_rejected(
                name in proptest::collection::vec(0u8..26, 1..12).prop_map(|bytes| {
                    let suffix: String = bytes.iter().map(|b| (b'a' + b) as char).collect();
                    format!("zz{suffix}")
                }),
            ) {
                let err = JobSpec::parse(
                    &format!("{{\"problem\":\"gola\",\"{name}\":1}}")
                ).unwrap_err();
                prop_assert!(err.contains("unknown field"), "{}", err);
            }

            // Malformed netlists get precise 400 bodies naming the net.
            #[test]
            fn malformed_netlists_are_rejected(pin in 4u64..=4000) {
                let err = JobSpec::parse(
                    &format!(
                        "{{\"problem\":\"nola\",\"elements\":4,\"netlist\":[[0,{pin}]]}}"
                    )
                ).unwrap_err();
                prop_assert!(err.contains("invalid netlist"), "{}", err);
            }
        }
    }

    mod state_properties {
        use super::*;
        use proptest::prelude::{
            prop_assert, prop_oneof, proptest, BoxedStrategy, Just, Strategy as PropStrategy,
        };

        fn any_state() -> BoxedStrategy<JobState> {
            prop_oneof![
                Just(JobState::Queued),
                Just(JobState::Running),
                Just(JobState::Done),
                Just(JobState::Failed),
                Just(JobState::Cancelled),
            ]
            .boxed()
        }

        proptest! {
            // Terminal states absorb: no transition leaves them, ever.
            #[test]
            fn terminal_states_absorb(from in any_state(), to in any_state()) {
                if from.is_terminal() {
                    prop_assert!(!from.can_transition(to));
                }
            }

            // Every legal transition moves strictly forward: its target is
            // either running or terminal, and never queued.
            #[test]
            fn transitions_never_regress(from in any_state(), to in any_state()) {
                if from.can_transition(to) {
                    prop_assert!(to == JobState::Running || to.is_terminal());
                    prop_assert!(to != JobState::Queued);
                    prop_assert!(from != to);
                }
            }

            // A self-loop is never legal.
            #[test]
            fn no_self_loops(state in any_state()) {
                prop_assert!(!state.can_transition(state));
            }
        }
    }

    mod truncation_property {
        use super::*;
        use crate::jsonl::testing::{any_string, check_cut};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// A journal cut at any byte scans to exactly its complete lines.
            #[test]
            fn a_cut_journal_scans_to_its_complete_lines(
                record in any_string(),
                error in any_string(),
                cut in any::<u64>(),
            ) {
                let spec = JobSpec::parse("{\"problem\":\"gola\"}").expect("spec");
                let events = [
                    JournalEvent::Submitted(&spec),
                    JournalEvent::Running,
                    JournalEvent::Done(&record),
                    JournalEvent::Failed(&error),
                    JournalEvent::Cancelled,
                ];
                let lines: Vec<String> = events
                    .iter()
                    .zip(1..)
                    .map(|(event, seq)| jsonl::sequenced(seq, event.to_json(1)).to_string())
                    .collect();
                check_cut(&JOURNAL, &JOURNAL.header([]).to_string(), &lines, cut)?;
            }
        }
    }
}
