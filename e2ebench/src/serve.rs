//! The `jobs_mixed` workload: two closed-loop HTTP clients submitting a
//! mix of eight job specs to `repro serve`, and the traced run that splits
//! a job's latency into serving, queueing and execution.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use anneal_core::schedule::adaptive::DEFAULT_PROBE_SAMPLES;
use anneal_experiments::checkpoint::Json;
use anneal_experiments::{JobOutcome, JobServer, JobSpec};

use crate::program::{http, vm_hwm_kb, Env, Server};
use crate::report::{Outcome, Tracer};
use crate::stats::{fnv1a, median, quantile};
use crate::{golden, layers, Opts};

/// The job mix, cycled by job index: every substrate under Figure 1 with
/// the six-temperature schedule, GOLA under the other strategies and the
/// adaptive schedule, and TSP under Figure 2 with Metropolis.
const KINDS: [&str; 8] = [
    r#""problem":"gola","method":"sta","strategy":"figure1""#,
    r#""problem":"nola","method":"sta","strategy":"figure1""#,
    r#""problem":"tsp","method":"sta","strategy":"figure1""#,
    r#""problem":"partition","method":"sta","strategy":"figure1""#,
    r#""problem":"gola","method":"sta","strategy":"rejectionless""#,
    r#""problem":"gola","method":"sta","strategy":"replica-exchange""#,
    r#""problem":"gola","method":"sta","strategy":"figure1","schedule":"adaptive""#,
    r#""problem":"tsp","method":"metropolis","strategy":"figure2""#,
];

/// Indices of the Figure-1 kinds in [`KINDS`].
const FIGURE1_KINDS: [u64; 5] = [0, 1, 2, 3, 6];
/// Index of the adaptive-schedule kind in [`KINDS`].
const ADAPTIVE_KIND: u64 = 6;
/// Index of the Figure-2 kind in [`KINDS`].
const FIGURE2_KIND: u64 = 7;
/// Instances per job.
const INSTANCES: u64 = 2;
/// Concurrent closed-loop clients (the machine's core count).
const CLIENTS: u64 = 2;
/// Delay between a client's status polls.
const POLL: Duration = Duration::from_millis(2);
/// A job not done after this long counts as timed out.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Jobs whose reductions form `reduction_sum` and the golden; also the
/// batch size `wall_s` times.
const QUALITY_JOBS: u64 = 64;
/// Jobs done when the server's peak RSS is read, so that a faster server
/// holding more finished records does not read as a bigger one.
const RSS_AT_JOBS: u64 = 128;
/// Daemon set-up probes per run, besides the measured daemon.
const SETUP_PROBES: usize = 9;
/// Jobs a smoke run submits.
const SMOKE_JOBS: u64 = 16;

/// Job `index`'s spec: kind `index mod 8`, seed `seed + index`.
fn spec_json(index: u64, seed: u64) -> String {
    format!(
        "{{{},\"instances\":{INSTANCES},\"seconds\":6,\"seed\":{}}}",
        KINDS[(index % KINDS.len() as u64) as usize],
        seed.wrapping_add(index)
    )
}

/// Whether job `index` is re-executed in process and byte-compared: one
/// job in every eight, rotating through the kinds.
fn verified(index: u64) -> bool {
    index % 8 == (index / 8) % 8
}

/// One job as a client saw it.
struct JobRun {
    index: u64,
    client: u64,
    start: Instant,
    latency: Duration,
    /// Each request's start and round-trip time (traced runs only).
    requests: Vec<(Instant, Duration)>,
    /// Requests the job took.
    count: usize,
    record: Result<String, String>,
}

fn state_of(body: &str) -> Option<String> {
    Some(Json::parse(body).ok()?.get("state")?.as_str()?.to_string())
}

/// Submits job `index` and polls it until it ends.
fn run_job(addr: std::net::SocketAddr, index: u64, client: u64, seed: u64, traced: bool) -> JobRun {
    let start = Instant::now();
    let mut requests = Vec::new();
    let mut count = 0;
    let mut request = |method: &str, path: &str, body: Option<&str>| {
        let t = Instant::now();
        let result = http(addr, method, path, body);
        count += 1;
        if traced {
            requests.push((t, t.elapsed()));
        }
        result
    };
    let record = (|| {
        let (status, body) = request("POST", "/jobs", Some(&spec_json(index, seed)))?;
        if status != 202 {
            return Err(format!("POST /jobs answered {status}: {body}"));
        }
        let id = Json::parse(&body)?
            .get("id")
            .and_then(|v| v.as_u64_checked().ok())
            .ok_or("202 without a job id")?;
        loop {
            std::thread::sleep(POLL);
            let (status, body) = request("GET", &format!("/jobs/{id}"), None)?;
            if status != 200 {
                return Err(format!("GET /jobs/{id} answered {status}"));
            }
            match state_of(&body).as_deref() {
                Some("done") => {
                    // The record is the resource's last field.
                    let at = body.find(",\"record\":").ok_or("done without a record")?;
                    return Ok(body[at + 10..body.len() - 1].to_string());
                }
                Some("queued" | "running") if start.elapsed() < JOB_TIMEOUT => {}
                Some("queued" | "running") => return Err(format!("job {id} timed out")),
                other => return Err(format!("job {id} ended {other:?}: {body}")),
            }
        }
    })();
    let latency = start.elapsed();
    JobRun {
        index,
        client,
        start,
        latency,
        requests,
        count,
        record,
    }
}

/// When the clients stop submitting.
#[derive(Clone, Copy)]
enum Until {
    Elapsed(Duration),
    Jobs(u64),
}

/// Runs the closed loop against `server` until `until`; job indices come
/// from `next`, so consecutive phases continue the sequence. Returns the
/// jobs in index order and the server's peak RSS (KiB) once
/// [`RSS_AT_JOBS`] jobs were done, or at the end if fewer were.
fn closed_loop(
    server: &Server,
    seed: u64,
    until: Until,
    next: &AtomicU64,
    traced: bool,
) -> (Vec<JobRun>, u64) {
    let started = Instant::now();
    let done = AtomicU64::new(0);
    let mut rss = 0;
    let mut jobs = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let done = &done;
                s.spawn(move || {
                    let mut runs = Vec::new();
                    loop {
                        if let Until::Elapsed(d) = until {
                            if started.elapsed() >= d {
                                break;
                            }
                        }
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        if let Until::Jobs(n) = until {
                            if index >= n {
                                break;
                            }
                        }
                        runs.push(run_job(server.addr, index, client, seed, traced));
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    runs
                })
            })
            .collect();
        let mut frozen = false;
        while !clients.iter().all(|c| c.is_finished()) {
            if !frozen {
                rss = rss.max(vm_hwm_kb(server.pid()));
                frozen = done.load(Ordering::SeqCst) >= RSS_AT_JOBS;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect::<Vec<_>>()
    });
    jobs.sort_by_key(|j| j.index);
    (jobs, rss)
}

/// Counts attempts and failures of `jobs` into `out`, naming the first
/// failure.
fn check_jobs(out: &mut Outcome, jobs: &[JobRun]) {
    out.attempted += jobs.len() as u64;
    let failed: Vec<&JobRun> = jobs.iter().filter(|j| j.record.is_err()).collect();
    out.failed += failed.len() as u64;
    out.check(failed.is_empty(), "jobs done", || {
        let j = failed[0];
        format!(
            "{} of {} jobs failed; job {}: {}",
            failed.len(),
            jobs.len(),
            j.index,
            j.record.as_ref().unwrap_err()
        )
    });
}

/// A field of a served record.
fn record_f64(record: &str, key: &str) -> f64 {
    Json::parse(record)
        .ok()
        .and_then(|v| v.get(key)?.as_f64())
        .unwrap_or(0.0)
}

/// Re-executes the specs of `jobs` in process on two threads, timing each
/// `JobSpec::execute` and byte-comparing its record with the served one.
/// Returns `(index, seconds)` per job.
fn execute_in_process(out: &mut Outcome, jobs: &[&JobRun], seed: u64) -> Vec<(u64, f64)> {
    let next = AtomicU64::new(0);
    let results: Vec<(u64, f64, Result<(), String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst) as usize;
                        let Some(job) = jobs.get(k) else { break };
                        let t = Instant::now();
                        let outcome = JobSpec::parse(&spec_json(job.index, seed))
                            .map(|spec| spec.execute(&AtomicBool::new(false)));
                        let secs = t.elapsed().as_secs_f64();
                        let verdict = match (outcome, &job.record) {
                            (Ok(JobOutcome::Done { record }), Ok(served)) if record == *served => {
                                Ok(())
                            }
                            (Ok(JobOutcome::Done { .. }), Ok(_)) => Err(format!(
                                "job {}: served record differs from JobSpec::execute",
                                job.index
                            )),
                            (other, _) => {
                                Err(format!("job {}: in-process run gave {other:?}", job.index))
                            }
                        };
                        mine.push((job.index, secs, verdict));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("executor threads do not panic"))
            .collect()
    });
    let errors: Vec<&String> = results
        .iter()
        .filter_map(|(_, _, r)| r.as_ref().err())
        .collect();
    out.check(
        errors.is_empty(),
        "served record equals in-process execute",
        || format!("{} mismatches; first: {}", errors.len(), errors[0]),
    );
    results.into_iter().map(|(i, s, _)| (i, s)).collect()
}

/// Set-up probes: start and drain the daemon several times.
fn setup_probes(env: &Env, out: &mut Outcome) -> Vec<f64> {
    let mut setups = Vec::new();
    for _ in 0..SETUP_PROBES {
        match Server::start(env, &env.fresh("probe.wal")).and_then(|s| {
            let setup = s.setup;
            s.stop().map(|()| setup)
        }) {
            Ok(setup) => setups.push(setup.as_secs_f64()),
            Err(e) => out.check(false, "set-up probe", || e),
        }
    }
    setups
}

/// The end-to-end run.
pub fn e2e(env: &Env, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = setup_probes(env, &mut out);
    let server = match Server::start(env, &env.fresh("jobs.wal")) {
        Ok(server) => server,
        Err(e) => {
            out.check(false, "server start", || e);
            return out;
        }
    };
    setups.push(server.setup.as_secs_f64());
    let until = if opts.smoke {
        Until::Jobs(SMOKE_JOBS)
    } else {
        Until::Elapsed(Duration::from_secs_f64(opts.seconds))
    };
    let (jobs, rss_kb) = closed_loop(&server, opts.seed, until, &AtomicU64::new(0), false);
    if let Err(e) = server.stop() {
        out.check(false, "server drain", || e);
    }
    check_jobs(&mut out, &jobs);
    let to_verify: Vec<&JobRun> = jobs
        .iter()
        .filter(|j| verified(j.index) && j.record.is_ok())
        .collect();
    execute_in_process(&mut out, &to_verify, opts.seed);

    let quality_jobs = if opts.smoke { SMOKE_JOBS } else { QUALITY_JOBS };
    let quality: Vec<&JobRun> = jobs.iter().filter(|j| j.index < quality_jobs).collect();
    out.check(quality.len() as u64 == quality_jobs, "job count", || {
        format!(
            "only {} of the first {quality_jobs} jobs ran",
            quality.len()
        )
    });
    let lines: Vec<String> = quality
        .iter()
        .map(|j| {
            let record = j.record.as_deref().unwrap_or("");
            format!(
                "{}\t{:016x}\t{}\t{}",
                j.index,
                fnv1a(record.as_bytes()),
                record_f64(record, "reduction"),
                record_f64(record, "evals")
            )
        })
        .collect();
    if opts.seed == golden::GOLDEN_SEED && !opts.smoke {
        let header = golden::header("jobs_mixed", opts.seed, &format!("jobs={quality_jobs}"));
        let result = golden::check("jobs_mixed", &header, &lines, opts.bless);
        out.check(result.is_ok(), "golden", || result.unwrap_err());
    }

    let latencies: Vec<f64> = jobs
        .iter()
        .filter(|j| j.record.is_ok())
        .map(|j| j.latency.as_secs_f64() * 1e3)
        .collect();
    let evals: f64 = jobs
        .iter()
        .filter_map(|j| j.record.as_deref().ok())
        .map(|r| record_f64(r, "evals"))
        .sum();
    // Jobs sorted by index: a block of consecutive indices is a batch
    // of jobs a script would submit, and its wall runs from the first
    // POST to the last `done`.
    let span = |block: &[JobRun]| {
        let first = block.iter().map(|j| j.start).min();
        let last = block.iter().map(|j| j.start + j.latency).max();
        match (first, last) {
            (Some(a), Some(b)) => (b - a).as_secs_f64(),
            _ => 0.0,
        }
    };
    let blocks: Vec<f64> = jobs.chunks_exact(quality_jobs as usize).map(span).collect();
    let window = span(&jobs);
    out.set("wall_s", median(&blocks));
    out.set("evals_per_s", evals / window);
    out.set("ops_per_s", latencies.len() as f64 / window);
    out.set("latency_p50_ms", median(&latencies));
    out.set("setup_s", median(&setups));
    out.set(
        "reduction_sum",
        quality
            .iter()
            .filter_map(|j| j.record.as_deref().ok())
            .map(|r| record_f64(r, "reduction"))
            .sum(),
    );
    out.set("peak_rss_mb", rss_kb as f64 / 1024.0);
    out
}

/// Replays the job sequence through an in-process `JobServer` (two worker
/// threads, a journal) with two client threads calling `submit`/`get`.
/// Returns per-job (submit µs, queue wait ms, latency ms).
fn in_process(
    env: &Env,
    seed: u64,
    until: Until,
    next: &AtomicU64,
) -> Result<Vec<(f64, f64, f64)>, String> {
    let journal = env.fresh("inproc.wal");
    let server = JobServer::start(CLIENTS as usize, 64, Some(&journal.display().to_string()))?;
    let started = Instant::now();
    let samples = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let server = &server;
                s.spawn(move || -> Result<Vec<(f64, f64, f64)>, String> {
                    let mut mine = Vec::new();
                    loop {
                        if let Until::Elapsed(d) = until {
                            if started.elapsed() >= d {
                                break;
                            }
                        }
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        if let Until::Jobs(n) = until {
                            if index >= n {
                                break;
                            }
                        }
                        let t = Instant::now();
                        let (status, body) = server.submit(&spec_json(index, seed));
                        let submit = t.elapsed();
                        if status != 202 {
                            return Err(format!("in-process submit answered {status}: {body}"));
                        }
                        let id = Json::parse(&body)?
                            .get("id")
                            .and_then(|v| v.as_u64_checked().ok())
                            .ok_or("submit without a job id")?
                            .to_string();
                        let mut queue_wait = None;
                        loop {
                            let (_, body) = server.get(&id);
                            let state = state_of(&body);
                            if queue_wait.is_none() && state.as_deref() != Some("queued") {
                                queue_wait = Some(t.elapsed() - submit);
                            }
                            match state.as_deref() {
                                Some("done") => break,
                                Some("queued" | "running") if t.elapsed() < JOB_TIMEOUT => {
                                    std::thread::sleep(Duration::from_micros(100));
                                }
                                other => {
                                    return Err(format!("in-process job {id} ended {other:?}"))
                                }
                            }
                        }
                        mine.push((
                            submit.as_secs_f64() * 1e6,
                            queue_wait.expect("set before done").as_secs_f64() * 1e3,
                            t.elapsed().as_secs_f64() * 1e3,
                        ));
                    }
                    Ok(mine)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client threads do not panic"))
            .collect::<Result<Vec<_>, _>>()
    });
    server.shutdown();
    Ok(samples?.into_iter().flatten().collect())
}

/// The traced run: an untraced and a traced HTTP phase on one daemon, an
/// in-process replay through `JobServer`, then every traced job's spec
/// re-executed in process (timed, and byte-compared with the served record)
/// and the single-layer timings.
pub fn traced(env: &Env, opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let phase = |share: f64, smoke_jobs: u64| {
        if opts.smoke {
            Until::Jobs(smoke_jobs)
        } else {
            Until::Elapsed(Duration::from_secs_f64(opts.seconds * share))
        }
    };
    let journal = env.fresh("jobs.wal");
    let server = match Server::start(env, &journal) {
        Ok(server) => server,
        Err(e) => {
            out.check(false, "server start", || e);
            return out;
        }
    };
    let setup = server.setup.as_secs_f64();
    let next = AtomicU64::new(0);
    let (plain, _) = closed_loop(&server, opts.seed, phase(0.25, 8), &next, false);
    let phase_start = Instant::now();
    let (jobs, _) = closed_loop(&server, opts.seed, phase(0.3, SMOKE_JOBS), &next, true);
    let window = phase_start.elapsed().as_secs_f64();
    if let Err(e) = server.stop() {
        out.check(false, "server drain", || e);
    }
    check_jobs(&mut out, &plain);
    check_jobs(&mut out, &jobs);
    let submitted = plain.len() + jobs.len();
    let journal_bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);

    let inproc = match in_process(env, opts.seed, phase(0.15, 24), &next) {
        Ok(samples) => samples,
        Err(e) => {
            out.check(false, "in-process job server", || e);
            Vec::new()
        }
    };
    let done: Vec<&JobRun> = jobs.iter().filter(|j| j.record.is_ok()).collect();
    let exec: BTreeMap<u64, f64> = execute_in_process(&mut out, &done, opts.seed)
        .into_iter()
        .collect();
    layers::kernel_metrics(&mut out, opts.seed, false);

    for j in &jobs {
        tracer.push(
            format!("job {}", j.index),
            "job",
            j.client,
            j.index + 1,
            j.start,
            j.latency,
        );
        for &(at, rtt) in &j.requests {
            tracer.push("request", "ops", j.client, j.index + 1, at, rtt);
        }
    }

    let records: Vec<(u64, Json)> = done
        .iter()
        .filter_map(|j| Some((j.index, Json::parse(j.record.as_deref().ok()?).ok()?)))
        .collect();
    let field = |v: &Json, key: &str| v.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let evals_of = |kinds: &dyn Fn(u64) -> bool| {
        records
            .iter()
            .filter(|(i, _)| kinds(i % 8))
            .fold((0.0, 0.0), |(s, e), (i, v)| {
                (
                    s + exec.get(i).copied().unwrap_or(0.0),
                    e + field(v, "evals"),
                )
            })
    };
    let ns_per_eval =
        |(secs, evals): (f64, f64)| if evals > 0.0 { secs * 1e9 / evals } else { 0.0 };
    let (_, all_evals) = evals_of(&|_| true);
    let accepted: f64 = records
        .iter()
        .flat_map(|(_, v)| v.get("per_instance").and_then(Json::as_arr).unwrap_or(&[]))
        .map(|inst| field(inst, "accepted_downhill") + field(inst, "accepted_uphill"))
        .sum();
    let (_, adaptive_evals) = evals_of(&|k| k == ADAPTIVE_KIND);
    let adaptive_jobs = records
        .iter()
        .filter(|(i, _)| i % 8 == ADAPTIVE_KIND)
        .count() as f64;
    let probe_evals = adaptive_jobs * (INSTANCES * DEFAULT_PROBE_SAMPLES) as f64;

    // The split follows the clients, which are the critical path: a job's
    // latency is its requests' round trips plus the poll sleeps between
    // them. Execution runs on the server inside those round trips, so its
    // share is reported beside the split rather than in it.
    let clients = CLIENTS as f64;
    let w = setup + window;
    let ops_s = jobs
        .iter()
        .flat_map(|j| &j.requests)
        .map(|r| r.1.as_secs_f64())
        .sum::<f64>()
        / clients;
    out.set("setup.share", setup / w);
    out.set("ops.share", ops_s / w);
    out.set("unattributed_share", 1.0 - (setup + ops_s) / w);
    out.set(
        "jobs.execute_share",
        exec.values().sum::<f64>() / clients / w,
    );
    out.set("traced_wall_s", w);
    let p50 = |runs: &[JobRun]| {
        median(
            &runs
                .iter()
                .map(|j| j.latency.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    out.set(
        "trace_overhead_share",
        (p50(&jobs) - p50(&plain)) / p50(&plain),
    );

    let rtts: Vec<f64> = jobs
        .iter()
        .flat_map(|j| &j.requests)
        .map(|r| r.1.as_secs_f64() * 1e3)
        .collect();
    let col = |k: usize| {
        inproc
            .iter()
            .map(|s| [s.0, s.1, s.2][k])
            .collect::<Vec<f64>>()
    };
    let exec_ms: Vec<f64> = exec.values().map(|s| s * 1e3).collect();
    out.set("accept.acceptance_ratio", accepted / all_evals.max(1.0));
    out.set("strategy.evals", all_evals);
    out.set(
        "strategy.fig1_ns_per_eval",
        ns_per_eval(evals_of(&|k| FIGURE1_KINDS.contains(&k))),
    );
    out.set(
        "strategy.fig2_ns_per_eval",
        ns_per_eval(evals_of(&|k| k == FIGURE2_KIND)),
    );
    out.set(
        "adaptive.probe_eval_share",
        probe_evals / (probe_evals + adaptive_evals).max(1.0),
    );
    out.set("jobs.submit_us_p50", median(&col(0)));
    out.set("jobs.queue_wait_ms_p50", median(&col(1)));
    out.set("jobs.inproc_latency_ms_p50", median(&col(2)));
    out.set("jobs.execute_ms_p50", median(&exec_ms));
    out.set(
        "jobs.journal_bytes_per_job",
        journal_bytes as f64 / submitted.max(1) as f64,
    );
    out.set("ops.rtt_ms_p50", median(&rtts));
    out.set("ops.rtt_ms_p99", quantile(&rtts, 0.99));
    out.set(
        "ops.requests_per_job",
        jobs.iter().map(|j| j.count as f64).sum::<f64>() / jobs.len().max(1) as f64,
    );
    let all_latencies: Vec<f64> = plain
        .iter()
        .chain(&jobs)
        .map(|j| j.latency.as_secs_f64() * 1e3)
        .collect();
    out.set("ops.job_latency_ms_p99", quantile(&all_latencies, 0.99));
    out
}
