//! End-to-end tests for the annealing job server: `repro serve` driven
//! over real HTTP by multiple client threads, queue saturation and 429
//! backpressure, mid-run cancellation, crash-and-restart journal replay,
//! and the determinism contract — a served job's result record is
//! byte-identical to running the same spec offline via `repro job`.

mod common;

use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use anneal_core::json::Json;
use common::http::{
    body_of, finish, http_delete, http_get, http_post, poll_until, repro, spawn_serving_args,
};

/// Spawns `repro serve 127.0.0.1:0 <extra>` and returns the child plus
/// the bound address.
fn spawn_server(extra: &[&str]) -> (Child, String) {
    let mut args = vec!["serve", "127.0.0.1:0"];
    args.extend_from_slice(extra);
    spawn_serving_args(&args)
}

/// A quick deterministic GOLA job (a few hundred evaluations total).
fn quick_spec(seed: u64) -> String {
    format!(
        "{{\"problem\":\"gola\",\"instances\":2,\"elements\":8,\"nets\":20,\
         \"seconds\":6,\"scale\":2000,\"seed\":{seed}}}"
    )
}

/// A job slow enough overall (~10M evaluations) to still be running while
/// the test pokes at it, split into many short instances so cooperative
/// cancellation and SIGTERM drain land at the next instance boundary
/// within seconds, not minutes.
fn slow_spec() -> &'static str {
    "{\"problem\":\"gola\",\"instances\":64,\"seconds\":600}"
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("anneal-jobs-it-{tag}-{}", std::process::id()))
}

/// Polls `GET /jobs/:id` until the job reaches `state` (panicking on a
/// terminal mismatch), returning the final body.
fn wait_for_state(addr: &str, id: u64, state: &str) -> String {
    let want = format!("\"state\":\"{state}\"");
    let (_, response) = poll_until(addr, &format!("/jobs/{id}"), |s, b| {
        assert_eq!(s, 200, "{b}");
        if !b.contains(&want) {
            for terminal in ["done", "failed", "cancelled"] {
                assert!(
                    state == terminal || !b.contains(&format!("\"state\":\"{terminal}\"")),
                    "job {id} ended {terminal} while waiting for {state}:\n{b}"
                );
            }
        }
        b.contains(&want)
    });
    body_of(&response).to_string()
}

/// The `id` of a job resource body (`{"id":N,...}`).
fn job_id(body: &str) -> u64 {
    let id = Json::parse(body)
        .ok()
        .and_then(|job| job.get("id")?.as_u64_checked().ok());
    id.unwrap_or_else(|| panic!("no id in {body}"))
}

/// Extracts the raw `record` object from a done job's resource body — the
/// record is pinned as the last field, so it is the tail of the JSON.
fn record_of(body: &str) -> &str {
    let idx = body
        .find("\"record\":")
        .unwrap_or_else(|| panic!("no record in {body}"));
    let record = &body[idx + "\"record\":".len()..body.len() - 1];
    assert!(
        record.starts_with("{\"schema\":\"anneal-job-record\""),
        "{record}"
    );
    record
}

#[test]
fn concurrent_clients_all_get_distinct_jobs_that_complete() {
    let (child, addr) = spawn_server(&["--queue", "16", "--job-threads", "2"]);

    // Six client threads race their submissions.
    let ids: Vec<u64> = std::thread::scope(|scope| {
        let addr = addr.as_str();
        let handles: Vec<_> = (0..6)
            .map(|i| {
                scope.spawn(move || {
                    let (status, response) = http_post(addr, "/jobs", &quick_spec(100 + i));
                    assert_eq!(status, 202, "{response}");
                    job_id(body_of(&response))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Distinct ids, no lost submissions.
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 6, "duplicate ids: {ids:?}");

    for id in &ids {
        wait_for_state(&addr, *id, "done");
    }

    let (status, listing) = http_get(&addr, "/jobs");
    assert_eq!(status, 200);
    assert!(listing.contains("\"total\":6"), "{listing}");

    // Pagination slices the same id-ordered listing.
    let (_, page) = http_get(&addr, "/jobs?offset=4&limit=2");
    let page = body_of(&page);
    assert!(
        page.contains("\"id\":5") && page.contains("\"id\":6"),
        "{page}"
    );
    assert!(!page.contains("\"id\":4"), "{page}");

    // The job gauges and wall-time spans made it onto the exposition.
    let (_, metrics) = http_get(&addr, "/metrics");
    assert!(
        metrics.contains("jobs_state{state=\"done\"} 6"),
        "{metrics}"
    );
    assert!(
        metrics.contains("jobs_state{state=\"queued\"} 0"),
        "{metrics}"
    );
    assert!(
        metrics.contains("job_wall_us_sum{problem=\"gola\"}"),
        "{metrics}"
    );
    assert!(metrics.contains("jobs_submitted 6"), "{metrics}");

    finish(child);
}

#[test]
fn saturated_queue_answers_429_until_drained() {
    let (child, addr) = spawn_server(&["--queue", "1", "--job-threads", "1"]);

    // Occupy the single worker with a slow job...
    let (status, response) = http_post(&addr, "/jobs", slow_spec());
    assert_eq!(status, 202, "{response}");

    // ...then flood: the one queue slot fills and everything after it must
    // bounce with 429 and the advertised capacity. (Whether the worker has
    // already popped the slow job decides if one quick job squeezes in
    // first, so count the 202s instead of assuming.)
    let mut accepted = 1;
    let mut saw_429 = false;
    for _ in 0..4 {
        let (status, response) = http_post(&addr, "/jobs", &quick_spec(1));
        if status == 429 {
            let body = body_of(&response);
            assert!(body.contains("queue full"), "{body}");
            assert!(body.contains("\"capacity\":1"), "{body}");
            saw_429 = true;
            break;
        }
        assert_eq!(status, 202, "{response}");
        accepted += 1;
    }
    assert!(saw_429, "queue never saturated");

    // Rejected submissions leave no ghost jobs behind: every listed job is
    // one that got a 202.
    let (_, listing) = http_get(&addr, "/jobs");
    assert!(
        listing.contains(&format!("\"total\":{accepted}")),
        "{listing}"
    );

    finish(child);
}

#[test]
fn a_running_job_cancels_at_the_next_instance_boundary() {
    let (child, addr) = spawn_server(&["--queue", "4", "--job-threads", "1"]);

    // Eight slow instances: cancellation lands at an instance boundary.
    let (status, response) = http_post(&addr, "/jobs", slow_spec());
    assert_eq!(status, 202, "{response}");
    let id = job_id(body_of(&response));
    wait_for_state(&addr, id, "running");

    let (status, response) = http_delete(&addr, &format!("/jobs/{id}"));
    assert_eq!(status, 202, "{response}");
    assert!(
        body_of(&response).contains("\"cancel_requested\":true"),
        "{response}"
    );

    let body = wait_for_state(&addr, id, "cancelled");
    assert!(
        !body.contains("\"record\""),
        "cancelled jobs have no record: {body}"
    );

    // Cancel is terminal: a second DELETE conflicts.
    let (status, response) = http_delete(&addr, &format!("/jobs/{id}"));
    assert_eq!(status, 409, "{response}");
    assert!(
        body_of(&response).contains("cancel is terminal"),
        "{response}"
    );

    // A queued job cancels immediately (the worker is still busy... with
    // nothing now, so race-proof this by submitting two: the first may
    // start, the second sits queued behind it).
    let (_, first) = http_post(&addr, "/jobs", slow_spec());
    let first_id = job_id(body_of(&first));
    let (_, second) = http_post(&addr, "/jobs", &quick_spec(2));
    let second_id = job_id(body_of(&second));
    let (status, response) = http_delete(&addr, &format!("/jobs/{second_id}"));
    assert!(status == 200 || status == 202, "{response}");
    wait_for_state(&addr, second_id, "cancelled");
    let (status, _) = http_delete(&addr, &format!("/jobs/{first_id}"));
    assert!(status == 200 || status == 202);

    finish(child);
}

#[test]
fn killing_the_server_mid_queue_loses_no_accepted_job() {
    let journal = temp_path("restart");
    let journal_str = journal.to_str().unwrap();
    let _ = std::fs::remove_file(&journal);

    // One worker: the first job holds it for a few seconds, so the quick
    // ones behind it are still queued when the server dies hard.
    let (child, addr) = spawn_server(&[
        "--queue",
        "8",
        "--job-threads",
        "1",
        "--journal",
        journal_str,
    ]);
    let mut ids = Vec::new();
    let (status, response) = http_post(
        &addr,
        "/jobs",
        "{\"problem\":\"gola\",\"instances\":4,\"seconds\":3600}",
    );
    assert_eq!(status, 202, "{response}");
    ids.push(job_id(body_of(&response)));
    for seed in [12u64, 13, 14] {
        let (status, response) = http_post(&addr, "/jobs", &quick_spec(seed));
        assert_eq!(status, 202, "{response}");
        ids.push(job_id(body_of(&response)));
    }
    // SIGKILL: no drain, no goodbye — the journal is all that survives.
    finish(child);

    let (child, addr) = spawn_server(&[
        "--queue",
        "8",
        "--job-threads",
        "2",
        "--journal",
        journal_str,
    ]);
    let (status, listing) = http_get(&addr, "/jobs");
    assert_eq!(status, 200);
    assert!(
        listing.contains("\"total\":4"),
        "accepted jobs lost across restart:\n{listing}"
    );
    // Every accepted job reaches done after the restart.
    for id in &ids {
        wait_for_state(&addr, *id, "done");
    }
    finish(child);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn served_record_is_byte_identical_to_offline_repro_job() {
    // Two problem families through the full stack: HTTP submission on one
    // side, `repro job SPEC.json` on the other. Identical bytes prove the
    // seed streams, budget mapping and f64 formatting all agree.
    let specs = [
        "{\"problem\":\"gola\",\"instances\":2,\"elements\":8,\"nets\":20,\
         \"seconds\":6,\"scale\":5,\"seed\":7}"
            .to_string(),
        "{\"problem\":\"tsp\",\"cities\":10,\"instances\":2,\"seconds\":6,\
         \"scale\":5,\"seed\":42}"
            .to_string(),
    ];
    let (child, addr) = spawn_server(&["--queue", "4", "--job-threads", "1"]);
    for (i, spec) in specs.iter().enumerate() {
        let (status, response) = http_post(&addr, "/jobs", spec);
        assert_eq!(status, 202, "{response}");
        let id = job_id(body_of(&response));
        let body = wait_for_state(&addr, id, "done");
        let served = record_of(&body).to_string();

        let spec_path = temp_path(&format!("det-{i}"));
        std::fs::write(&spec_path, spec).unwrap();
        let out = repro()
            .args(["job", spec_path.to_str().unwrap()])
            .output()
            .expect("run repro job");
        let _ = std::fs::remove_file(&spec_path);
        assert!(
            out.status.success(),
            "repro job failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let offline = String::from_utf8(out.stdout).unwrap();
        assert_eq!(
            served,
            offline.trim_end_matches('\n'),
            "served record and offline `repro job` record differ for spec {spec}"
        );
    }
    finish(child);
}

#[test]
fn two_hundred_element_job_records_are_pinned() {
    // 200 positions take four mask words per net of the NOLA job; the GOLA
    // job scores on pair counts. The bytes were produced by the
    // apply/cost/undo chains on masks that evaluate-first scoring replaced.
    let jobs = [
        (
            "{\"problem\":\"gola\",\"instances\":1,\"elements\":200,\"nets\":2000,\
             \"seconds\":600,\"scale\":10,\"seed\":7}",
            concat!(
                r#"{"schema":"anneal-job-record","version":1,"spec":{"problem":"gola","#,
                r#""instances":1,"elements":200,"nets":2000,"method":"sta","#,
                r#""strategy":"figure1","seconds":600,"scale":10,"seed":7},"#,
                r#""budget":"15000 evals","reduction":132,"evals":15000,"#,
                r#""per_instance":[{"instance":0,"seed":8720256995075900482,"#,
                r#""initial":1031,"best":899,"final":933,"reduction":132,"evals":15000,"#,
                r#""stop":"budget","accepted_downhill":2525,"accepted_uphill":10118,"#,
                r#""rejected_uphill":2357}]}"#,
            ),
        ),
        (
            "{\"problem\":\"nola\",\"instances\":1,\"elements\":200,\"nets\":2000,\
             \"seconds\":600,\"scale\":10,\"seed\":7}",
            concat!(
                r#"{"schema":"anneal-job-record","version":1,"spec":{"problem":"nola","#,
                r#""instances":1,"elements":200,"nets":2000,"method":"sta","#,
                r#""strategy":"figure1","seconds":600,"scale":10,"seed":7},"#,
                r#""budget":"15000 evals","reduction":71,"evals":15000,"#,
                r#""per_instance":[{"instance":0,"seed":8720256995075900482,"#,
                r#""initial":1805,"best":1734,"final":1776,"reduction":71,"evals":15000,"#,
                r#""stop":"budget","accepted_downhill":2717,"accepted_uphill":10864,"#,
                r#""rejected_uphill":1419}]}"#,
            ),
        ),
    ];
    for (i, (spec, expected)) in jobs.into_iter().enumerate() {
        let spec_path = temp_path(&format!("pin200-{i}"));
        std::fs::write(&spec_path, spec).unwrap();
        let out = repro()
            .args(["job", spec_path.to_str().unwrap()])
            .output()
            .expect("run repro job");
        let _ = std::fs::remove_file(&spec_path);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            format!("{expected}\n")
        );
    }
}

#[test]
fn invalid_specs_get_precise_400_bodies_over_http() {
    let (child, addr) = spawn_server(&[]);
    for (spec, needle) in [
        ("{", "invalid JSON"),
        (
            "{\"problem\":\"sudoku\"}",
            "one of gola, nola, tsp, partition",
        ),
        (
            "{\"problem\":\"gola\",\"frobnicate\":1}",
            "unknown field `frobnicate`",
        ),
        (
            "{\"problem\":\"gola\",\"seconds\":-1}",
            "field `seconds` must be in",
        ),
        (
            "{\"problem\":\"gola\",\"elements\":4,\"netlist\":[[0,7]]}",
            "invalid netlist",
        ),
        (
            "{\"problem\":\"nola\",\"elements\":5,\"instances\":1,\"scale\":2000}",
            "field `elements` must be at least 10",
        ),
    ] {
        let (status, response) = http_post(&addr, "/jobs", spec);
        assert_eq!(status, 400, "{spec}: {response}");
        let body = body_of(&response);
        assert!(body.contains(needle), "{spec}: {body}");
    }
    // Unknown ids and bad pagination are client errors, not crashes.
    let (status, _) = http_get(&addr, "/jobs/999");
    assert_eq!(status, 404);
    let (status, _) = http_get(&addr, "/jobs?limit=99999");
    assert_eq!(status, 400);
    // So is a body nested past the parser's depth limit: it is refused
    // before it can overflow a handler's stack, and the server keeps
    // serving.
    let (status, response) = http_post(&addr, "/jobs", &"[".repeat(10_000));
    assert_eq!(status, 400, "{response}");
    assert!(body_of(&response).contains("deeper than 128"), "{response}");
    let (status, response) = http_get(&addr, "/healthz");
    assert_eq!(status, 200, "{response}");
    finish(child);
}

/// The `/jobs` wire schemas are pinned byte-for-byte: job records are
/// deterministic (fixed seeds, no wall-clock fields), so the full
/// response bodies — a done job resource with its embedded record, and
/// the paginated listing — are stable across runs and platforms. Any
/// schema change must regenerate with `UPDATE_GOLDEN=1` and be called out
/// in EXPERIMENTS.md.
#[test]
fn jobs_response_schema_matches_the_golden_file() {
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/jobs.txt");
    let (child, addr) = spawn_server(&["--queue", "4", "--job-threads", "1"]);
    let (status, response) = http_post(&addr, "/jobs", &quick_spec(7));
    assert_eq!(status, 202, "{response}");
    let id = job_id(body_of(&response));
    let job_body = wait_for_state(&addr, id, "done");
    let (_, listing) = http_get(&addr, "/jobs?offset=0&limit=10");
    let listing_body = body_of(&listing).to_string();
    finish(child);

    let text = format!("{job_body}\n{listing_body}\n");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            golden_path.display()
        )
    });
    assert_eq!(
        text, golden,
        "/jobs responses drifted from the golden schema; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and document the format change"
    );
}

#[test]
fn repro_job_exits_5_on_a_failed_or_cancelled_job() {
    // A netlist passing parse but degenerate at run time is hard to build
    // by design (parsing validates); instead check the usage surface.
    let out = repro().args(["job"]).output().expect("run repro");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("needs a SPEC"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let missing = temp_path("missing").to_str().unwrap().to_string();
    let out = repro().args(["job", &missing]).output().expect("run repro");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot read job spec"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn sigterm_drains_the_server_and_preserves_queued_jobs() {
    let journal = temp_path("drain");
    let journal_str = journal.to_str().unwrap();
    let _ = std::fs::remove_file(&journal);
    let (mut child, addr) = spawn_server(&[
        "--queue",
        "8",
        "--job-threads",
        "1",
        "--journal",
        journal_str,
    ]);

    // A slow job holds the worker; quick ones queue up behind it.
    let (status, _) = http_post(&addr, "/jobs", slow_spec());
    assert_eq!(status, 202);
    for seed in [21u64, 22] {
        let (status, _) = http_post(&addr, "/jobs", &quick_spec(seed));
        assert_eq!(status, 202);
    }

    // SIGTERM: graceful drain, exit 143 (128 + 15).
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        match child.try_wait().expect("wait repro") {
            Some(status) => break status,
            None => {
                assert!(
                    Instant::now() < deadline,
                    "server never exited after SIGTERM"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    assert_eq!(status.code(), Some(143), "expected 128+SIGTERM");

    // Restart: the drained-but-unfinished jobs are still accepted work.
    let (child, addr) = spawn_server(&[
        "--queue",
        "8",
        "--job-threads",
        "2",
        "--journal",
        journal_str,
    ]);
    let (_, listing) = http_get(&addr, "/jobs");
    assert!(listing.contains("\"total\":3"), "{listing}");
    wait_for_state(&addr, 2, "done");
    wait_for_state(&addr, 3, "done");
    finish(child);
    let _ = std::fs::remove_file(&journal);
}
