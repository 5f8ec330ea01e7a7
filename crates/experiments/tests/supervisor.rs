//! End-to-end process-supervision tests, driving the real `repro` binary:
//! process isolation reproduces thread isolation bit-for-bit, an aborting
//! worker cannot take the suite down, SIGTERM drains to a clean resumable
//! WAL, and a true hang is deadline-killed with the circuit breaker
//! skipping the rest of its table. Every degraded or interrupted run must
//! `--resume` to output byte-identical to an uninterrupted one.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use anneal_experiments::{checkpoint, exit_codes, CellRecord};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A temp path namespaced per test, so parallel tests never collide.
fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("anneal-sup-{}-{name}", std::process::id()))
}

fn stdout_of(out: &Output) -> &str {
    std::str::from_utf8(&out.stdout).expect("utf8 stdout")
}

/// The canonical tiny workload: table 4.2(b) at scale 2000 (26 cells,
/// well under a second), same as CI's chaos smoke.
const WORKLOAD: [&str; 5] = ["--scale", "2000", "--seed", "7", "table4.2b"];

fn clean_run() -> Output {
    let out = repro().args(WORKLOAD).output().expect("spawn repro");
    assert!(out.status.success(), "clean run failed: {out:?}");
    out
}

/// The WAL's cell records with their wall-clock fields zeroed: the only
/// fields two runs of the same cells may disagree on.
fn records_without_wall(wal: &Path) -> Vec<CellRecord> {
    let mut cells = checkpoint::load(wal.to_str().unwrap())
        .expect("WAL loads")
        .cells;
    for cell in &mut cells {
        cell.wall_ms = 0.0;
        for row in &mut cell.per_instance {
            row.wall_ms = 0.0;
        }
    }
    cells
}

#[test]
fn process_isolation_matches_thread_isolation_bitwise() {
    let wal = temp("bitwise.jsonl");
    let clean = clean_run();
    let thread_wal = temp("bitwise-thread.jsonl");
    let threaded = repro()
        .args(WORKLOAD)
        .arg("--telemetry")
        .arg(&thread_wal)
        .output()
        .expect("spawn repro");
    assert!(
        threaded.status.success(),
        "thread-isolated run failed: {threaded:?}"
    );
    let reference = records_without_wall(&thread_wal);
    assert_eq!(reference.len(), 26);
    let child_tmp = temp("bitwise-tmpdir");
    std::fs::create_dir_all(&child_tmp).unwrap();
    let wal_name = wal.file_name().unwrap().to_string_lossy().into_owned();

    // Twice on the same WAL path: a rerun must not inherit the first
    // run's files.
    for run in 1..=2 {
        let out = repro()
            .args(WORKLOAD)
            .args(["--isolation", "process", "--telemetry"])
            .arg(&wal)
            .env("TMPDIR", &child_tmp)
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "process-isolated run {run} failed: {out:?}"
        );
        assert_eq!(
            stdout_of(&clean),
            stdout_of(&out),
            "process isolation changed the tables (run {run})"
        );
        // Every record the parent took from a worker's stdout is the
        // thread-isolated record, wall-clock fields aside.
        assert_eq!(
            records_without_wall(&wal),
            reference,
            "process-isolated WAL != thread-isolated WAL (run {run})"
        );
        // Workers hand their records back on a pipe: no shard files next
        // to the WAL, nothing at all in the children's TMPDIR.
        let shards: Vec<String> = std::fs::read_dir(wal.parent().unwrap())
            .unwrap()
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with(&wal_name) && name.contains(".shard."))
            .collect();
        assert!(shards.is_empty(), "shards next to the WAL: {shards:?}");
        let leftovers: Vec<_> = std::fs::read_dir(&child_tmp).unwrap().collect();
        assert!(leftovers.is_empty(), "files left in TMPDIR: {leftovers:?}");
    }

    // And the WAL resumes to identical output without re-running anything.
    let resumed = repro()
        .args(WORKLOAD)
        .arg("--resume")
        .arg(&wal)
        .output()
        .expect("spawn repro");
    assert!(resumed.status.success());
    assert_eq!(stdout_of(&clean), stdout_of(&resumed));
}

#[test]
fn aborting_worker_does_not_take_the_suite_down() {
    let wal = temp("abort.jsonl");
    let clean = clean_run();
    // seed=11, abort=0.002: two workers die on SIGABRT (verified stable —
    // fault decisions are a pure function of seed × cell × instance ×
    // attempt). No retries, so they become hard failures; a high breaker
    // threshold keeps the breaker out of this test.
    let out = repro()
        .args(WORKLOAD)
        .args([
            "--isolation",
            "process",
            "--breaker-threshold",
            "10",
            "--faults",
            "seed=11,abort=0.002",
            "--telemetry",
        ])
        .arg(&wal)
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(i32::from(exit_codes::DEGRADED)),
        "suite must complete degraded, not die: {out:?}"
    );
    // The suite still printed its table: the aborts were contained.
    assert!(stdout_of(&out).contains("Table 4.2(b)"), "no table printed");

    let manifest_path = format!("{}.manifest.json", wal.display());
    let manifest = std::fs::read_to_string(&manifest_path).expect("failure manifest");
    assert!(
        manifest.contains("worker died on signal 6"),
        "manifest does not name the SIGABRT: {manifest}"
    );

    // The failed cells re-run on resume; everything else replays. The
    // final output is byte-identical to a never-faulted run.
    let resumed = repro()
        .args(WORKLOAD)
        .arg("--resume")
        .arg(&wal)
        .output()
        .expect("spawn repro");
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    assert_eq!(stdout_of(&clean), stdout_of(&resumed));
}

#[test]
fn sigterm_drains_to_a_clean_resumable_wal() {
    let wal = temp("sigterm.jsonl");
    // Scale 200 is slow enough (seconds) to reliably signal mid-suite.
    let workload = ["--scale", "200", "--seed", "7", "table4.2b"];
    let clean = repro().args(workload).output().expect("spawn repro");
    assert!(clean.status.success());

    let mut child = repro()
        .args(workload)
        .args(["--isolation", "process", "--telemetry"])
        .arg(&wal)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn repro");
    // Wait until at least one record is durably in the WAL, then SIGTERM.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let records = std::fs::read_to_string(&wal)
            .map(|t| t.lines().filter(|l| l.contains("\"table\"")).count())
            .unwrap_or(0);
        if records >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no WAL records after 30 s");
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "suite finished before it could be interrupted; slow the workload down"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let out = child.wait_with_output().expect("wait repro");
    assert_eq!(
        out.status.code(),
        Some(i32::from(exit_codes::for_signal(exit_codes::SIGTERM))),
        "drained run must exit 143: {out:?}"
    );
    // Drained: no partial tables on stdout.
    assert!(out.stdout.is_empty(), "a partial table leaked to stdout");

    // The WAL is clean (no torn records), holds only completed cells,
    // and records the drain.
    let cp = checkpoint::load(wal.to_str().unwrap()).expect("drained WAL loads");
    assert!(!cp.torn, "drained WAL ends in a torn record");
    assert!(!cp.cells.is_empty() && cp.cells.iter().all(|c| c.ok()));
    assert!(
        cp.events.iter().any(|e| e.kind == "drain"),
        "no drain event in {:?}",
        cp.events
    );

    let resumed = repro()
        .args(workload)
        .arg("--resume")
        .arg(&wal)
        .output()
        .expect("spawn repro");
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    assert_eq!(
        stdout_of(&clean),
        stdout_of(&resumed),
        "drain + resume diverged from an uninterrupted run"
    );
}

#[test]
fn hung_worker_is_deadline_killed_and_the_breaker_skips_its_table() {
    let wal = temp("hang.jsonl");
    let clean = clean_run();
    // Every instance wedges for 5 s — far past the worker deadline
    // (20 ms × 30 instances + 1 s headroom). The in-process watchdog
    // cannot catch a sleep; only the supervisor's wall-clock SIGKILL can.
    // Breaker threshold 1: the first hard failure opens the breaker and
    // the other 25 cells are skipped instead of hanging in turn.
    let started = Instant::now();
    let out = repro()
        .args(WORKLOAD)
        .args([
            "--isolation",
            "process",
            "--watchdog-ms",
            "20",
            "--breaker-threshold",
            "1",
            "--faults",
            "seed=3,hang=1,hang_ms=5000",
            "--telemetry",
        ])
        .arg(&wal)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(i32::from(exit_codes::DEGRADED)));
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "the breaker did not bound the damage"
    );

    let wal_text = std::fs::read_to_string(&wal).unwrap();
    assert!(
        wal_text.contains("deadline"),
        "no deadline kill recorded: {wal_text}"
    );
    assert!(
        wal_text.contains("circuit breaker open"),
        "breaker did not skip the rest of the table"
    );
    let cp = checkpoint::load(wal.to_str().unwrap()).unwrap();
    assert!(cp.events.iter().any(|e| e.kind == "breaker"));

    // A resume without the fault heals the whole table.
    let resumed = repro()
        .args(WORKLOAD)
        .arg("--resume")
        .arg(&wal)
        .output()
        .expect("spawn repro");
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    assert_eq!(stdout_of(&clean), stdout_of(&resumed));
}
