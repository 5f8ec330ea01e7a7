//! End-to-end process-supervision tests, driving the real `repro` binary:
//! process isolation reproduces thread isolation bit-for-bit, an aborting
//! worker cannot take the suite down, SIGTERM drains to a clean resumable
//! WAL, and a true hang is deadline-killed with the circuit breaker
//! skipping the rest of its table. Every degraded or interrupted run must
//! `--resume` to output byte-identical to an uninterrupted one. One worker
//! process serves a whole run, a new one replaces each that dies, and no
//! worker outlives a drained or killed supervisor.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use anneal_experiments::checkpoint::Json;
use anneal_experiments::supervisor::CellRequest;
use anneal_experiments::{checkpoint, exit_codes, CellKey, CellRecord};

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

/// Every table that records cells, at scale 2000: 215 cells, whose workers
/// look them up in six different cell lists.
const ALL_CELL_TABLES: &str =
    "--scale 2000 --seed 7 table4.1 table4.2a table4.2b table4.2c table4.2d adaptive";

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
    let workload: Vec<&str> = ALL_CELL_TABLES.split(' ').collect();
    let clean = repro().args(&workload).output().expect("spawn repro");
    assert!(clean.status.success(), "clean run failed: {clean:?}");
    let thread_wal = temp("bitwise-thread.jsonl");
    let threaded = repro()
        .args(&workload)
        .arg("--telemetry")
        .arg(&thread_wal)
        .output()
        .expect("spawn repro");
    assert!(
        threaded.status.success(),
        "thread-isolated run failed: {threaded:?}"
    );
    let reference = records_without_wall(&thread_wal);
    assert_eq!(reference.len(), 215);
    let child_tmp = temp("bitwise-tmpdir");
    std::fs::create_dir_all(&child_tmp).unwrap();
    let wal_name = wal.file_name().unwrap().to_string_lossy().into_owned();

    // Twice on the same WAL path: a rerun must not inherit the first
    // run's files.
    for run in 1..=2 {
        let out = repro()
            .args(&workload)
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
        .args(&workload)
        .arg("--resume")
        .arg(&wal)
        .output()
        .expect("spawn repro");
    assert!(resumed.status.success());
    assert_eq!(stdout_of(&clean), stdout_of(&resumed));
}

#[test]
fn progress_ticker_shows_the_running_worker() {
    let out = repro()
        .args(WORKLOAD)
        .args(["--isolation", "process", "--progress"])
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "{out:?}");
    // The ticker is redrawn in place: each `\r` starts a new line.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr
            .split('\r')
            .any(|line| line.contains("1 worker(s) live, oldest hb")),
        "no ticker line showed a live worker: {stderr}"
    );
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

    // A WAL left by an earlier run under a reused pid would already hold
    // records, and the SIGTERM below would land before the handlers exist.
    let _ = std::fs::remove_file(&wal);
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

/// The value of counter `name` in the `--metrics` snapshot at `path` (0
/// when the run never created it).
fn counter(path: &Path, name: &str) -> u64 {
    let text = std::fs::read_to_string(path).expect("metrics snapshot");
    let snapshot = Json::parse(&text).expect("snapshot parses");
    let counters = snapshot
        .get("counters")
        .and_then(Json::as_arr)
        .expect("counters");
    counters
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
        .map_or(0, |c| {
            c.get("value").expect("value").as_u64_checked().unwrap()
        })
}

#[test]
fn one_worker_serves_a_clean_run() {
    let metrics = temp("spawns.json");
    let out = repro()
        .args(["--scale", "2000", "--seed", "7", "--isolation", "process"])
        .arg("--metrics")
        .arg(&metrics)
        .args(["table4.1", "table4.2b"])
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "{out:?}");
    // 89 cells over two tables: one worker, never replaced.
    assert_eq!(counter(&metrics, "supervisor.spawns"), 1);
    assert_eq!(counter(&metrics, "supervisor.respawns"), 0);
}

#[test]
fn each_worker_death_costs_one_spawn() {
    let (wal, metrics) = (temp("deaths.jsonl"), temp("deaths.json"));
    let out = repro()
        .args(WORKLOAD)
        .args(["--isolation", "process", "--breaker-threshold", "10"])
        .args(["--faults", "seed=11,abort=0.002", "--metrics"])
        .arg(&metrics)
        .arg("--telemetry")
        .arg(&wal)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(i32::from(exit_codes::DEGRADED)));
    let cells = checkpoint::load(wal.to_str().unwrap()).unwrap().cells;
    let died = |c: &CellRecord| {
        c.failures
            .iter()
            .any(|f| f.message.contains("died on signal"))
    };
    let deaths = cells.iter().filter(|c| died(c)).count() as u64;
    assert!(deaths > 0, "no worker died");
    // A death on the last cell would need no replacement.
    assert!(!died(cells.last().unwrap()));
    assert_eq!(counter(&metrics, "supervisor.spawns"), 1 + deaths);
    assert_eq!(counter(&metrics, "supervisor.respawns"), deaths);
}

#[test]
fn a_worker_serves_requests_until_an_unlisted_key() {
    use std::io::{BufRead, BufReader, Write};
    let mut worker = repro()
        .args(["--scale", "2000", "--seed", "7", "--worker"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker");
    let mut stdin = worker.stdin.take().unwrap();
    let mut stdout = BufReader::new(worker.stdout.take().unwrap()).lines();
    let mut send = |key: CellKey| {
        let request = CellRequest {
            key,
            attempt_base: 0,
        };
        writeln!(stdin, "{}", request.to_line()).expect("request written");
    };
    // A listed cell: heartbeats, then its record.
    let listed = CellKey::new("table4.2b", "g = 1", "Figure 2");
    send(listed.clone());
    let answer = stdout
        .by_ref()
        .map(|line| line.expect("worker stdout"))
        .find(|line| !line.starts_with("{\"hb\":"))
        .expect("the worker answered");
    let record = checkpoint::record_from_json(&Json::parse(&answer).unwrap()).unwrap();
    assert_eq!(record.key, listed);
    assert!(record.ok());

    // A key no table lists: no record, and the worker exits saying so.
    send(CellKey::new("table4.2a", "g = 1", "Figure 1"));
    let rest: Vec<String> = stdout.map(|line| line.unwrap()).collect();
    assert!(rest.iter().all(|l| l.starts_with("{\"hb\":")), "{rest:?}");
    let status = worker.wait().unwrap();
    assert_eq!(status.code(), Some(i32::from(exit_codes::WORKER_NO_RECORD)));
}

/// The state and parent pid of process `pid`, from `/proc/PID/stat`.
#[cfg(target_os = "linux")]
fn stat_of(pid: u32) -> Option<(char, u32)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces and parentheses; the fields after
    // it start past the last `)`.
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace();
    let state = fields.next()?.chars().next()?;
    Some((state, fields.next()?.parse().ok()?))
}

/// The processes whose parent is `pid`, zombies included.
#[cfg(target_os = "linux")]
fn children_of(pid: u32) -> Vec<u32> {
    std::fs::read_dir("/proc")
        .expect("/proc")
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
        .filter(|&child| stat_of(child).is_some_and(|(_, parent)| parent == pid))
        .collect()
}

/// Whether `pid` is a running (not zombie) `repro --worker` process.
#[cfg(target_os = "linux")]
fn running_worker(pid: u32) -> bool {
    let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
    let is_worker = cmdline.split(|&b| b == 0).any(|arg| arg == b"--worker");
    is_worker && stat_of(pid).is_some_and(|(state, _)| !matches!(state, 'Z' | 'X'))
}

/// A process-isolated run of table 4.2(b) whose every instance sleeps
/// 5 ms (cells of about 150 ms, seconds in all), returned once its first
/// record is in `wal`, with its one worker.
#[cfg(target_os = "linux")]
fn slow_run_with_its_worker(wal: &Path) -> (std::process::Child, u32) {
    let _ = std::fs::remove_file(wal);
    let mut child = repro()
        .args(WORKLOAD)
        .args([
            "--isolation",
            "process",
            "--faults",
            "seed=7,delay=1,delay_ms=5",
        ])
        .arg("--telemetry")
        .arg(wal)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !std::fs::read_to_string(wal).is_ok_and(|t| t.contains("\"table\"")) {
        assert!(Instant::now() < deadline, "no WAL records after 30 s");
        assert!(child.try_wait().unwrap().is_none(), "the run ended early");
        std::thread::sleep(Duration::from_millis(20));
    }
    let workers = children_of(child.id());
    assert_eq!(workers.len(), 1, "one worker serves the run: {workers:?}");
    assert!(running_worker(workers[0]));
    (child, workers[0])
}

#[cfg(target_os = "linux")]
#[test]
fn a_killed_supervisor_leaves_no_worker_behind() {
    let (mut child, worker) = slow_run_with_its_worker(&temp("sigkill.jsonl"));
    child.kill().expect("SIGKILL the supervisor");
    child.wait().unwrap();
    // The orphan stops at its next heartbeat or at the end of its cell.
    let deadline = Instant::now() + Duration::from_secs(2);
    while running_worker(worker) {
        assert!(
            Instant::now() < deadline,
            "worker {worker} outlived its supervisor by 2 s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_drained_supervisor_reaps_its_worker() {
    let (child, worker) = slow_run_with_its_worker(&temp("drain-reap.jsonl"));
    let pid = child.id();
    let term = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let out = child.wait_with_output().expect("wait repro");
    assert_eq!(
        out.status.code(),
        Some(i32::from(exit_codes::for_signal(exit_codes::SIGTERM)))
    );
    // Reaped before the supervisor exited, not left to finish on its own.
    assert!(
        !running_worker(worker),
        "worker {worker} outlived the drain"
    );
}
