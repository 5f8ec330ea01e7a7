//! End-to-end crash-safety tests: a run killed mid-suite (torn WAL) and a
//! chaos run with injected panics both resume to tables bitwise-identical
//! to an uninterrupted run.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use anneal_experiments::{
    checkpoint,
    tables::{adaptive, table4_2b},
    FaultPlan, RetryPolicy, SuiteConfig, Table, TelemetryLog, WalMeta,
};

/// A WAL sink the test can inspect after the "process" dies.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn config() -> SuiteConfig {
    // Tiny budgets: table 4.2(b) is 13 g functions x 2 strategies = 26
    // cells, a few dozen evaluations each.
    SuiteConfig::scaled(2000).with_seed(7)
}

fn assert_bitwise_identical(a: &Table, b: &Table, what: &str) {
    assert_eq!(a.rows.len(), b.rows.len(), "{what}: row count");
    for ((label_a, row_a), (label_b, row_b)) in a.rows.iter().zip(&b.rows) {
        assert_eq!(label_a, label_b, "{what}: row labels");
        for (x, y) in row_a.iter().zip(row_b) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: {label_a}: {x} != {y} bitwise"
            );
        }
    }
    assert_eq!(format!("{a}"), format!("{b}"), "{what}: rendered table");
}

#[test]
fn killed_run_resumes_bitwise_identical() {
    let config = config();
    let clean = table4_2b::run_logged(&config, &TelemetryLog::in_memory());

    // First "process": streams the WAL, then dies. Simulate the kill by
    // truncating the log to its header + 10 records + half a record — the
    // torn final line a crash mid-`write` leaves behind.
    let buf = SharedBuf::default();
    let wal = TelemetryLog::with_writer(Box::new(buf.clone()));
    {
        let mut w = buf.0.lock().unwrap();
        writeln!(
            w,
            "{}",
            WalMeta::new(config.seed, config.scale.divisor).header_line()
        )
        .unwrap();
    }
    table4_2b::run_logged(&config, &wal);

    let full = buf.contents();
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), 27, "header + 26 cell records");
    let mut killed = lines[..11].join("\n");
    killed.push('\n');
    killed.push_str(&lines[11][..lines[11].len() / 2]);

    let checkpoint = checkpoint::load_str(&killed).expect("killed WAL still loads");
    assert!(checkpoint.torn, "the half-written record reads as torn");
    assert_eq!(checkpoint.cells.len(), 10);
    assert_eq!(
        checkpoint.meta,
        Some(WalMeta::new(config.seed, config.scale.divisor))
    );

    // Second "process": resumes from the torn WAL.
    let resumed_log = TelemetryLog::in_memory().with_resume(checkpoint.cells);
    let resumed = table4_2b::run_logged(&config, &resumed_log);

    assert_bitwise_identical(&clean, &resumed, "kill + resume");
    let summary = resumed_log.summary();
    assert_eq!(summary.replayed, 10, "the 10 intact cells were not re-run");
    assert_eq!(summary.cells, 26);
    assert!(!summary.degraded());
}

/// An adaptive-schedule cell carries a per-instance probe, a derived
/// schedule, and (in acceptance mode) an in-run feedback controller — the
/// whole pipeline must survive a kill + `--resume` with every f64 bit
/// intact, including the WAL-v3 temperature/target sums.
#[test]
fn killed_adaptive_run_resumes_bitwise_identical() {
    // Scale 10 keeps the budgets (150/225/300 evals) above the 128-eval
    // probe, so the resumed cells replay real controlled chains.
    let config = SuiteConfig::scaled(10).with_seed(7);
    let clean = adaptive::run_logged(&config, &TelemetryLog::in_memory());

    let buf = SharedBuf::default();
    let wal = TelemetryLog::with_writer(Box::new(buf.clone()));
    {
        let mut w = buf.0.lock().unwrap();
        writeln!(
            w,
            "{}",
            WalMeta::new(config.seed, config.scale.divisor).header_line()
        )
        .unwrap();
    }
    adaptive::run_logged(&config, &wal);

    let full = buf.contents();
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), 10, "header + 9 cell records");
    // Kill after 4 intact records plus half of the fifth.
    let mut killed = lines[..5].join("\n");
    killed.push('\n');
    killed.push_str(&lines[5][..lines[5].len() / 2]);

    let checkpoint = checkpoint::load_str(&killed).expect("killed WAL still loads");
    assert!(checkpoint.torn);
    assert_eq!(checkpoint.cells.len(), 4);
    // The adaptive cells' controller telemetry round-tripped exactly.
    let acceptance = checkpoint
        .cells
        .iter()
        .find(|c| c.key.method == "Adaptive (acceptance)")
        .expect("an acceptance-mode cell was committed before the kill");
    assert!(acceptance
        .per_temp
        .iter()
        .all(|t| t.temperature.is_finite() && t.target_acceptance.is_finite()));

    let resumed_log = TelemetryLog::in_memory().with_resume(checkpoint.cells);
    let resumed = adaptive::run_logged(&config, &resumed_log);

    assert_bitwise_identical(&clean, &resumed, "adaptive kill + resume");
    let summary = resumed_log.summary();
    assert_eq!(summary.replayed, 4, "the 4 intact cells were not re-run");
    assert_eq!(summary.cells, 9);
    assert!(!summary.degraded());
}

#[test]
fn chaos_run_with_retries_matches_clean_run() {
    let config = config().with_retry(RetryPolicy::new(6, Duration::ZERO));
    let clean = table4_2b::run_logged(&config, &TelemetryLog::in_memory());

    let plan = FaultPlan::parse("seed=11,panic=0.2").unwrap();
    let chaos_log = TelemetryLog::in_memory().with_faults(Some(plan));
    let chaos = table4_2b::run_logged(&config, &chaos_log);

    let summary = chaos_log.summary();
    assert!(!summary.degraded(), "retries absorbed every injected panic");
    assert!(
        chaos_log.records().iter().any(|r| r.attempts > 1),
        "the fault plan injected at least one panic"
    );
    assert_bitwise_identical(&clean, &chaos, "chaos + retries");
}

#[test]
fn degraded_chaos_run_resumes_to_the_clean_tables() {
    let config = config();
    let clean = table4_2b::run_logged(&config, &TelemetryLog::in_memory());

    // No retries: some cells fail outright and the run is degraded.
    let plan = FaultPlan::parse("seed=3,panic=0.15").unwrap();
    let buf = SharedBuf::default();
    writeln!(
        buf.0.lock().unwrap(),
        "{}",
        WalMeta::new(config.seed, config.scale.divisor).header_line()
    )
    .unwrap();
    let chaos_log = TelemetryLog::with_writer(Box::new(buf.clone())).with_faults(Some(plan));
    table4_2b::run_logged(&config, &chaos_log);
    let summary = chaos_log.summary();
    assert!(
        summary.degraded(),
        "without retries the injected panics stick"
    );
    assert!(!summary.failed.is_empty());

    // Resume replays only the cells that succeeded; failed ones re-run
    // clean (no fault plan — the chaos monkey died with the process).
    let checkpoint = checkpoint::load_str(buf.contents()).expect("chaos WAL loads");
    assert!(!checkpoint.torn);
    let resumed_log = TelemetryLog::in_memory().with_resume(checkpoint.cells);
    let resumed = table4_2b::run_logged(&config, &resumed_log);

    let resumed_summary = resumed_log.summary();
    assert!(!resumed_summary.degraded(), "the resume healed the suite");
    assert_eq!(
        resumed_summary.replayed,
        26 - summary.failed.len(),
        "only the failed cells were re-run"
    );
    assert_bitwise_identical(&clean, &resumed, "degraded chaos + resume");
}

/// A WAL from before the current version is a runtime error, not a usage
/// error: `report` names the version and prints no usage text.
#[test]
fn report_refuses_an_older_wal_without_the_usage_text() {
    let wal = std::env::temp_dir().join(format!("anneal-resume-v3-{}", std::process::id()));
    let header = "{\"wal\":\"anneal-repro-wal\",\"version\":3,\"seed\":7,\"scale\":2000}";
    std::fs::write(&wal, format!("{header}\n")).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("--wal")
        .arg(&wal)
        .output()
        .expect("run report");
    std::fs::remove_file(&wal).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("version 3"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

/// A WAL record whose `wall_ms` is `null` (it loads as NaN) resumes like
/// any other: the summary still ranks the slowest cells, and the run exits
/// 0 with the clean tables.
#[test]
fn a_null_wall_time_in_the_wal_resumes_cleanly() {
    let wal = std::env::temp_dir().join(format!("anneal-resume-null-{}", std::process::id()));
    let repro = || std::process::Command::new(env!("CARGO_BIN_EXE_repro"));
    let workload = ["--scale", "2000", "--seed", "7", "table4.2b"];
    let clean = repro()
        .args(workload)
        .arg("--telemetry")
        .arg(&wal)
        .output()
        .expect("run repro");
    assert!(clean.status.success(), "{clean:?}");

    let text = std::fs::read_to_string(&wal).expect("WAL written");
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let record = &lines[1];
    let start = record.find("\"wall_ms\":").expect("a wall time") + "\"wall_ms\":".len();
    let end = start + record[start..].find(',').expect("more members follow");
    lines[1] = format!("{}null{}", &record[..start], &record[end..]);
    std::fs::write(&wal, lines.join("\n") + "\n").unwrap();

    let resumed = repro()
        .args(workload)
        .arg("--resume")
        .arg(&wal)
        .output()
        .expect("run repro");
    std::fs::remove_file(&wal).ok();
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(0), "{stderr}");
    assert_eq!(resumed.stdout, clean.stdout);
    assert!(
        stderr.contains("26 cells replayed from the WAL"),
        "{stderr}"
    );
}
