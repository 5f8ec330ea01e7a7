//! End-to-end observability tests: the trace JSONL schema pinned by a
//! golden file, traced-vs-untraced bitwise identity on a real table, and
//! chaos compatibility.

use std::path::PathBuf;
use std::time::Duration;

use anneal_core::{
    AdvanceReason, Annealer, Budget, ChainTrace, GFunction, StageTrace, StopReason, StopTrace,
    Strategy, TempStats, TraceCollector,
};
use anneal_experiments::{
    tables::table4_2b, trace, CellKey, FaultPlan, SuiteConfig, Table, TelemetryLog, TraceSink,
};
use anneal_linarr::LinearArrangementProblem;
use anneal_netlist::generator::random_two_pin;
use rand::{rngs::StdRng, SeedableRng};

/// A fully pinned chain trace: every field fixed, both stage-end reasons
/// exercised, a millisecond-exact wall time.
fn pinned_trace() -> ChainTrace {
    ChainTrace {
        initial_cost: 100.0,
        temperatures: 2,
        stages: vec![
            StageTrace {
                stats: TempStats {
                    temp: 0,
                    temperature: 2.0,
                    target_acceptance: 0.8,
                    evals: 10,
                    proposals: 10,
                    accepted_downhill: 3,
                    accepted_uphill: 2,
                    rejected_uphill: 5,
                    swap_attempts: 2,
                    swap_accepts: 1,
                    ended_by: AdvanceReason::Budget,
                },
                wall: Duration::from_millis(4),
            },
            StageTrace {
                stats: TempStats {
                    temp: 1,
                    // NaN pins the null-serialization path for stages with
                    // no controller target.
                    temperature: 0.5,
                    target_acceptance: f64::NAN,
                    evals: 6,
                    proposals: 6,
                    accepted_downhill: 1,
                    accepted_uphill: 0,
                    rejected_uphill: 5,
                    swap_attempts: 0,
                    swap_accepts: 0,
                    ended_by: AdvanceReason::Equilibrium,
                },
                wall: Duration::from_millis(2),
            },
        ],
        samples: vec![(1, 100.0), (8, 80.0)],
        bests: vec![(1, 100.0), (8, 80.0)],
        stop: Some(StopTrace {
            reason: StopReason::Equilibrium,
            evals: 16,
            final_cost: 80.0,
            best_cost: 80.0,
        }),
        energy_events: 16,
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("trace.jsonl")
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("anneal-trace-it-{tag}-{}", std::process::id()))
}

/// Writes the pinned trace through the real sink and returns the file text.
fn write_pinned(tag: &str) -> String {
    let dir = temp_dir(tag);
    let sink = TraceSink::new(&dir, None).unwrap();
    let key = CellKey::new("table4.1", "g = 1", "6 sec");
    let writer = sink
        .cell_writer(&key, "Figure1", "1500 evals", 1985)
        .unwrap();
    writer.write_instance(0, 42, 1, &pinned_trace()).unwrap();
    let text = std::fs::read_to_string(sink.cell_path(&key)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    text
}

/// The serialized trace format is pinned byte-for-byte: any schema change —
/// field rename, reordering, version bump — must update the golden file
/// (run with `UPDATE_GOLDEN=1` to regenerate) and be called out as a
/// format change in EXPERIMENTS.md.
#[test]
fn trace_schema_matches_the_golden_file() {
    let text = write_pinned("golden");
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        text, golden,
        "trace JSONL drifted from the golden schema; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and document the format change"
    );
}

#[test]
fn golden_file_round_trips_through_the_parser() {
    // The loader reads only the current version, so loading at all pins
    // the golden file's version.
    let parsed = trace::load(&golden_path()).unwrap();
    assert_eq!(parsed.meta.key, CellKey::new("table4.1", "g = 1", "6 sec"));
    assert_eq!(parsed.meta.strategy, "Figure1");
    assert_eq!(parsed.meta.base_seed, 1985);
    assert!(!parsed.torn);
    // 1 run_start, 2 temps, 2 samples, 2 bests, 1 stop.
    assert_eq!(parsed.counts(), (1, 2, 2, 2, 1));
    let trace::TraceEvent::Temp {
        proposals,
        ended_by,
        ..
    } = &parsed.events[1]
    else {
        panic!("expected a temp event, got {:?}", parsed.events[1]);
    };
    assert_eq!(*proposals, 10);
    assert_eq!(*ended_by, AdvanceReason::Budget);
}

/// The Display/FromStr pair on the reason enums is what the trace format
/// stands on; pin the spellings and the round trip.
#[test]
fn reason_enums_round_trip_their_display_spelling() {
    for reason in [StopReason::Budget, StopReason::Equilibrium] {
        assert_eq!(reason.to_string().parse::<StopReason>(), Ok(reason));
    }
    for reason in [
        AdvanceReason::Budget,
        AdvanceReason::Equilibrium,
        AdvanceReason::Exchange,
    ] {
        assert_eq!(reason.to_string().parse::<AdvanceReason>(), Ok(reason));
    }
    assert_eq!(StopReason::Budget.to_string(), "budget");
    assert_eq!(AdvanceReason::Equilibrium.to_string(), "equilibrium");
    assert_eq!(AdvanceReason::Exchange.to_string(), "exchange");
    assert!("melted".parse::<StopReason>().is_err());
    assert!("".parse::<AdvanceReason>().is_err());
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
}

#[test]
fn traced_table_is_bitwise_identical_and_every_cell_trace_parses() {
    // Tiny budgets: 13 g functions x 2 strategies = 26 cells.
    let config = SuiteConfig::scaled(2000).with_seed(7);
    let clean = table4_2b::run_logged(&config, &TelemetryLog::in_memory());

    let dir = temp_dir("table");
    let sink = TraceSink::new(&dir, None).unwrap();
    let log = TelemetryLog::in_memory().with_trace(Some(sink));
    let traced = table4_2b::run_logged(&config, &log);

    assert_bitwise_identical(&clean, &traced, "traced vs untraced");

    let traces = trace::load_dir(&dir).unwrap();
    assert_eq!(traces.len(), 26, "one trace file per table cell");
    for t in &traces {
        assert!(!t.torn, "{}: clean run, no torn trace", t.meta.key);
        let (run_starts, temps, _, _, stops) = t.counts();
        assert!(run_starts > 0, "{}: has run_start events", t.meta.key);
        assert_eq!(
            run_starts, stops,
            "{}: every chain start has a stop",
            t.meta.key
        );
        assert!(
            temps >= run_starts,
            "{}: every chain closed at least one temperature",
            t.meta.key
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_trace_writes_never_perturb_the_tables() {
    let config = SuiteConfig::scaled(2000).with_seed(7);
    let clean = table4_2b::run_logged(&config, &TelemetryLog::in_memory());

    // Every other trace write fails; headers are written before the chaos
    // wrap, so the files stay parseable and the tables stay exact.
    let plan = FaultPlan::parse("seed=5,io=0.5").unwrap();
    let dir = temp_dir("chaos");
    let sink = TraceSink::new(&dir, Some(plan)).unwrap();
    let log = TelemetryLog::in_memory().with_trace(Some(sink));
    let chaos = table4_2b::run_logged(&config, &log);

    assert_bitwise_identical(&clean, &chaos, "chaos-traced vs untraced");
    let traces = trace::load_dir(&dir).unwrap();
    assert!(
        !traces.is_empty(),
        "headers survive even when event writes fail"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn collector_keeps_a_bounded_sample_of_a_long_chain() {
    let mut rng = StdRng::seed_from_u64(3);
    let problem = LinearArrangementProblem::new(random_two_pin(15, 150, &mut rng));
    let mut g = GFunction::metropolis(1.5);
    let mut collector = TraceCollector::new();
    let result = Annealer::new(&problem)
        .strategy(Strategy::Figure1)
        .budget(Budget::evaluations(100_000))
        .seed(3)
        .run(&mut g, &mut collector);
    let chain = collector.into_trace();
    let stop = chain.stop.expect("chain stopped");
    assert_eq!(stop.best_cost.to_bits(), result.best_cost.to_bits());
    assert!(
        chain.samples.len() <= anneal_core::DEFAULT_TRACE_SAMPLES,
        "stride-doubling bounds the sample count ({} kept)",
        chain.samples.len()
    );
    assert!(chain.energy_events as usize >= chain.samples.len());
}
