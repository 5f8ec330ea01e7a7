//! Smoke coverage: every workload at smoke size emits exactly the metrics
//! `BENCHMARK.json` declares and passes its output checks; the traced
//! split sums to the wall; a corrupted golden fails the comparison.

use std::process::Command;

use anneal_e2ebench::program::checkout_root;
use anneal_e2ebench::{golden, suite, END_TO_END, PER_LAYER, SHARES, WORKLOADS};
use anneal_experiments::checkpoint::Json;

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(checkout_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the checkout root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, key: &str, field: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("a list")
        .iter()
        .map(|m| {
            m.get(field)
                .and_then(Json::as_str)
                .expect("a string")
                .to_string()
        })
        .collect()
}

#[test]
fn declared_metrics_match_benchmark_json() {
    let spec = benchmark_json();
    let own = |list: &[(&str, &str)], i: usize| -> Vec<String> {
        list.iter().map(|m| [m.0, m.1][i].to_string()).collect()
    };
    assert_eq!(names(&spec, "workloads", "name"), WORKLOADS);
    assert_eq!(names(&spec, "end_to_end", "name"), own(END_TO_END, 0));
    assert_eq!(names(&spec, "end_to_end", "unit"), own(END_TO_END, 1));
    assert_eq!(names(&spec, "per_layer", "name"), own(PER_LAYER, 0));
    assert_eq!(names(&spec, "per_layer", "unit"), own(PER_LAYER, 1));
}

/// Runs the benchmark binary at smoke size and returns its result line.
fn smoke(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_anneal-e2ebench"))
        .args(["--workload", workload, "--seed", "7", "--smoke", "--trace"])
        .arg(trace.to_string())
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result line parses")
}

#[test]
fn smoke_runs_emit_every_metric_once() {
    for workload in WORKLOADS {
        for (trace, declared) in [(0, END_TO_END), (1, PER_LAYER)] {
            let result = smoke(workload, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = declared.iter().map(|m| m.0).collect();
            assert_eq!(emitted, want, "{workload} trace {trace}");
            let value = |name: &str| {
                metrics
                    .iter()
                    .find(|(k, _)| k == name)
                    .and_then(|(_, m)| m.get("value")?.as_f64())
                    .expect("a numeric value")
            };
            if trace == 0 {
                for (name, _) in END_TO_END {
                    // At smoke size several cells can finish within one
                    // WAL poll, so the suites' median gap may read 0.
                    let zero_ok = *name == "latency_p50_ms" && workload != "jobs_mixed";
                    assert!(
                        value(name) > 0.0 || (zero_ok && value(name) == 0.0),
                        "{workload}: {name} must never be 0"
                    );
                }
            } else {
                let total: f64 = SHARES.iter().map(|s| value(s)).sum();
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "{workload}: shares sum to {total}"
                );
                assert!(value("traced_wall_s") > 0.0, "{workload}");
            }
        }
    }
}

#[test]
fn corrupted_golden_fails_the_check() {
    let s = &suite::SUITES[0];
    let text = std::fs::read_to_string(golden::path(s.name)).expect("committed golden");
    let header = text.lines().next().expect("a header").to_string();
    let lines: Vec<String> = text.lines().skip(1).map(str::to_string).collect();
    assert_eq!(golden::check(s.name, &header, &lines, false), Ok(()));

    // The committed golden read for a run of another size is stale.
    let resized = header.replace("scale=", "scale=9");
    let err = golden::check(s.name, &resized, &lines, false)
        .expect_err("a golden of another size must fail");
    assert!(err.contains("re-bless"), "{err}");

    // One cell's reduction off by one in the golden file.
    let mut corrupted = format!("{header}\n");
    for (i, line) in lines.iter().enumerate() {
        let mut fields: Vec<String> = line.split('\t').map(str::to_string).collect();
        if i == 5 {
            let reduction: f64 = fields[3].parse().expect("a reduction");
            fields[3] = (reduction + 1.0).to_string();
        }
        corrupted.push_str(&fields.join("\t"));
        corrupted.push('\n');
    }
    let err =
        golden::compare(&corrupted, &header, &lines).expect_err("a corrupted golden must fail");
    assert!(err.contains("line 6"), "{err}");
}
