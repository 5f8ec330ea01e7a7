//! What one benchmark run produces: named metrics, operation counts,
//! failed checks and, for traced runs, the spans behind the layer split.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::{END_TO_END, PER_LAYER};

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (table cells or jobs).
    pub attempted: u64,
    /// Operations that failed, were lost or timed out.
    pub failed: u64,
    /// Output checks that failed, each naming the check.
    pub failed_checks: Vec<String>,
}

impl Outcome {
    /// Sets a metric; the name must be one `BENCHMARK.json` declares.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, name: &str, detail: impl FnOnce() -> String) {
        if !ok {
            self.failed_checks.push(format!("{name}: {}", detail()));
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `names` with its unit. Per-layer metrics a workload does not
    /// reach read 0.
    pub fn json(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One completed span of a traced run.
#[derive(Debug, Clone)]
struct Span {
    /// What ran (`table4.1`, a cell key, `job 17`).
    name: String,
    /// The layer it belongs to.
    cat: &'static str,
    /// Track (thread or client) it is drawn on.
    tid: u64,
    /// One id per cell or job; 0 for spans that are neither.
    id: u64,
    /// Start, relative to the tracer's origin.
    start: Duration,
    /// Duration.
    dur: Duration,
}

/// Spans held in memory and written once, at the end, as Chrome Trace
/// Event JSON.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Records a span that ran from `start` for `dur`.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        tid: u64,
        id: u64,
        start: Instant,
        dur: Duration,
    ) {
        let start = start.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name: name.into(),
            cat,
            tid,
            id,
            start,
            dur,
        });
    }

    /// The spans as a Chrome Trace Event document.
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}}}}}",
                    s.name.replace('\\', "\\\\").replace('"', "\\\""),
                    s.cat,
                    s.tid,
                    s.start.as_secs_f64() * 1e6,
                    s.dur.as_secs_f64() * 1e6,
                    s.id
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}
