//! Process-wide metrics: atomic counters, gauges and log-linear
//! histograms, snapshotable as JSON or Prometheus text exposition.
//!
//! A [`Registry`] hands out named [`Counter`]s, [`Gauge`]s and
//! [`Histogram`]s; all are lock-free to update (a handful of atomic
//! operations), so they are safe to touch from the experiment harness's
//! worker threads. [`global()`] is the process-wide instance the `repro`
//! binary snapshots via `--metrics PATH` and serves live via `--serve`;
//! libraries and tests can also build private registries.
//!
//! Metrics may carry **labels**: [`counter_with`](Registry::counter_with),
//! [`gauge_with`](Registry::gauge_with) and
//! [`histogram_with`](Registry::histogram_with) key a family member by its
//! name plus a sorted `(key, value)` label set, so
//! `cells_completed{table="table4.1",method="g = 1"}` and its siblings
//! share one family. [`span`] is an RAII timer recording wall time into
//! the labeled [`SPAN_METRIC`] histogram family — cheap enough for
//! cell-boundary phases, and never placed inside chain hot loops.
//!
//! Histograms are log-linear (HDR-style): values group by power of two, each
//! octave split into [`SUB_BUCKETS`] linear sub-buckets, so relative error is
//! bounded by `1/SUB_BUCKETS` across the whole `u64` range while the bucket
//! table stays a few kilobytes. The JSON snapshot format is documented in
//! BENCHMARKS.md ("Metrics snapshots"); [`render_prometheus`](Registry::render_prometheus)
//! emits the same state as Prometheus text exposition (HELP/TYPE lines,
//! cumulative `_bucket`/`_sum`/`_count` histogram series).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;
use crate::json_object;

/// Monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (worker liveness, heartbeat ages, queue
/// depths). Stored as `f64` bits in one atomic, so reads and writes are
/// lock-free and torn-free.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A gauge at 0.0.
    pub fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Linear sub-buckets per power-of-two octave: relative bucket width (and so
/// worst-case quantile error) is `1/8`.
pub const SUB_BUCKETS: usize = 8;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
const BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// Index of the log-linear bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let group = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
    SUB_BUCKETS + group * SUB_BUCKETS + sub
}

/// Smallest value mapping to bucket `index` (the bucket covers
/// `[lo, lo_of_next)`).
fn bucket_lo(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let group = (index - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = (index - SUB_BUCKETS) % SUB_BUCKETS;
    let msb = group as u32 + SUB_BITS;
    (1u64 << msb) + ((sub as u64) << (msb - SUB_BITS))
}

/// Lock-free log-linear histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Lower bound of the bucket containing the `q`-quantile (`0 < q <= 1`),
    /// or `None` when no samples were recorded — the caller can then render
    /// `n/a` instead of a misleading 0. Accurate to the bucket's relative
    /// width (`1/`[`SUB_BUCKETS`]).
    pub fn try_quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Some(bucket_lo(i));
            }
        }
        Some(self.max())
    }

    /// [`try_quantile`](Self::try_quantile) with 0 as the empty sentinel
    /// (kept for callers that treat "no samples" and "all zero" alike).
    pub fn quantile(&self, q: f64) -> u64 {
        self.try_quantile(q).unwrap_or(0)
    }

    /// Non-empty buckets as `(lo, hi, count)` with `hi` exclusive.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                if n == 0 {
                    return None;
                }
                let lo = bucket_lo(i);
                let hi = if i + 1 < BUCKETS {
                    bucket_lo(i + 1)
                } else {
                    u64::MAX
                };
                Some((lo, hi, n))
            })
            .collect()
    }
}

/// The histogram family name [`span`] records into, labeled by `phase`.
/// Samples are wall-clock microseconds.
pub const SPAN_METRIC: &str = "span_wall_us";

/// An RAII phase timer: created by [`span`] (or
/// [`Registry::span`]), it records the elapsed wall time in microseconds
/// into the `span_wall_us{phase="<name>"}` histogram when dropped.
#[derive(Debug)]
pub struct Span {
    hist: Arc<Histogram>,
    started: Instant,
}

impl Span {
    fn enter(registry: &Registry, phase: &str) -> Self {
        Span {
            hist: registry.histogram_with(SPAN_METRIC, &[("phase", phase)]),
            started: Instant::now(),
        }
    }

    fn enter_into(registry: &Registry, metric: &str, labels: &[(&str, &str)]) -> Self {
        Span {
            hist: registry.histogram_with(metric, labels),
            started: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(self.started.elapsed().as_micros() as u64);
    }
}

/// Times a phase against the [`global`] registry: the returned guard
/// records into `span_wall_us{phase="<name>"}` when dropped. Intended for
/// coarse harness phases (probe/stage/cell) — one histogram record
/// per phase, never per proposal, so chain hot paths are untouched.
pub fn span(name: &str) -> Span {
    global().span(name)
}

/// A metric's identity: its name plus a sorted label set. Label order is
/// canonicalized at construction so `[("a","1"),("b","2")]` and its
/// permutation address the same family member, and the registry's
/// `BTreeMap` ordering (name first, then labels) makes every snapshot
/// diff-stable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricId {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// The members every snapshot entry starts with: the name, then the
    /// labels when there are any.
    fn members(&self) -> impl Iterator<Item = (&str, Json)> {
        let labels = self
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str().into()));
        let labels = (!self.labels.is_empty()).then(|| ("labels", Json::obj(labels)));
        std::iter::once(("name", self.name.as_str().into())).chain(labels)
    }
}

/// A named collection of counters, gauges and histograms.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<MetricId, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<MetricId, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<MetricId, Arc<Histogram>>>,
}

/// The process-wide registry used by the experiment harness.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// The counter named `name` with the given label set, created at zero
    /// on first use. Labels are sorted internally, so argument order does
    /// not matter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut map = Self::lock(&self.counters);
        map.entry(MetricId::new(name, labels))
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// The gauge named `name`, created at 0.0 on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// The gauge named `name` with the given label set, created at 0.0 on
    /// first use.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut map = Self::lock(&self.gauges);
        map.entry(MetricId::new(name, labels))
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// The histogram named `name` with the given label set, created empty
    /// on first use.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let mut map = Self::lock(&self.histograms);
        map.entry(MetricId::new(name, labels))
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// An RAII phase timer recording into this registry's
    /// `span_wall_us{phase="<name>"}` histogram on drop.
    pub fn span(&self, name: &str) -> Span {
        Span::enter(self, name)
    }

    /// An RAII wall timer recording into an arbitrary histogram family of
    /// this registry — the same guard as [`Registry::span`] but with the
    /// metric name and label set chosen by the caller, for subsystems
    /// whose timings deserve their own family (the job server records
    /// `job_wall_us{problem="..."}` rather than overloading
    /// [`SPAN_METRIC`]'s `phase` label). Samples are microseconds.
    pub fn span_into(&self, metric: &str, labels: &[(&str, &str)]) -> Span {
        Span::enter_into(self, metric, labels)
    }

    /// Serializes every metric as one JSON object (schema
    /// `anneal-metrics` v2; see BENCHMARKS.md). Metrics are emitted in
    /// sorted (name, labels) order so snapshots diff cleanly; labeled
    /// entries carry a `labels` object. v2 added gauges and labels; v1
    /// snapshots had neither.
    pub fn snapshot_json(&self) -> String {
        let counters = Self::lock(&self.counters)
            .iter()
            .map(|(id, c)| json_object! { ..id.members(), "value": c.get() })
            .collect();
        let gauges = Self::lock(&self.gauges)
            .iter()
            .map(|(id, g)| json_object! { ..id.members(), "value": g.get() })
            .collect();
        let histograms = Self::lock(&self.histograms)
            .iter()
            .map(|(id, h)| {
                let buckets = h.nonzero_buckets().into_iter().map(|(lo, hi, n)| {
                    json_object! { "lo": lo, "hi": hi, "count": n }
                });
                json_object! {
                    ..id.members(), "count": h.count(), "sum": h.sum(), "min": h.min(),
                    "max": h.max(), "p50": h.quantile(0.50), "p90": h.quantile(0.90),
                    "p99": h.quantile(0.99), "buckets": Json::Arr(buckets.collect()),
                }
            })
            .collect();
        json_object! {
            "schema": "anneal-metrics", "version": 2u32, "counters": Json::Arr(counters),
            "gauges": Json::Arr(gauges), "histograms": Json::Arr(histograms),
        }
        .to_string()
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` lines per family, escaped label
    /// values, and histograms as cumulative `_bucket`/`_sum`/`_count`
    /// series derived from the log-linear buckets (each `le` is the
    /// bucket's exclusive upper bound, plus the mandatory `+Inf` bucket).
    /// Dotted metric names are sanitized to `_` for the Prometheus name
    /// grammar; the `# HELP` line keeps the original name.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);

        let counters: Vec<(MetricId, u64)> = {
            let map = Self::lock(&self.counters);
            map.iter().map(|(id, c)| (id.clone(), c.get())).collect()
        };
        let mut last_name: Option<String> = None;
        for (id, value) in &counters {
            let prom = prom_name(&id.name);
            if last_name.as_deref() != Some(&id.name) {
                out.push_str(&format!(
                    "# HELP {prom} {}\n# TYPE {prom} counter\n",
                    id.name
                ));
                last_name = Some(id.name.clone());
            }
            out.push_str(&format!(
                "{prom}{} {value}\n",
                prom_labels(&id.labels, None)
            ));
        }

        let gauges: Vec<(MetricId, f64)> = {
            let map = Self::lock(&self.gauges);
            map.iter().map(|(id, g)| (id.clone(), g.get())).collect()
        };
        let mut last_name: Option<String> = None;
        for (id, value) in &gauges {
            let prom = prom_name(&id.name);
            if last_name.as_deref() != Some(&id.name) {
                out.push_str(&format!("# HELP {prom} {}\n# TYPE {prom} gauge\n", id.name));
                last_name = Some(id.name.clone());
            }
            out.push_str(&format!(
                "{prom}{} {}\n",
                prom_labels(&id.labels, None),
                prom_f64(*value)
            ));
        }

        let histograms: Vec<(MetricId, Arc<Histogram>)> = {
            let map = Self::lock(&self.histograms);
            map.iter().map(|(id, h)| (id.clone(), h.clone())).collect()
        };
        let mut last_name: Option<String> = None;
        for (id, h) in &histograms {
            let prom = prom_name(&id.name);
            if last_name.as_deref() != Some(&id.name) {
                out.push_str(&format!(
                    "# HELP {prom} {}\n# TYPE {prom} histogram\n",
                    id.name
                ));
                last_name = Some(id.name.clone());
            }
            let mut cumulative = 0u64;
            for (_lo, hi, n) in h.nonzero_buckets() {
                cumulative += n;
                out.push_str(&format!(
                    "{prom}_bucket{} {cumulative}\n",
                    prom_labels(&id.labels, Some(&hi.to_string()))
                ));
            }
            out.push_str(&format!(
                "{prom}_bucket{} {}\n",
                prom_labels(&id.labels, Some("+Inf")),
                h.count()
            ));
            out.push_str(&format!(
                "{prom}_sum{} {}\n",
                prom_labels(&id.labels, None),
                h.sum()
            ));
            out.push_str(&format!(
                "{prom}_count{} {}\n",
                prom_labels(&id.labels, None),
                h.count()
            ));
        }
        out
    }
}

/// Maps a dotted metric name onto the Prometheus name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// The `{key="value",...}` label block, empty when there are no labels.
/// `le` (for histogram buckets) is appended last, matching Prometheus
/// convention.
fn prom_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Escapes a Prometheus label value: backslash, double quote and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A float in Prometheus exposition syntax (which, unlike JSON, has
/// NaN/+Inf/-Inf tokens).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_exact_for_small_values() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lo(v as usize), v);
        }
        let mut last = 0;
        for v in [8u64, 9, 15, 16, 17, 100, 1_000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= last, "index not monotone at {v}");
            last = i;
            let lo = bucket_lo(i);
            assert!(lo <= v, "lo {lo} > v {v}");
            if i + 1 < BUCKETS {
                assert!(bucket_lo(i + 1) > v, "v {v} outside bucket {i}");
            }
        }
    }

    #[test]
    fn bucket_round_trip_at_every_power_of_two_boundary() {
        // 2^k − 1, 2^k, 2^k + 1 for every octave, plus u64::MAX: each value
        // must land in a bucket whose [lo, next_lo) range contains it, and
        // indices must stay monotone across the boundary.
        let mut boundary_values = vec![u64::MAX];
        for k in 0..64u32 {
            let p = 1u64 << k;
            boundary_values.extend([p.saturating_sub(1), p, p.saturating_add(1)]);
        }
        boundary_values.sort_unstable();
        let mut last_index = 0usize;
        for &v in &boundary_values {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of table at {v}");
            assert!(i >= last_index, "index not monotone at {v}");
            last_index = i;
            let lo = bucket_lo(i);
            assert!(lo <= v, "lo {lo} > value {v}");
            if i + 1 < BUCKETS {
                assert!(bucket_lo(i + 1) > v, "value {v} outside bucket {i}");
            }
            assert_eq!(bucket_index(lo), i, "lo {lo} re-indexes to {i}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Values concentrated around power-of-two group boundaries, where
        /// the log-linear indexing is easiest to get wrong, plus a uniform
        /// tail over the whole `u64` range.
        fn arb_boundary_value() -> impl Strategy<Value = u64> {
            (any::<u64>(), 0u32..64, 0u32..3).prop_map(|(raw, k, offset)| match offset {
                0 => (1u64 << k).saturating_sub(1),
                1 => 1u64 << k,
                2 => (1u64 << k).saturating_add(raw % 3),
                _ => raw,
            })
        }

        proptest! {
            #[test]
            fn bucket_round_trip_holds(v in arb_boundary_value(), raw in any::<u64>()) {
                for v in [v, raw, u64::MAX] {
                    let i = bucket_index(v);
                    prop_assert!(i < BUCKETS);
                    let lo = bucket_lo(i);
                    prop_assert!(lo <= v, "lo {} > value {}", lo, v);
                    if i + 1 < BUCKETS {
                        prop_assert!(bucket_lo(i + 1) > v, "value {} outside bucket {}", v, i);
                    }
                    prop_assert_eq!(bucket_index(lo), i);
                }
            }

            #[test]
            fn bucket_index_is_monotone(a in arb_boundary_value(), b in any::<u64>()) {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                prop_assert!(bucket_index(lo) <= bucket_index(hi));
            }
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for v in [100u64, 12_345, 1 << 30, 1 << 50] {
            let lo = bucket_lo(bucket_index(v));
            let err = (v - lo) as f64 / v as f64;
            assert!(err <= 1.0 / SUB_BUCKETS as f64 + 1e-9, "err {err} at {v}");
        }
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let h = Histogram::new();
        assert_eq!((h.count(), h.min(), h.max()), (0, 0, 0));
        for v in [5u64, 100, 3, 10_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10_108);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn quantiles_land_in_the_right_region() {
        let h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((400..=500).contains(&p50), "p50 = {p50}");
        assert!((900..=990).contains(&p99), "p99 = {p99}");
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn try_quantile_distinguishes_empty_from_zero() {
        let h = Histogram::new();
        assert_eq!(h.try_quantile(0.5), None);
        h.record(0);
        assert_eq!(h.try_quantile(0.5), Some(0));
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn gauge_sets_and_reads() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set(f64::NAN);
        assert!(g.get().is_nan());
    }

    #[test]
    fn registry_returns_shared_handles() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
        let h = r.histogram("y");
        h.record(7);
        assert_eq!(r.histogram("y").count(), 1);
        let g = r.gauge("z");
        g.set(4.0);
        assert_eq!(r.gauge("z").get(), 4.0);
    }

    #[test]
    fn labeled_families_key_by_sorted_labels() {
        let r = Registry::new();
        r.counter_with("cells", &[("table", "4.1"), ("method", "g = 1")])
            .inc();
        // Same member, labels given in the other order.
        r.counter_with("cells", &[("method", "g = 1"), ("table", "4.1")])
            .inc();
        assert_eq!(
            r.counter_with("cells", &[("table", "4.1"), ("method", "g = 1")])
                .get(),
            2
        );
        // A different value is a different family member.
        assert_eq!(
            r.counter_with("cells", &[("table", "4.2"), ("method", "g = 1")])
                .get(),
            0
        );
        // The unlabeled member is distinct from every labeled one.
        assert_eq!(r.counter("cells").get(), 0);
    }

    #[test]
    fn span_records_into_the_labeled_histogram() {
        let r = Registry::new();
        {
            let _guard = r.span("cell");
        }
        {
            let _guard = r.span("cell");
        }
        let h = r.histogram_with(SPAN_METRIC, &[("phase", "cell")]);
        assert_eq!(h.count(), 2);
        assert_eq!(
            r.histogram_with(SPAN_METRIC, &[("phase", "merge")]).count(),
            0
        );
    }

    #[test]
    fn span_into_records_into_a_caller_chosen_family() {
        let r = Registry::new();
        {
            let _guard = r.span_into("job_wall_us", &[("problem", "gola")]);
        }
        let h = r.histogram_with("job_wall_us", &[("problem", "gola")]);
        assert_eq!(h.count(), 1);
        // The default span family is untouched.
        assert_eq!(
            r.histogram_with(SPAN_METRIC, &[("phase", "gola")]).count(),
            0
        );
    }

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("test.global.singleton").inc();
        assert!(global().counter("test.global.singleton").get() >= 1);
    }

    #[test]
    fn snapshot_json_is_wellformed_and_sorted() {
        let r = Registry::new();
        r.counter("b.second").add(2);
        r.counter("a.first").inc();
        r.histogram("lat").record(42);
        let json = r.snapshot_json();
        assert!(json.starts_with("{\"schema\":\"anneal-metrics\",\"version\":2,"));
        let a = json.find("a.first").unwrap();
        let b = json.find("b.second").unwrap();
        assert!(a < b, "counters sorted by name");
        assert!(json.contains("\"p50\":"));
        // 42 falls in the log-linear bucket [40, 44).
        assert!(json.contains("\"buckets\":[{\"lo\":40,\"hi\":44,\"count\":1}]"));
    }

    #[test]
    fn snapshot_json_order_is_pinned_across_label_sets() {
        // The sorted (name, labels) order is part of the contract: both
        // `--metrics PATH` and `/metrics` must be diff-stable across runs
        // regardless of metric registration order.
        let r = Registry::new();
        r.counter_with("cells", &[("table", "4.2b")]).add(3);
        r.counter("aaa").inc();
        r.counter_with("cells", &[("table", "4.1")]).add(1);
        r.counter("cells").add(9);
        r.gauge_with("workers", &[("slot", "1")]).set(1.0);
        r.gauge("eta").set(2.5);
        assert_eq!(
            r.snapshot_json(),
            "{\"schema\":\"anneal-metrics\",\"version\":2,\"counters\":[\
             {\"name\":\"aaa\",\"value\":1},\
             {\"name\":\"cells\",\"value\":9},\
             {\"name\":\"cells\",\"labels\":{\"table\":\"4.1\"},\"value\":1},\
             {\"name\":\"cells\",\"labels\":{\"table\":\"4.2b\"},\"value\":3}],\
             \"gauges\":[\
             {\"name\":\"eta\",\"value\":2.5},\
             {\"name\":\"workers\",\"labels\":{\"slot\":\"1\"},\"value\":1}],\
             \"histograms\":[]}"
        );
    }

    #[test]
    fn prometheus_exposition_golden() {
        let r = Registry::new();
        r.counter_with("cells.completed", &[("table", "4.1"), ("method", "g = 1")])
            .add(3);
        r.counter_with(
            "cells.completed",
            &[("method", "fast \"g\"\n"), ("table", "4.2b")],
        )
        .inc();
        r.gauge("workers.live").set(2.0);
        r.histogram("lat").record(42);
        r.histogram("lat").record(42);
        r.histogram("lat").record(100);
        assert_eq!(
            r.render_prometheus(),
            "# HELP cells_completed cells.completed\n\
             # TYPE cells_completed counter\n\
             cells_completed{method=\"fast \\\"g\\\"\\n\",table=\"4.2b\"} 1\n\
             cells_completed{method=\"g = 1\",table=\"4.1\"} 3\n\
             # HELP workers_live workers.live\n\
             # TYPE workers_live gauge\n\
             workers_live 2\n\
             # HELP lat lat\n\
             # TYPE lat histogram\n\
             lat_bucket{le=\"44\"} 2\n\
             lat_bucket{le=\"104\"} 3\n\
             lat_bucket{le=\"+Inf\"} 3\n\
             lat_sum 184\n\
             lat_count 3\n"
        );
    }

    #[test]
    fn prometheus_names_and_specials_are_sanitized() {
        assert_eq!(prom_name("runner.cells"), "runner_cells");
        assert_eq!(prom_name("span-wall us"), "span_wall_us");
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_f64(f64::NAN), "NaN");
        assert_eq!(prom_f64(f64::INFINITY), "+Inf");
        assert_eq!(prom_f64(1.25), "1.25");
    }
}
