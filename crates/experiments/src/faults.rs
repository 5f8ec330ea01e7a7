//! Deterministic fault injection ("chaos") for the experiment harness.
//!
//! A [`FaultPlan`] decides — purely from its seed and the identity of the
//! site — whether to inject a panic into an instance run, an I/O error into
//! the telemetry sink, or an artificial slowdown. The same plan always makes
//! the same decisions, so a chaos run is reproducible: the CI chaos job and
//! the kill-and-resume tests rely on that.
//!
//! Plans are written as comma-separated `key=value` specs, from the
//! `--faults` CLI flag or the `ANNEAL_FAULTS` environment variable:
//!
//! ```text
//! seed=7,panic=0.25,io=0.1,delay=0.5,delay_ms=200,abort=0.01,hang=0.01
//! ```
//!
//! | key | meaning | default |
//! |---|---|---|
//! | `seed` | decision seed | 0 |
//! | `panic` | probability an instance run panics at the start of its strategy step | 0 |
//! | `io` | probability a telemetry sink write, or a worker's record write, fails | 0 |
//! | `delay` | probability an instance run is slowed before it starts | 0 |
//! | `delay_ms` | slowdown length in milliseconds | 100 |
//! | `abort` | probability an instance run calls `std::process::abort()` | 0 |
//! | `hang` | probability an instance run hangs without polling its budget | 0 |
//! | `hang_ms` | hang length in milliseconds | 60000 |
//!
//! Each fault path exercises a distinct containment mechanism: `panic` the
//! `catch_unwind` isolation in the runner, `io` the telemetry
//! write-error accounting, and `delay` (together with `--watchdog-ms`) the
//! [`anneal_core::watchdog`] deadline. The process-fatal kinds target the
//! [`supervisor`](crate::supervisor): `abort` kills the worker process
//! outright (`catch_unwind` cannot contain it), and `hang` sleeps
//! without ever polling a `Meter`, which the in-process watchdog cannot
//! interrupt — only the supervisor's wall-clock SIGKILL can.

use std::io::{self, Write};
use std::time::Duration;

use crate::telemetry::CellKey;

/// Environment variable holding a fault-plan spec.
pub const FAULTS_ENV: &str = "ANNEAL_FAULTS";

/// A seeded, deterministic fault-injection plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Decision seed; the same seed reproduces the same faults.
    pub seed: u64,
    /// Probability an instance run panics.
    pub panic_p: f64,
    /// Probability a telemetry sink write or a worker's record write fails.
    pub io_p: f64,
    /// Probability an instance run is delayed.
    pub delay_p: f64,
    /// Injected delay length.
    pub delay: Duration,
    /// Probability an instance run aborts the whole process.
    pub abort_p: f64,
    /// Probability an instance run hangs without polling its budget.
    pub hang_p: f64,
    /// Injected hang length (bounded so a run without a supervisor still
    /// terminates eventually).
    pub hang: Duration,
    /// Attempt-number offset folded into every decision. The supervisor
    /// sends it with each cell request
    /// ([`CellRequest`](crate::supervisor::CellRequest)), raised for each
    /// retry after a process death, so fault decisions roll independently
    /// across process-level retries exactly as they do across in-process
    /// retries — deterministically either way.
    pub attempt_base: u32,
}

/// What a [`FaultPlan`] injects into one instance run attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstanceFault {
    /// Panic at the start of the strategy step.
    pub panic: bool,
    /// Sleep this long before the strategy step (watchdog fodder).
    pub delay: Option<Duration>,
    /// Abort the whole process at the start of the strategy step.
    pub abort: bool,
    /// Hang this long without polling the budget (supervisor fodder).
    pub hang: Option<Duration>,
}

impl Default for FaultPlan {
    /// A plan that injects nothing.
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            panic_p: 0.0,
            io_p: 0.0,
            delay_p: 0.0,
            delay: Duration::from_millis(100),
            abort_p: 0.0,
            hang_p: 0.0,
            hang: Duration::from_millis(60_000),
            attempt_base: 0,
        }
    }
}

impl FaultPlan {
    /// Parses a `key=value,key=value` spec (see module docs).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("bad probability `{v}` for fault `{key}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault probability `{key}={v}` must be in [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("bad fault seed `{value}`"))?;
                }
                "panic" => plan.panic_p = prob(value)?,
                "io" => plan.io_p = prob(value)?,
                "delay" => plan.delay_p = prob(value)?,
                "delay_ms" => {
                    let ms: u64 = value
                        .parse()
                        .map_err(|_| format!("bad delay_ms `{value}`"))?;
                    plan.delay = Duration::from_millis(ms);
                }
                "abort" => plan.abort_p = prob(value)?,
                "hang" => plan.hang_p = prob(value)?,
                "hang_ms" => {
                    let ms: u64 = value
                        .parse()
                        .map_err(|_| format!("bad hang_ms `{value}`"))?;
                    plan.hang = Duration::from_millis(ms);
                }
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// The plan as a `key=value,...` spec that [`parse`](Self::parse)
    /// round-trips (used by the supervisor to forward its plan to its
    /// worker process). `attempt_base` is intentionally not part of the
    /// spec — it travels in each cell request instead.
    pub fn to_spec(&self) -> String {
        format!(
            "seed={},panic={},io={},delay={},delay_ms={},abort={},hang={},hang_ms={}",
            self.seed,
            self.panic_p,
            self.io_p,
            self.delay_p,
            self.delay.as_millis(),
            self.abort_p,
            self.hang_p,
            self.hang.as_millis()
        )
    }

    /// The same plan with `base` folded into every attempt number (see
    /// [`attempt_base`](Self::attempt_base)).
    pub fn with_attempt_base(mut self, base: u32) -> Self {
        self.attempt_base = base;
        self
    }

    /// The plan from the `ANNEAL_FAULTS` environment variable, if set.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var(FAULTS_ENV) {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.panic_p > 0.0
            || self.io_p > 0.0
            || self.delay_p > 0.0
            || self.abort_p > 0.0
            || self.hang_p > 0.0
    }

    /// The faults (if any) for one `(cell, instance, attempt)` run. Pure:
    /// the same arguments always produce the same decision, and distinct
    /// attempts roll independently — which is what lets retry-with-backoff
    /// recover from sub-certain fault probabilities.
    pub fn instance_fault(&self, key: &CellKey, instance: usize, attempt: u32) -> InstanceFault {
        let site = |label: &str| self.site(label, key, instance, attempt);
        InstanceFault {
            panic: decide(site("panic"), self.panic_p),
            delay: decide(site("delay"), self.delay_p).then_some(self.delay),
            abort: decide(site("abort"), self.abort_p),
            hang: decide(site("hang"), self.hang_p).then_some(self.hang),
        }
    }

    /// Whether the `index`-th write to the telemetry sink should fail.
    pub fn write_fails(&self, index: u64) -> bool {
        decide(mix(mix(self.seed, hash_str("io")), index), self.io_p)
    }

    /// Whether a worker process's write of `key`'s record to its parent
    /// should fail (the `io` probability). Rolled per cell and per process
    /// attempt ([`attempt_base`](Self::attempt_base)), so a cell retried
    /// in a respawned worker rolls a fresh decision.
    pub fn record_write_fails(&self, key: &CellKey) -> bool {
        decide(self.site("record", key, 0, 0), self.io_p)
    }

    /// The decision hash of fault kind `label` at one instance attempt.
    fn site(&self, label: &str, key: &CellKey, instance: usize, attempt: u32) -> u64 {
        let mut h = mix(self.seed, hash_str(label));
        h = mix(h, hash_str(&key.table));
        h = mix(h, hash_str(&key.method));
        h = mix(h, hash_str(&key.column));
        h = mix(h, instance as u64);
        mix(h, attempt.wrapping_add(self.attempt_base) as u64)
    }
}

/// splitmix64 finalizer — decorrelates the site hash from its inputs.
fn mix(state: u64, value: u64) -> u64 {
    let mut z = state
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(value)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_str(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Maps a hash to `[0, 1)` and compares against the probability.
fn decide(hash: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    ((hash >> 11) as f64 / (1u64 << 53) as f64) < p
}

/// A telemetry sink wrapper that fails writes according to a [`FaultPlan`]
/// (the `io` probability), deterministically by write index.
pub struct ChaosWriter<W> {
    inner: W,
    plan: FaultPlan,
    writes: u64,
}

impl<W: Write> ChaosWriter<W> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        ChaosWriter {
            inner,
            plan,
            writes: 0,
        }
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let index = self.writes;
        self.writes += 1;
        if self.plan.write_fails(index) {
            return Err(io::Error::other(format!(
                "fault injection: telemetry write {index} failed"
            )));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CellKey {
        CellKey::new("table4.1", "g = 1", "6 sec")
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse("seed=7, panic=0.25,io=0.1,delay=0.5,delay_ms=200").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.panic_p, 0.25);
        assert_eq!(plan.io_p, 0.1);
        assert_eq!(plan.delay_p, 0.5);
        assert_eq!(plan.delay, Duration::from_millis(200));
        assert!(plan.is_active());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic=2.0").is_err());
        assert!(FaultPlan::parse("panic=-0.1").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
        assert!(FaultPlan::parse("delay_ms=abc").is_err());
        assert!(FaultPlan::parse("oom=0.1").is_err());
    }

    #[test]
    fn empty_spec_is_inactive() {
        let plan = FaultPlan::parse("").unwrap();
        assert_eq!(plan, FaultPlan::default());
        assert!(!plan.is_active());
        assert_eq!(plan.instance_fault(&key(), 0, 0), InstanceFault::default());
        assert!(!plan.write_fails(0));
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::parse("seed=1,panic=0.5").unwrap();
        let b = FaultPlan::parse("seed=2,panic=0.5").unwrap();
        let roll = |plan: &FaultPlan| -> Vec<bool> {
            (0..64)
                .map(|i| plan.instance_fault(&key(), i, 0).panic)
                .collect()
        };
        assert_eq!(roll(&a), roll(&a), "same plan, same decisions");
        assert_ne!(roll(&a), roll(&b), "different seeds diverge");
        let hits = roll(&a).iter().filter(|&&x| x).count();
        assert!((10..55).contains(&hits), "p=0.5 over 64 sites: {hits}");
    }

    #[test]
    fn attempts_roll_independently() {
        let plan = FaultPlan::parse("seed=3,panic=0.5").unwrap();
        let per_attempt: Vec<bool> = (0..64)
            .map(|a| plan.instance_fault(&key(), 0, a).panic)
            .collect();
        assert!(per_attempt.iter().any(|&x| x));
        assert!(per_attempt.iter().any(|&x| !x), "a retry can succeed");
    }

    #[test]
    fn certain_probabilities_are_certain() {
        let plan = FaultPlan::parse("panic=1,delay=1,io=1,delay_ms=5").unwrap();
        for i in 0..16 {
            let f = plan.instance_fault(&key(), i, 0);
            assert!(f.panic);
            assert_eq!(f.delay, Some(Duration::from_millis(5)));
            assert!(plan.write_fails(i as u64));
        }
    }

    #[test]
    fn chaos_writer_fails_deterministically() {
        let plan = FaultPlan::parse("seed=9,io=0.5").unwrap();
        let run = || -> Vec<bool> {
            let mut w = ChaosWriter::new(Vec::new(), plan);
            (0..32).map(|_| w.write(b"x").is_ok()).collect()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(|&ok| ok) && a.iter().any(|&ok| !ok));
    }

    #[test]
    fn process_fatal_kinds_parse_and_round_trip_as_a_spec() {
        let plan = FaultPlan::parse("seed=5,abort=0.25,hang=0.5,hang_ms=1234").unwrap();
        assert_eq!(plan.abort_p, 0.25);
        assert_eq!(plan.hang_p, 0.5);
        assert_eq!(plan.hang, Duration::from_millis(1234));
        assert!(plan.is_active());
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
        assert!(FaultPlan::parse("abort=2").is_err());
        assert!(FaultPlan::parse("hang_ms=abc").is_err());
    }

    #[test]
    fn certain_process_fatal_faults_fire() {
        let plan = FaultPlan::parse("abort=1,hang=1,hang_ms=7").unwrap();
        let f = plan.instance_fault(&key(), 0, 0);
        assert!(f.abort);
        assert_eq!(f.hang, Some(Duration::from_millis(7)));
    }

    #[test]
    fn attempt_base_shifts_decisions_like_real_attempts() {
        let plan = FaultPlan::parse("seed=3,abort=0.5").unwrap();
        let direct: Vec<bool> = (0..32)
            .map(|a| plan.instance_fault(&key(), 0, a).abort)
            .collect();
        let offset: Vec<bool> = (0..22)
            .map(|a| {
                plan.with_attempt_base(10)
                    .instance_fault(&key(), 0, a)
                    .abort
            })
            .collect();
        // A worker re-spawned at attempt base 10 rolls the same decisions a
        // single process would have rolled at attempts 10, 11, ...
        assert_eq!(direct[10..], offset[..]);
        assert_ne!(
            direct[..22],
            offset[..],
            "the base actually shifts the stream"
        );
    }

    #[test]
    fn worker_record_writes_roll_per_cell_and_per_process_attempt() {
        let plan = FaultPlan::parse("seed=2,io=0.5").unwrap();
        let config = crate::SuiteConfig::scaled(2000).with_seed(7);
        let keys = crate::tables::spec("table4.2b", &config)
            .unwrap()
            .keys("table4.2b");
        assert_eq!(keys.len(), 26);
        let first: Vec<bool> = keys.iter().map(|k| plan.record_write_fails(k)).collect();
        assert!(first.iter().any(|&f| f) && first.iter().any(|&f| !f));
        // A cell whose first record write fails gets it through on a
        // later process attempt.
        let failing = &keys[first.iter().position(|&f| f).unwrap()];
        assert!((1..16).any(|base| !plan.with_attempt_base(base).record_write_fails(failing)));
    }

    #[test]
    fn chaos_writer_passes_data_through() {
        let mut w = ChaosWriter::new(Vec::new(), FaultPlan::default());
        w.write_all(b"hello").unwrap();
        w.flush().unwrap();
        assert_eq!(w.inner, b"hello");
    }
}
