//! Shared configuration for the experiment suite.

use std::time::Duration;

use anneal_core::{AdaptiveMode, Strategy};

use crate::budgetmap::Scale;
use crate::instances::DEFAULT_SEED;
use crate::runner::{CellPolicy, RetryPolicy};

/// Configuration shared by every table runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteConfig {
    /// Base seed: determines instance sets, starting arrangements and chain
    /// randomness.
    pub seed: u64,
    /// Budget scale (divide paper budgets for faster approximate runs).
    pub scale: Scale,
    /// OS threads per table cell (instances fan out; totals are identical
    /// for any thread count).
    pub threads: usize,
    /// Bounded retry for failed cell instances (`--retries`).
    pub retry: RetryPolicy,
    /// Per-instance wall-clock deadline (`--watchdog-ms`).
    pub watchdog: Option<Duration>,
    /// Strategy override for the Figure-1 tables (`--strategy`). `None`
    /// keeps each experiment's paper-faithful strategy; table 4.2(b)'s
    /// Figure-1-vs-Figure-2 comparison always ignores the override.
    pub strategy: Option<Strategy>,
    /// Rung-count override for replica exchange (`--replicas`): rebuild
    /// each method's ladder to this many geometric rungs before tempering.
    pub replicas: Option<usize>,
    /// Adaptive-schedule override (`--schedule adaptive|asa`): derive each
    /// instance's temperature schedule from a probe of its delta statistics
    /// instead of the §4.2.1 grid-swept values, charging the probe against
    /// the run budget. `None` keeps the tuned schedules.
    pub schedule: Option<AdaptiveMode>,
}

impl SuiteConfig {
    /// Paper-faithful configuration at the default seed.
    pub fn paper() -> Self {
        SuiteConfig {
            seed: DEFAULT_SEED,
            scale: Scale::FULL,
            threads: 1,
            retry: RetryPolicy::none(),
            watchdog: None,
            strategy: None,
            replicas: None,
            schedule: None,
        }
    }

    /// A configuration with budgets divided by `divisor` — the table shapes
    /// survive moderate scaling (the paper's 6/9/12-second ratios are
    /// preserved).
    pub fn scaled(divisor: u64) -> Self {
        SuiteConfig {
            scale: Scale::new(divisor),
            ..Self::paper()
        }
    }

    /// Same configuration at another seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same configuration with table cells fanned out over `threads` OS
    /// threads (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Same configuration with a retry policy for failed cell instances.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Same configuration with a per-instance watchdog deadline.
    pub fn with_watchdog(mut self, timeout: Option<Duration>) -> Self {
        self.watchdog = timeout;
        self
    }

    /// Same configuration running the tables under `strategy` instead of
    /// their paper-faithful default.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Same configuration with a replica-exchange rung-count override.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = Some(replicas);
        self
    }

    /// Same configuration with an adaptive-schedule override.
    pub fn with_schedule(mut self, schedule: AdaptiveMode) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// The strategy the single-strategy tables run: the `--strategy`
    /// override, or the paper's Figure 1.
    pub fn table_strategy(&self) -> Strategy {
        self.strategy.unwrap_or(Strategy::Figure1)
    }

    /// The per-cell execution policy this configuration implies.
    pub fn cell_policy(&self) -> CellPolicy {
        CellPolicy {
            threads: self.threads,
            retry: self.retry,
            watchdog: self.watchdog,
        }
    }
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_full_scale() {
        let c = SuiteConfig::paper();
        assert_eq!(c.scale, Scale::FULL);
        assert_eq!(c.seed, DEFAULT_SEED);
    }

    #[test]
    fn scaled_divides() {
        let c = SuiteConfig::scaled(10);
        assert_eq!(c.scale.divisor, 10);
        assert_eq!(c.with_seed(4).seed, 4);
    }

    #[test]
    fn cell_policy_mirrors_config() {
        let c = SuiteConfig::paper()
            .with_threads(4)
            .with_retry(RetryPolicy::new(3, Duration::from_millis(50)))
            .with_watchdog(Some(Duration::from_secs(30)));
        let p = c.cell_policy();
        assert_eq!(p.threads, 4);
        assert_eq!(p.retry.attempts, 3);
        assert_eq!(p.watchdog, Some(Duration::from_secs(30)));
        let default = SuiteConfig::paper().cell_policy();
        assert_eq!(default, CellPolicy::sequential());
    }
}
