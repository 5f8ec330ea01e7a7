//! Process exit codes shared by the workspace binaries.
//!
//! The codes were previously scattered as bare literals across `repro` and
//! `report`; unifying them here keeps the contract between the binaries,
//! the CI jobs and the integration tests in one place. The conventions
//! follow common Unix practice: `0` ok, small positive codes for specific
//! tool outcomes, `128 + signal` for runs ended by a signal.

/// Clean exit: everything requested completed.
pub const OK: u8 = 0;

/// Usage error: bad flags or arguments (nothing ran).
pub const USAGE: u8 = 1;

/// The suite completed but degraded: failed cells, tripped breakers or
/// lost telemetry records. A failure manifest names the casualties.
pub const DEGRADED: u8 = 2;

/// `report --compare --strict` found a regression beyond the threshold.
pub const BENCH_REGRESSION: u8 = 3;

/// A hidden `--worker-cell` child ran but could not hand back its target
/// cell's record (the supervisor treats this as a retryable process
/// failure).
pub const WORKER_NO_RECORD: u8 = 4;

/// `repro job SPEC.json` executed the job but it ended failed or
/// cancelled instead of done.
pub const JOB_FAILED: u8 = 5;

/// `SIGINT` signal number (used with [`for_signal`]).
pub const SIGINT: i32 = 2;

/// `SIGTERM` signal number (used with [`for_signal`]).
pub const SIGTERM: i32 = 15;

/// The conventional `128 + n` exit code for a run ended by signal `n`
/// (after a graceful drain): `130` for SIGINT, `143` for SIGTERM.
pub fn for_signal(signal: i32) -> u8 {
    128u8.wrapping_add(signal.clamp(0, 64) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_conventional() {
        let codes = [
            OK,
            USAGE,
            DEGRADED,
            BENCH_REGRESSION,
            WORKER_NO_RECORD,
            JOB_FAILED,
        ];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(for_signal(SIGINT), 130);
        assert_eq!(for_signal(SIGTERM), 143);
    }
}
