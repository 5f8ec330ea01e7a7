//! Live progress reporting for `repro --progress`.
//!
//! A [`Progress`] is notified once per completed cell and redraws a single
//! stderr status line: cells done (against the expected total when it is
//! known), percent, elapsed time, a naive ETA, and running retry/failure
//! counts. Stderr keeps stdout clean for the tables themselves, and the
//! line is rewritten in place with `\r` so a long suite shows a ticker,
//! not a scroll.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::config::SuiteConfig;
use crate::ops::OpsBoard;
use crate::tables;

/// A thread-safe cell-completion ticker writing to stderr.
#[derive(Debug)]
pub struct Progress {
    state: Mutex<State>,
    total: Option<usize>,
    /// Live ops board: under `--isolation process` the ticker appends the
    /// supervisor's worker-liveness fragment (same state `/progress`
    /// serves).
    ops: Option<Arc<OpsBoard>>,
}

#[derive(Debug)]
struct State {
    started: Instant,
    done: usize,
    retried: usize,
    failed: usize,
    /// Length of the last line drawn, for clean `\r` overwrites.
    last_len: usize,
}

impl Progress {
    /// A ticker expecting `total` cells (`None` when the suite mix makes
    /// the count unknown — the line then shows a bare counter).
    pub fn new(total: Option<usize>) -> Self {
        Progress {
            state: Mutex::new(State {
                started: Instant::now(),
                done: 0,
                retried: 0,
                failed: 0,
                last_len: 0,
            }),
            total: total.filter(|&t| t > 0),
            ops: None,
        }
    }

    /// Attaches a live ops board (builder style): when a supervisor is
    /// feeding it, the ticker shows worker liveness (live/respawning,
    /// oldest heartbeat age). `None` clears it.
    pub fn with_ops(mut self, ops: Option<Arc<OpsBoard>>) -> Self {
        self.ops = ops;
        self
    }

    /// Notes one completed cell and redraws the status line. `ok` is
    /// whether the cell completed cleanly; `attempts` is how many tries it
    /// took (> 1 counts as a retry).
    pub fn cell_done(&self, ok: bool, attempts: u32) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.done += 1;
        if attempts > 1 {
            state.retried += 1;
        }
        if !ok {
            state.failed += 1;
        }
        let line = self.render(&state);
        draw(&mut state, &line);
    }

    fn render(&self, state: &State) -> String {
        let elapsed = state.started.elapsed().as_secs_f64();
        let mut line = match self.total {
            Some(total) => {
                let pct = 100.0 * state.done as f64 / total as f64;
                let mut l = format!("cells {}/{total} ({pct:.0}%)", state.done);
                if state.done > 0 && state.done < total {
                    let eta = elapsed / state.done as f64 * (total - state.done) as f64;
                    l.push_str(&format!(", eta {}", fmt_secs(eta)));
                }
                l
            }
            None => format!("cells {}", state.done),
        };
        line.push_str(&format!(", elapsed {}", fmt_secs(elapsed)));
        if state.retried > 0 {
            line.push_str(&format!(", {} retried", state.retried));
        }
        if state.failed > 0 {
            line.push_str(&format!(", {} FAILED", state.failed));
        }
        if let Some(fragment) = self.ops.as_ref().and_then(|b| b.ticker_fragment()) {
            line.push_str(&format!(", {fragment}"));
        }
        line
    }

    /// Ends the ticker line with a newline so the summary that follows
    /// starts clean. Harmless to call when nothing was drawn.
    pub fn finish(&self) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.last_len > 0 {
            eprintln!();
        }
    }
}

fn draw(state: &mut State, line: &str) {
    let mut err = std::io::stderr().lock();
    // Pad with spaces to erase any longer previous line.
    let pad = state.last_len.saturating_sub(line.len());
    let _ = write!(err, "\r{line}{}", " ".repeat(pad));
    let _ = err.flush();
    state.last_len = line.len();
}

fn fmt_secs(secs: f64) -> String {
    if secs >= 60.0 {
        format!("{}m{:02}s", (secs / 60.0) as u64, (secs % 60.0) as u64)
    } else {
        format!("{secs:.0}s")
    }
}

/// The number of cells the given experiment selection will record: the
/// length of each table's cell list. Any experiment that records no cells
/// (tuning sweeps, extensions, diagnostics) makes the total unknown, and
/// the ticker then shows a bare counter.
pub fn expected_cells(experiments: &[String], config: &SuiteConfig) -> Option<usize> {
    experiments
        .iter()
        .map(|exp| Some(tables::spec(exp, config)?.cell_count()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counts_eta_and_flags() {
        let p = Progress::new(Some(4));
        {
            let mut s = p.state.lock().unwrap();
            s.done = 2;
            s.retried = 1;
            s.failed = 1;
            let line = p.render(&s);
            assert!(line.contains("cells 2/4 (50%)"), "{line}");
            assert!(line.contains("eta"), "{line}");
            assert!(line.contains("1 retried"), "{line}");
            assert!(line.contains("1 FAILED"), "{line}");
        }
        p.cell_done(true, 1);
        p.finish();
    }

    #[test]
    fn unknown_total_is_a_bare_counter() {
        let p = Progress::new(None);
        let mut s = p.state.lock().unwrap();
        s.done = 7;
        let line = p.render(&s);
        assert!(line.starts_with("cells 7,"), "{line}");
        assert!(!line.contains('%'));
    }

    #[test]
    fn zero_total_behaves_like_unknown() {
        let p = Progress::new(Some(0));
        assert!(p.total.is_none());
    }

    #[test]
    fn ticker_appends_worker_liveness_from_the_ops_board() {
        let board = crate::ops::OpsBoard::new(Some(4));
        board.worker_spawned(0, false);
        let p = Progress::new(Some(4)).with_ops(Some(board));
        let s = p.state.lock().unwrap();
        let line = p.render(&s);
        assert!(line.contains("1 worker(s) live"), "{line}");
        assert!(line.contains("oldest hb"), "{line}");
    }

    #[test]
    fn fmt_secs_switches_to_minutes() {
        assert_eq!(fmt_secs(5.4), "5s");
        assert_eq!(fmt_secs(125.0), "2m05s");
    }
}
