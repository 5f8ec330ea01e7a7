//! Acceptance functions ("g functions", §3 of the paper).
//!
//! A [`GFunction`] bundles a functional [`Form`], a temperature
//! [`Schedule`] and an optional rejection-counter [`Gate`],
//! and provides constructors for all 20 classes enumerated in §3 plus the
//! \[COHO83a\] baseline used in §4.2.2.
//!
//! | # | Class | Constructor |
//! |---|-------|-------------|
//! | 1 | Metropolis | [`GFunction::metropolis`] |
//! | 2 | Six Temperature Annealing | [`GFunction::six_temp_annealing`] |
//! | 3 | g = 1 | [`GFunction::unit`] |
//! | 4 | Two Level g | [`GFunction::two_level`] |
//! | 5–7 | Linear / Quadratic / Cubic | [`GFunction::poly_current`] |
//! | 8 | Exponential | [`GFunction::exp_current`] |
//! | 9–11 | 6 Linear / Quadratic / Cubic | [`GFunction::poly_current_six`] |
//! | 12 | 6 Exponential | [`GFunction::exp_current_six`] |
//! | 13–15 | Linear / Quadratic / Cubic Diff | [`GFunction::poly_difference`] |
//! | 16 | Exponential Diff | [`GFunction::exp_difference`] |
//! | 17–19 | 6 Linear / Quadratic / Cubic Diff | [`GFunction::poly_difference_six`] |
//! | 20 | 6 Exponential Diff | [`GFunction::exp_difference_six`] |
//! | — | \[COHO83a\] | [`GFunction::coho83a`] |

mod form;
mod gate;

pub use form::Form;
pub use gate::{Gate, PAPER_GATE_PERIOD};

use crate::schedule::Schedule;
use rand::{Rng, RngExt};

/// The ratio of Kirkpatrick's geometric schedule (§1: `Y_i = 0.9·Y_{i-1}`).
pub const KIRKPATRICK_RATIO: f64 = 0.9;

/// A complete acceptance function: form × schedule × optional gate.
///
/// `GFunction` is *stateful* (the gate carries a rejection counter), so
/// strategies take it by `&mut` and call [`reset`](GFunction::reset) at the
/// start of a run.
///
/// # Examples
///
/// ```
/// use anneal_core::GFunction;
///
/// let mut g = GFunction::six_temp_annealing(10.0);
/// assert_eq!(g.temperatures(), 6);
/// assert_eq!(g.name(), "Six Temperature Annealing");
/// // At Y₁ = 10, an uphill move of +1 is accepted with p = e^{-0.1}.
/// let p = g.probability(0, 50.0, 51.0);
/// assert!((p - (-0.1f64).exp()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct GFunction {
    name: String,
    form: Form,
    schedule: Schedule,
    gate: Option<Gate>,
    /// Per-temperature decision fast path, rebuilt whenever the form or
    /// schedule changes. Purely an evaluation shortcut: every branch makes
    /// exactly the decision (and consumes exactly the random draws) the
    /// general `Form::probability` path would.
    fast: Vec<FastDecision>,
}

/// The precomputed decision strategy for one temperature index.
#[derive(Debug, Clone, Copy)]
enum FastDecision {
    /// The scheduled probability is identically 1 (e.g. `g = 1`): accept,
    /// routing strictly-uphill moves through the gate. Never draws.
    AlwaysOne,
    /// A cost-independent probability below 1 (e.g. two-level g's second
    /// level): downhill accepts free, anything else is one cached-threshold
    /// coin flip.
    Coin(f64),
    /// Boltzmann at the cached temperature: flat and downhill moves accept
    /// without evaluating `exp()`; strictly-uphill moves compute the
    /// identical `e^{-dh/y}` expression the general path would.
    Boltzmann(f64),
    /// Cost-dependent forms: defer to `Form::probability`.
    General,
}

fn classify(form: Form, y: f64) -> FastDecision {
    match form {
        Form::Boltzmann => FastDecision::Boltzmann(y),
        Form::Constant => {
            let p = y.clamp(0.0, 1.0);
            if p >= 1.0 {
                FastDecision::AlwaysOne
            } else {
                FastDecision::Coin(p)
            }
        }
        _ => FastDecision::General,
    }
}

impl GFunction {
    /// A custom acceptance function. Prefer the named constructors for the
    /// paper's classes.
    pub fn new(name: impl Into<String>, form: Form, schedule: Schedule) -> Self {
        let mut g = GFunction {
            name: name.into(),
            form,
            schedule,
            gate: None,
            fast: Vec::new(),
        };
        g.rebuild_fast();
        g
    }

    fn rebuild_fast(&mut self) {
        self.fast = (0..self.schedule.len())
            .map(|t| classify(self.form, self.schedule.value(t)))
            .collect();
    }

    // ----- the paper's classes -------------------------------------------

    /// Class 1 — Metropolis: `k = 1`, `g₁ = e^{-(h(j)-h(i))/Y₁}`.
    pub fn metropolis(y1: f64) -> Self {
        Self::new("Metropolis", Form::Boltzmann, Schedule::single(y1))
    }

    /// Class 2 — Six Temperature Annealing: Boltzmann acceptance over
    /// Kirkpatrick's geometric schedule starting at `y1` (ratio 0.9, k = 6).
    pub fn six_temp_annealing(y1: f64) -> Self {
        Self::new(
            "Six Temperature Annealing",
            Form::Boltzmann,
            Schedule::geometric(y1, KIRKPATRICK_RATIO, 6),
        )
    }

    /// Boltzmann acceptance over an arbitrary schedule (e.g. \[GOLD84\]'s
    /// 25-point uniform schedule).
    pub fn annealing(schedule: Schedule) -> Self {
        Self::new("Annealing", Form::Boltzmann, schedule)
    }

    /// Class 3 — `g = 1`: every uphill move accepted, gated under Figure 1 by
    /// the paper's 18-rejection counter (§3). The gate is inert under the
    /// Figure-2 strategy ("no special considerations are needed").
    pub fn unit() -> Self {
        let mut g = Self::new("g = 1", Form::Constant, Schedule::single(1.0));
        g.gate = Some(Gate::paper());
        g
    }

    /// Class 4 — Two Level g: `k = 2`, `g₁ = 1`, `g₂ = 0.5`. The probability-1
    /// first level carries the same Figure-1 gate as [`unit`](Self::unit)
    /// (see DESIGN.md: the gate applies whenever the scheduled probability
    /// is 1, preventing the same random-walk degeneracy).
    pub fn two_level() -> Self {
        let mut g = Self::new(
            "Two level g",
            Form::Constant,
            Schedule::explicit(vec![1.0, 0.5]),
        );
        g.gate = Some(Gate::paper());
        g
    }

    /// Classes 5–7 — Linear/Quadratic/Cubic: `g₁ = Y₁·h(i)^degree`, `k = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is not 1, 2 or 3.
    pub fn poly_current(degree: u32, y1: f64) -> Self {
        Self::new(
            poly_name(degree, false, false),
            Form::PolyCurrent { degree },
            Schedule::single(y1),
        )
    }

    /// Class 8 — Exponential: `g₁ = (e^{h(i)/Y₁} - 1)/(e - 1)`, `k = 1`.
    pub fn exp_current(y1: f64) -> Self {
        Self::new("Exponential", Form::ExpCurrent, Schedule::single(y1))
    }

    /// Classes 9–11 — 6 Linear/Quadratic/Cubic: `g_t = Y_t·h(i)^degree` over a
    /// six-temperature geometric schedule starting at `y1`.
    pub fn poly_current_six(degree: u32, y1: f64) -> Self {
        Self::new(
            poly_name(degree, true, false),
            Form::PolyCurrent { degree },
            Schedule::geometric(y1, KIRKPATRICK_RATIO, 6),
        )
    }

    /// Class 12 — 6 Exponential.
    pub fn exp_current_six(y1: f64) -> Self {
        Self::new(
            "6 Exponential",
            Form::ExpCurrent,
            Schedule::geometric(y1, KIRKPATRICK_RATIO, 6),
        )
    }

    /// Classes 13–15 — Linear/Quadratic/Cubic Difference:
    /// `g₁ = Y₁/(h(j)-h(i))^degree`, `k = 1`.
    pub fn poly_difference(degree: u32, y1: f64) -> Self {
        Self::new(
            poly_name(degree, false, true),
            Form::PolyDifference { degree },
            Schedule::single(y1),
        )
    }

    /// Class 16 — Exponential Difference:
    /// `g₁ = (e^{Y₁/(h(j)-h(i))} - 1)/(e - 1)`, `k = 1`.
    pub fn exp_difference(y1: f64) -> Self {
        Self::new(
            "Exponential Diff",
            Form::ExpDifference,
            Schedule::single(y1),
        )
    }

    /// Classes 17–19 — 6 Linear/Quadratic/Cubic Difference over a
    /// six-temperature geometric schedule.
    pub fn poly_difference_six(degree: u32, y1: f64) -> Self {
        Self::new(
            poly_name(degree, true, true),
            Form::PolyDifference { degree },
            Schedule::geometric(y1, KIRKPATRICK_RATIO, 6),
        )
    }

    /// Class 20 — 6 Exponential Difference.
    pub fn exp_difference_six(y1: f64) -> Self {
        Self::new(
            "6 Exponential Diff",
            Form::ExpDifference,
            Schedule::geometric(y1, KIRKPATRICK_RATIO, 6),
        )
    }

    /// The \[COHO83a\] acceptance function `g(h) = min(h/(m+5), 0.9)` for an
    /// instance with `m` nets (§4.2.2).
    pub fn coho83a(m: usize) -> Self {
        Self::new(
            "[COHO83a]",
            Form::Coho83a { m: m as f64 },
            Schedule::single(1.0),
        )
    }

    // ----- configuration --------------------------------------------------

    /// Replaces the schedule (used by the tuner to rescale temperatures).
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self.rebuild_fast();
        self
    }

    /// Overwrites one temperature in place — the adaptive controller's
    /// feedback hook, called at stage boundaries. Rebuilds only the affected
    /// fast-path entry; like the other schedule mutators it never draws
    /// randomness, so attaching a controller cannot perturb RNG parity.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.temperatures()` or `y` is not finite and
    /// positive.
    pub fn set_temperature(&mut self, t: usize, y: f64) {
        self.schedule.set_value(t, y);
        self.fast[t] = classify(self.form, y);
    }

    /// Overrides the Figure-1 gate (e.g. to ablate the paper's period of 18).
    pub fn with_gate(mut self, gate: Option<Gate>) -> Self {
        self.gate = gate;
        self
    }

    /// Renames the function (for table display).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    // ----- queries ---------------------------------------------------------

    /// Display name, matching the paper's table rows.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The functional form.
    pub fn form(&self) -> Form {
        self.form
    }

    /// The temperature schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Number of temperatures `k`.
    pub fn temperatures(&self) -> usize {
        self.schedule.len()
    }

    /// The configured gate, if any.
    pub fn gate(&self) -> Option<&Gate> {
        self.gate.as_ref()
    }

    /// The raw acceptance probability at temperature index `t` (0-based),
    /// ignoring the gate.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.temperatures()`.
    pub fn probability(&self, t: usize, h_i: f64, h_j: f64) -> f64 {
        self.form.probability(h_i, h_j, self.schedule.value(t))
    }

    // ----- stateful decisions used by the strategies -----------------------

    /// Restores gate state for a fresh run.
    pub fn reset(&mut self) {
        if let Some(g) = &mut self.gate {
            g.reset();
        }
    }

    /// Notifies the gate that an energy-reducing perturbation occurred
    /// (Figure 1, Step 3).
    pub fn note_downhill(&mut self) {
        if let Some(g) = &mut self.gate {
            g.on_downhill();
        }
    }

    /// Figure-1 uphill decision: draws `r` and compares against
    /// `g_t(h(i), h(j))`, except that a scheduled probability of 1 is routed
    /// through the gate when one is configured (the paper's `g = 1`
    /// implementation, §3).
    ///
    /// The gate only governs *strictly higher-energy* configurations ("the
    /// higher energy configuration does not become the starting point…");
    /// cost-neutral perturbations are accepted freely and leave the gate
    /// counter untouched. This matters for objectives like the arrangement
    /// density, where most perturbations do not change the maximum.
    pub fn decide_figure1(&mut self, t: usize, h_i: f64, h_j: f64, rng: &mut dyn Rng) -> bool {
        self.decide::<true>(t, h_i, h_j, rng)
    }

    /// Figure-2 uphill decision: plain `r < g_t(h(i), h(j))`; the gate is
    /// never consulted ("no special considerations are needed", §3).
    pub fn decide_figure2(&mut self, t: usize, h_i: f64, h_j: f64, rng: &mut dyn Rng) -> bool {
        self.decide::<false>(t, h_i, h_j, rng)
    }

    /// The decision of both strategies, compiled once for each: `GATED`
    /// routes a certain uphill acceptance through the gate (Figure 1).
    #[inline]
    fn decide<const GATED: bool>(
        &mut self,
        t: usize,
        h_i: f64,
        h_j: f64,
        rng: &mut dyn Rng,
    ) -> bool {
        // Every fast-path branch reproduces the general path bit for bit:
        // the same decision from the same number of random draws.
        let p = match self.fast[t] {
            FastDecision::AlwaysOne => 1.0,
            FastDecision::Coin(p) => {
                if h_j < h_i {
                    return true;
                }
                p
            }
            FastDecision::Boltzmann(y) => {
                let dh = h_j - h_i;
                // Flat moves skip exp(): e^{∓0/y} is exactly 1 for y ≠ 0.
                // (y = 0 falls through so 0/0 → NaN rejects as always.)
                if dh < 0.0 || (dh == 0.0 && y != 0.0) {
                    return true;
                }
                (-dh / y).exp()
            }
            FastDecision::General => self.probability(t, h_i, h_j),
        };
        if p >= 1.0 {
            if GATED && h_j > h_i {
                if let Some(g) = &mut self.gate {
                    return g.on_uphill();
                }
            }
            return true;
        }
        rng.random_range(0.0..1.0) < p
    }
}

fn poly_name(degree: u32, six: bool, diff: bool) -> String {
    let base = match degree {
        1 => "Linear",
        2 => "Quadratic",
        3 => "Cubic",
        _ => panic!("polynomial degree must be 1, 2 or 3, got {degree}"),
    };
    match (six, diff) {
        (false, false) => base.to_string(),
        (true, false) => format!("6 {base}"),
        (false, true) => format!("{base} Diff"),
        (true, true) => format!("6 {base} Diff"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn constructor_names_match_paper_tables() {
        assert_eq!(GFunction::metropolis(2.0).name(), "Metropolis");
        assert_eq!(
            GFunction::six_temp_annealing(10.0).name(),
            "Six Temperature Annealing"
        );
        assert_eq!(GFunction::unit().name(), "g = 1");
        assert_eq!(GFunction::two_level().name(), "Two level g");
        assert_eq!(GFunction::poly_current(1, 0.1).name(), "Linear");
        assert_eq!(GFunction::poly_current(2, 0.1).name(), "Quadratic");
        assert_eq!(GFunction::poly_current(3, 0.1).name(), "Cubic");
        assert_eq!(GFunction::exp_current(10.0).name(), "Exponential");
        assert_eq!(GFunction::poly_current_six(1, 0.1).name(), "6 Linear");
        assert_eq!(GFunction::exp_current_six(10.0).name(), "6 Exponential");
        assert_eq!(GFunction::poly_difference(1, 1.0).name(), "Linear Diff");
        assert_eq!(GFunction::poly_difference(3, 1.0).name(), "Cubic Diff");
        assert_eq!(GFunction::exp_difference(1.0).name(), "Exponential Diff");
        assert_eq!(
            GFunction::poly_difference_six(2, 1.0).name(),
            "6 Quadratic Diff"
        );
        assert_eq!(
            GFunction::exp_difference_six(1.0).name(),
            "6 Exponential Diff"
        );
        assert_eq!(GFunction::coho83a(150).name(), "[COHO83a]");
    }

    #[test]
    fn class_counts() {
        assert_eq!(GFunction::metropolis(1.0).temperatures(), 1);
        assert_eq!(GFunction::six_temp_annealing(10.0).temperatures(), 6);
        assert_eq!(GFunction::two_level().temperatures(), 2);
        assert_eq!(GFunction::poly_difference_six(3, 1.0).temperatures(), 6);
    }

    #[test]
    fn unit_gate_blocks_then_opens() {
        let mut g = GFunction::unit();
        let mut rng = StdRng::seed_from_u64(1);
        let mut accepted = 0;
        for _ in 0..36 {
            if g.decide_figure1(0, 50.0, 51.0, &mut rng) {
                accepted += 1;
            }
        }
        // 36 consecutive uphill proposals: accepts at #18 and #35 (counter
        // restarts at 1 after opening).
        assert_eq!(accepted, 2);
    }

    #[test]
    fn unit_under_figure2_accepts_everything() {
        let mut g = GFunction::unit();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert!(g.decide_figure2(0, 50.0, 51.0, &mut rng));
        }
    }

    #[test]
    fn downhill_note_resets_gate() {
        let mut g = GFunction::unit();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..17 {
            assert!(!g.decide_figure1(0, 50.0, 51.0, &mut rng));
        }
        g.note_downhill();
        // Gate counter back to 0: 17 more rejections before acceptance.
        for _ in 0..17 {
            assert!(!g.decide_figure1(0, 50.0, 51.0, &mut rng));
        }
        assert!(g.decide_figure1(0, 50.0, 51.0, &mut rng));
    }

    #[test]
    fn reset_restores_fresh_gate() {
        let mut g = GFunction::unit();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..17 {
            let _ = g.decide_figure1(0, 50.0, 51.0, &mut rng);
        }
        g.reset();
        assert!(!g.decide_figure1(0, 50.0, 51.0, &mut rng));
    }

    #[test]
    fn two_level_second_level_is_probabilistic() {
        let mut g = GFunction::two_level();
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 10_000;
        let accepted = (0..trials)
            .filter(|_| g.decide_figure2(1, 50.0, 51.0, &mut rng))
            .count();
        let rate = accepted as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.03, "level-2 rate {rate} ≉ 0.5");
    }

    #[test]
    fn metropolis_acceptance_rate_matches_probability() {
        let mut g = GFunction::metropolis(2.0);
        let mut rng = StdRng::seed_from_u64(7);
        let p = g.probability(0, 10.0, 12.0); // e^{-1}
        let trials = 20_000;
        let accepted = (0..trials)
            .filter(|_| g.decide_figure1(0, 10.0, 12.0, &mut rng))
            .count();
        let rate = accepted as f64 / trials as f64;
        assert!((rate - p).abs() < 0.02, "rate {rate} ≉ p {p}");
    }

    /// The pre-cache decision procedure, kept verbatim as the semantic
    /// reference for the fast paths.
    fn reference_decide_figure1(
        g: &mut GFunction,
        t: usize,
        h_i: f64,
        h_j: f64,
        rng: &mut dyn Rng,
    ) -> bool {
        let p = g.probability(t, h_i, h_j);
        if p >= 1.0 {
            if h_j > h_i {
                if let Some(gate) = &mut g.gate {
                    return gate.on_uphill();
                }
            }
            return true;
        }
        rng.random_range(0.0..1.0) < p
    }

    fn reference_decide_figure2(
        g: &mut GFunction,
        t: usize,
        h_i: f64,
        h_j: f64,
        rng: &mut dyn Rng,
    ) -> bool {
        let p = g.probability(t, h_i, h_j);
        p >= 1.0 || rng.random_range(0.0..1.0) < p
    }

    #[test]
    fn fast_paths_match_general_semantics() {
        // Every class, both strategies: the cached fast paths must return
        // the same decisions AND consume the same number of random draws as
        // the general probability-then-compare procedure. The lockstep
        // next_u64 comparison each round catches any draw-count divergence
        // immediately.
        let classes: Vec<GFunction> = vec![
            GFunction::metropolis(1.5),
            GFunction::six_temp_annealing(2.0),
            GFunction::unit(),
            GFunction::two_level(),
            GFunction::poly_current(2, 1e-4),
            GFunction::exp_current(100.0),
            GFunction::poly_difference(3, 0.4),
            GFunction::exp_difference(0.7),
            GFunction::coho83a(150),
            GFunction::metropolis(1e-300), // near-degenerate temperature
        ];
        let deltas = [-3.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 5.0, 40.0];
        for proto in classes {
            for figure2 in [false, true] {
                let mut fast_g = proto.clone();
                let mut ref_g = proto.clone();
                let mut rng_a = StdRng::seed_from_u64(99);
                let mut rng_b = StdRng::seed_from_u64(99);
                let mut costs = StdRng::seed_from_u64(7);
                for step in 0..2000usize {
                    let t = step % proto.temperatures();
                    let h_i = costs.random_range(1..100) as f64;
                    let h_j = h_i + deltas[costs.random_range(0..deltas.len())];
                    let (a, b) = if figure2 {
                        (
                            fast_g.decide_figure2(t, h_i, h_j, &mut rng_a),
                            reference_decide_figure2(&mut ref_g, t, h_i, h_j, &mut rng_b),
                        )
                    } else {
                        (
                            fast_g.decide_figure1(t, h_i, h_j, &mut rng_a),
                            reference_decide_figure1(&mut ref_g, t, h_i, h_j, &mut rng_b),
                        )
                    };
                    assert_eq!(
                        a,
                        b,
                        "{} t={t} h_i={h_i} h_j={h_j} figure2={figure2}",
                        proto.name()
                    );
                    assert_eq!(
                        rng_a.next_u64(),
                        rng_b.next_u64(),
                        "{} diverged in rng consumption at step {step}",
                        proto.name()
                    );
                }
            }
        }
    }

    #[test]
    fn set_temperature_updates_fast_path() {
        let mut g = GFunction::six_temp_annealing(10.0);
        g.set_temperature(2, 4.0);
        assert!((g.schedule().value(2) - 4.0).abs() < 1e-12);
        // The fast path at index 2 must now decide at the new temperature:
        // probability and decision statistics match a fresh GFunction built
        // on the mutated schedule.
        let fresh = GFunction::annealing(g.schedule().clone());
        assert_eq!(
            g.probability(2, 10.0, 12.0).to_bits(),
            fresh.probability(2, 10.0, 12.0).to_bits()
        );
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let mut fresh = fresh;
        for _ in 0..500 {
            assert_eq!(
                g.decide_figure1(2, 10.0, 12.0, &mut rng_a),
                fresh.decide_figure1(2, 10.0, 12.0, &mut rng_b)
            );
        }
    }

    #[test]
    #[should_panic(expected = "degree must be 1, 2 or 3")]
    fn bad_degree_panics() {
        let _ = GFunction::poly_current(4, 1.0);
    }
}
