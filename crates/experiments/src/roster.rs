//! The method roster: the paper's 20 g-function classes (plus \[COHO83a\])
//! with their tuned temperatures, in the paper's table order.

use std::sync::Arc;

use anneal_core::GFunction;

/// Per-instance context a method may need when instantiating its g function
/// (the \[COHO83a\] function depends on the instance's net count).
#[derive(Debug, Clone, Copy)]
pub struct MethodCtx {
    /// Number of nets `m` in the instance.
    pub n_nets: usize,
}

/// A named acceptance-function factory. Cloning shares the factory.
#[derive(Clone)]
pub struct MethodSpec {
    name: &'static str,
    make: Arc<dyn Fn(&MethodCtx) -> GFunction + Send + Sync>,
}

impl MethodSpec {
    /// A method with a context-independent g function.
    pub fn new(name: &'static str, g: impl Fn() -> GFunction + Send + Sync + 'static) -> Self {
        MethodSpec {
            name,
            make: Arc::new(move |_| g()),
        }
    }

    /// A method whose g function depends on the instance.
    pub fn with_ctx(
        name: &'static str,
        g: impl Fn(&MethodCtx) -> GFunction + Send + Sync + 'static,
    ) -> Self {
        MethodSpec {
            name,
            make: Arc::new(g),
        }
    }

    /// The display name (matches the paper's table rows).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Instantiates the g function for an instance.
    pub fn g(&self, ctx: &MethodCtx) -> GFunction {
        (self.make)(ctx)
    }
}

impl std::fmt::Debug for MethodSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MethodSpec")
            .field("name", &self.name)
            .finish()
    }
}

/// Tuned temperature parameters per g class, found with the §4.2.1 procedure
/// (`repro tuning` re-derives them; see EXPERIMENTS.md).
///
/// The paper's GOLA instances have random-arrangement densities around
/// 80–90 and uphill deltas concentrated on {0, 1, 2}, which sets the scale
/// of each class's usable temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedY {
    /// Class 1 (Metropolis) `Y₁`.
    pub metropolis: f64,
    /// Class 2 (six-temperature annealing) starting `Y₁` (ratio 0.9).
    pub annealing6: f64,
    /// Classes 5–7 (`Y·h(i)^d`) `Y₁` by degree.
    pub poly_current: [f64; 3],
    /// Class 8 (`(e^{h/Y}-1)/(e-1)`) `Y₁`.
    pub exp_current: f64,
    /// Classes 9–11 starting `Y₁` by degree.
    pub poly_current6: [f64; 3],
    /// Class 12 starting `Y₁`.
    pub exp_current6: f64,
    /// Classes 13–15 (`Y/Δ^d`) `Y₁` by degree.
    pub poly_diff: [f64; 3],
    /// Class 16 (`(e^{Y/Δ}-1)/(e-1)`) `Y₁`.
    pub exp_diff: f64,
    /// Classes 17–19 starting `Y₁` by degree.
    pub poly_diff6: [f64; 3],
    /// Class 20 starting `Y₁`.
    pub exp_diff6: f64,
}

impl TunedY {
    /// Temperatures tuned on the paper's 30-instance GOLA training set
    /// (15 elements, 150 two-pin nets) with the Figure-1 strategy, as in
    /// §4.2.1 — the winners of two full-scale `repro tuning` sweeps
    /// (5 paper-seconds per instance, ×⅛…×8 multiplicative grid, recentered
    /// between sweeps).
    pub fn gola_defaults() -> Self {
        TunedY {
            metropolis: 0.75,
            annealing6: 1.0,
            poly_current: [3.125e-4, 3.75e-6, 5e-8],
            exp_current: 2400.0,
            poly_current6: [3.125e-4, 7.5e-6, 5e-8],
            exp_current6: 2400.0,
            poly_diff: [0.05, 0.1, 0.2],
            exp_diff: 0.175,
            poly_diff6: [0.125, 0.25, 0.25],
            exp_diff6: 0.225,
        }
    }
}

impl Default for TunedY {
    fn default() -> Self {
        Self::gola_defaults()
    }
}

/// The full Table-4.1 roster: \[COHO83a\] plus all 20 g classes, in the
/// paper's row order. (The Goto constructive is not a g class and is handled
/// by the table runners directly.)
pub fn full_roster(t: TunedY) -> Vec<MethodSpec> {
    let mut roster = vec![
        MethodSpec::with_ctx("[COHO83a]", |ctx| GFunction::coho83a(ctx.n_nets)),
        MethodSpec::new("Metropolis", move || GFunction::metropolis(t.metropolis)),
        MethodSpec::new("Six Temperature Annealing", move || {
            GFunction::six_temp_annealing(t.annealing6)
        }),
        MethodSpec::new("g = 1", GFunction::unit),
        MethodSpec::new("Two level g", GFunction::two_level),
        MethodSpec::new("Linear", move || {
            GFunction::poly_current(1, t.poly_current[0])
        }),
        MethodSpec::new("Quadratic", move || {
            GFunction::poly_current(2, t.poly_current[1])
        }),
        MethodSpec::new("Cubic", move || {
            GFunction::poly_current(3, t.poly_current[2])
        }),
        MethodSpec::new("Exponential", move || GFunction::exp_current(t.exp_current)),
        MethodSpec::new("6 Linear", move || {
            GFunction::poly_current_six(1, t.poly_current6[0])
        }),
        MethodSpec::new("6 Quadratic", move || {
            GFunction::poly_current_six(2, t.poly_current6[1])
        }),
        MethodSpec::new("6 Cubic", move || {
            GFunction::poly_current_six(3, t.poly_current6[2])
        }),
        MethodSpec::new("6 Exponential", move || {
            GFunction::exp_current_six(t.exp_current6)
        }),
    ];
    roster.extend(diff_classes(t));
    roster
}

/// The reduced roster used by Tables 4.2(a)–(d): the paper drops classes
/// 5–12 "because of their poor performance on the GOLA instances" (§4.3.1),
/// leaving 13 methods.
pub fn reduced_roster(t: TunedY) -> Vec<MethodSpec> {
    let mut roster = vec![
        MethodSpec::with_ctx("[COHO83a]", |ctx| GFunction::coho83a(ctx.n_nets)),
        MethodSpec::new("Metropolis", move || GFunction::metropolis(t.metropolis)),
        MethodSpec::new("Six Temperature Annealing", move || {
            GFunction::six_temp_annealing(t.annealing6)
        }),
        MethodSpec::new("g = 1", GFunction::unit),
        MethodSpec::new("Two level g", GFunction::two_level),
    ];
    roster.extend(diff_classes(t));
    roster
}

fn diff_classes(t: TunedY) -> Vec<MethodSpec> {
    vec![
        MethodSpec::new("Linear Diff", move || {
            GFunction::poly_difference(1, t.poly_diff[0])
        }),
        MethodSpec::new("Quadratic Diff", move || {
            GFunction::poly_difference(2, t.poly_diff[1])
        }),
        MethodSpec::new("Cubic Diff", move || {
            GFunction::poly_difference(3, t.poly_diff[2])
        }),
        MethodSpec::new("Exponential Diff", move || {
            GFunction::exp_difference(t.exp_diff)
        }),
        MethodSpec::new("6 Linear Diff", move || {
            GFunction::poly_difference_six(1, t.poly_diff6[0])
        }),
        MethodSpec::new("6 Quadratic Diff", move || {
            GFunction::poly_difference_six(2, t.poly_diff6[1])
        }),
        MethodSpec::new("6 Cubic Diff", move || {
            GFunction::poly_difference_six(3, t.poly_diff6[2])
        }),
        MethodSpec::new("6 Exponential Diff", move || {
            GFunction::exp_difference_six(t.exp_diff6)
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_roster_has_21_methods() {
        // 20 g classes + [COHO83a].
        let r = full_roster(TunedY::default());
        assert_eq!(r.len(), 21);
        let names: Vec<_> = r.iter().map(|m| m.name()).collect();
        assert_eq!(names[0], "[COHO83a]");
        assert!(names.contains(&"g = 1"));
        assert!(names.contains(&"6 Exponential Diff"));
        // No duplicates.
        let mut uniq = names.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
    }

    #[test]
    fn reduced_roster_has_13_methods() {
        let r = reduced_roster(TunedY::default());
        assert_eq!(r.len(), 13);
        let names: Vec<_> = r.iter().map(|m| m.name()).collect();
        assert!(!names.contains(&"Linear"), "classes 5–12 dropped");
        assert!(!names.contains(&"6 Exponential"));
        assert!(names.contains(&"Cubic Diff"));
    }

    #[test]
    fn g_names_match_spec_names() {
        let ctx = MethodCtx { n_nets: 150 };
        for spec in full_roster(TunedY::default()) {
            let g = spec.g(&ctx);
            assert_eq!(g.name(), spec.name(), "constructor name mismatch");
        }
    }

    #[test]
    fn coho_uses_instance_net_count() {
        let spec = MethodSpec::with_ctx("[COHO83a]", |ctx| GFunction::coho83a(ctx.n_nets));
        let g = spec.g(&MethodCtx { n_nets: 150 });
        // p = min(h/(m+5), .9) → at h = 31, p = 31/155 = 0.2.
        assert!((g.probability(0, 31.0, 32.0) - 0.2).abs() < 1e-12);
    }
}
