//! The method roster: the paper's 20 g-function classes (plus \[COHO83a\])
//! in the paper's table order. The 18 classes that take a temperature, with
//! their tuned temperatures, are one table, [`G_CLASSES`]; the rosters, the
//! tuning sweep and the ablations all read it.

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

/// One of the 18 g classes of §3 that take a temperature.
#[derive(Debug, Clone, Copy)]
pub struct GClass {
    /// The table row name, which is also the g function's own name.
    pub name: &'static str,
    /// The class's g function at starting temperature `Y₁`.
    pub make: fn(f64) -> GFunction,
    /// The tuned `Y₁` (see [`TunedY`]).
    pub tuned: f64,
}

/// The g classes that take a temperature, in the paper's row order:
/// classes 1–2 and 5–20. Classes 3 (`g = 1`) and 4 (two-level g) have
/// none.
///
/// The tuned `Y₁` come from the paper's 30-instance GOLA training set
/// (15 elements, 150 two-pin nets) under the Figure-1 strategy, as in
/// §4.2.1: the winners of two full-scale `repro tuning` sweeps (5
/// paper-seconds per instance, ×⅛…×8 multiplicative grid, recentered
/// between sweeps). Those instances have random-arrangement densities
/// around 80–90 and uphill deltas concentrated on {0, 1, 2}, which sets the
/// scale of each class's usable temperature.
pub const G_CLASSES: [GClass; 18] = {
    use GFunction as G;
    const fn class(name: &'static str, make: fn(f64) -> GFunction, tuned: f64) -> GClass {
        GClass { name, make, tuned }
    }
    [
        class("Metropolis", G::metropolis, 0.75),
        class("Six Temperature Annealing", G::six_temp_annealing, 1.0),
        class("Linear", |y| G::poly_current(1, y), 3.125e-4),
        class("Quadratic", |y| G::poly_current(2, y), 3.75e-6),
        class("Cubic", |y| G::poly_current(3, y), 5e-8),
        class("Exponential", G::exp_current, 2400.0),
        class("6 Linear", |y| G::poly_current_six(1, y), 3.125e-4),
        class("6 Quadratic", |y| G::poly_current_six(2, y), 7.5e-6),
        class("6 Cubic", |y| G::poly_current_six(3, y), 5e-8),
        class("6 Exponential", G::exp_current_six, 2400.0),
        class("Linear Diff", |y| G::poly_difference(1, y), 0.05),
        class("Quadratic Diff", |y| G::poly_difference(2, y), 0.1),
        class("Cubic Diff", |y| G::poly_difference(3, y), 0.2),
        class("Exponential Diff", G::exp_difference, 0.175),
        class("6 Linear Diff", |y| G::poly_difference_six(1, y), 0.125),
        class("6 Quadratic Diff", |y| G::poly_difference_six(2, y), 0.25),
        class("6 Cubic Diff", |y| G::poly_difference_six(3, y), 0.25),
        class("6 Exponential Diff", G::exp_difference_six, 0.225),
    ]
};

/// A `Y₁` per class of [`G_CLASSES`], in its order. The default is the
/// table's tuned values; `repro tuning` re-derives them (see
/// EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedY(pub [f64; G_CLASSES.len()]);

impl Default for TunedY {
    fn default() -> Self {
        TunedY(G_CLASSES.map(|class| class.tuned))
    }
}

/// `name=Y₁` pairs in table order.
impl std::fmt::Display for TunedY {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (class, y1)) in G_CLASSES.iter().zip(self.0).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{}={y1:?}", class.name)?;
        }
        Ok(())
    }
}

/// The full Table-4.1 roster: \[COHO83a\] plus all 20 g classes, in the
/// paper's row order. (The Goto constructive is not a g class and is handled
/// by the table runners directly.)
pub fn full_roster(t: TunedY) -> Vec<MethodSpec> {
    roster(t, 0)
}

/// The reduced roster used by Tables 4.2(a)–(d): the paper drops classes
/// 5–12 "because of their poor performance on the GOLA instances" (§4.3.1),
/// leaving 13 methods.
pub fn reduced_roster(t: TunedY) -> Vec<MethodSpec> {
    roster(t, 8)
}

/// \[COHO83a\], classes 1–2, `g = 1`, two-level g, then the classes of
/// [`G_CLASSES`] after its first `2 + skip`.
fn roster(t: TunedY, skip: usize) -> Vec<MethodSpec> {
    let mut tempered = G_CLASSES.iter().zip(t.0).map(|(class, y1)| {
        let make = class.make;
        MethodSpec::new(class.name, move || make(y1))
    });
    let mut roster = vec![MethodSpec::with_ctx("[COHO83a]", |ctx| {
        GFunction::coho83a(ctx.n_nets)
    })];
    roster.extend(tempered.by_ref().take(2));
    roster.push(MethodSpec::new("g = 1", GFunction::unit));
    roster.push(MethodSpec::new("Two level g", GFunction::two_level));
    roster.extend(tempered.skip(skip));
    roster
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
