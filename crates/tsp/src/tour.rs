//! Tours with incrementally maintained length and O(1) move deltas.

use crate::instance::TspInstance;

/// A closed tour: a cyclic visiting order with its length maintained
/// incrementally under 2-opt reversals.
#[derive(Debug, Clone, PartialEq)]
pub struct Tour {
    order: Vec<u32>,
    length: f64,
}

impl Tour {
    /// A tour visiting `order` (a permutation of `0..n`).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the instance's cities.
    pub fn new(instance: &TspInstance, order: Vec<u32>) -> Self {
        let n = instance.n_cities();
        assert_eq!(order.len(), n, "tour must visit every city exactly once");
        let mut seen = vec![false; n];
        for &c in &order {
            assert!(
                (c as usize) < n && !seen[c as usize],
                "tour must be a permutation of 0..{n}"
            );
            seen[c as usize] = true;
        }
        let length = instance.tour_length(&order);
        Tour { order, length }
    }

    /// The identity tour `0, 1, …, n-1`.
    pub fn identity(instance: &TspInstance) -> Self {
        Self::new(instance, (0..instance.n_cities() as u32).collect())
    }

    /// A uniformly random tour.
    pub fn random(instance: &TspInstance, rng: &mut dyn rand::Rng) -> Self {
        use rand::RngExt;
        let n = instance.n_cities();
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        Self::new(instance, order)
    }

    /// The visiting order.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The current tour length (incrementally maintained).
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Length change of reversing positions `i..=j` (a 2-opt move), in O(1).
    ///
    /// Reversing the whole tour (`i == 0 && j == n-1`) has delta 0.
    ///
    /// # Panics
    ///
    /// Panics if `i > j` or `j` is out of range.
    pub fn two_opt_delta(&self, instance: &TspInstance, i: usize, j: usize) -> f64 {
        assert!(i <= j && j < self.order.len(), "invalid segment {i}..={j}");
        let n = self.order.len();
        if i == 0 && j == n - 1 {
            return 0.0;
        }
        let prev = self.order[(i + n - 1) % n] as usize;
        let first = self.order[i] as usize;
        let last = self.order[j] as usize;
        let next = self.order[(j + 1) % n] as usize;
        instance.distance(prev, last) + instance.distance(first, next)
            - instance.distance(prev, first)
            - instance.distance(last, next)
    }

    /// Reverses positions `i..=j`, updating the length by the 2-opt delta.
    ///
    /// # Panics
    ///
    /// Panics if `i > j` or `j` is out of range.
    pub fn apply_two_opt(&mut self, instance: &TspInstance, i: usize, j: usize) {
        self.length += self.two_opt_delta(instance, i, j);
        self.order[i..=j].reverse();
    }

    /// Recomputes the length from scratch and checks it against the
    /// maintained value (within floating-point tolerance).
    pub fn verify(&self, instance: &TspInstance) -> bool {
        (instance.tour_length(&self.order) - self.length).abs() <= 1e-6 * (1.0 + self.length.abs())
    }

    /// Resynchronizes the maintained length with a fresh recomputation
    /// (useful after very long runs to cancel floating-point drift).
    pub fn resync_length(&mut self, instance: &TspInstance) {
        self.length = instance.tour_length(&self.order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn square() -> TspInstance {
        TspInstance::from_points(vec![(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    }

    #[test]
    fn two_opt_uncrosses_square() {
        let inst = square();
        let mut t = Tour::new(&inst, vec![0, 2, 1, 3]); // crossing tour
        let before = t.length();
        // Reverse positions 1..=2 → 0,1,2,3.
        let delta = t.two_opt_delta(&inst, 1, 2);
        assert!(delta < 0.0);
        t.apply_two_opt(&inst, 1, 2);
        assert_eq!(t.order(), &[0, 1, 2, 3]);
        assert!((t.length() - (before + delta)).abs() < 1e-12);
        assert!(t.verify(&inst));
        assert!((t.length() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn two_opt_is_involutive() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = TspInstance::random_euclidean(12, &mut rng);
        let mut t = Tour::random(&inst, &mut rng);
        let before = t.clone();
        t.apply_two_opt(&inst, 3, 8);
        t.apply_two_opt(&inst, 3, 8);
        assert_eq!(t.order(), before.order());
        assert!((t.length() - before.length()).abs() < 1e-9);
    }

    #[test]
    fn full_reversal_is_free() {
        let mut rng = StdRng::seed_from_u64(2);
        let inst = TspInstance::random_euclidean(8, &mut rng);
        let t = Tour::random(&inst, &mut rng);
        assert_eq!(t.two_opt_delta(&inst, 0, 7), 0.0);
    }

    #[test]
    fn deltas_match_recomputation() {
        let mut rng = StdRng::seed_from_u64(3);
        let inst = TspInstance::random_euclidean(15, &mut rng);
        let mut t = Tour::random(&inst, &mut rng);
        for _ in 0..300 {
            let i = rng.random_range(0..15usize);
            let j = rng.random_range(0..15usize);
            let (i, j) = (i.min(j), i.max(j));
            t.apply_two_opt(&inst, i, j);
            assert!(t.verify(&inst), "after reversing {i}..={j}");
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rejects_duplicate_cities() {
        let inst = square();
        let _ = Tour::new(&inst, vec![0, 1, 1, 3]);
    }

    #[test]
    fn resync_cancels_drift() {
        let inst = square();
        let mut t = Tour::identity(&inst);
        t.resync_length(&inst);
        assert_eq!(t.length(), 4.0);
    }
}
