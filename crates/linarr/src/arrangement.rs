//! Linear arrangements: a permutation of circuit elements over positions
//! `0..n`, with its inverse maintained for O(1) lookups both ways.

use rand::Rng;

/// A linear ordering of `n` elements.
///
/// Maintains both directions of the bijection: `element_at(position)` and
/// `position_of(element)`.
///
/// # Examples
///
/// ```
/// use anneal_linarr::Arrangement;
///
/// let mut arr = Arrangement::identity(4);
/// arr.swap_positions(0, 3);
/// assert_eq!(arr.element_at(0), 3);
/// assert_eq!(arr.position_of(0), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrangement {
    /// `perm[position] = element`
    perm: Vec<u32>,
    /// `pos[element] = position`
    pos: Vec<u32>,
}

impl Arrangement {
    /// The identity arrangement: element `i` at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn identity(n: usize) -> Self {
        assert!(n > 0, "arrangement needs at least one element");
        Arrangement {
            perm: (0..n as u32).collect(),
            pos: (0..n as u32).collect(),
        }
    }

    /// An arrangement from an explicit left-to-right element order.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_order(order: Vec<u32>) -> Self {
        let n = order.len();
        assert!(n > 0, "arrangement needs at least one element");
        let mut pos = vec![u32::MAX; n];
        for (p, &e) in order.iter().enumerate() {
            assert!(
                (e as usize) < n && pos[e as usize] == u32::MAX,
                "order must be a permutation of 0..{n}"
            );
            pos[e as usize] = p as u32;
        }
        Arrangement { perm: order, pos }
    }

    /// A uniformly random arrangement (Fisher–Yates).
    pub fn random(n: usize, rng: &mut dyn Rng) -> Self {
        use rand::RngExt;
        let mut arr = Self::identity(n);
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            arr.swap_positions(i, j);
        }
        arr
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the arrangement is over zero elements (never true by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The element at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position >= self.len()`.
    pub fn element_at(&self, position: usize) -> u32 {
        self.perm[position]
    }

    /// The position of `element`.
    ///
    /// # Panics
    ///
    /// Panics if `element >= self.len()`.
    pub fn position_of(&self, element: u32) -> u32 {
        self.pos[element as usize]
    }

    /// The left-to-right element order.
    pub fn order(&self) -> &[u32] {
        &self.perm
    }

    /// Swaps the elements at positions `p` and `q` (pairwise interchange).
    ///
    /// # Panics
    ///
    /// Panics if either position is out of range.
    pub fn swap_positions(&mut self, p: usize, q: usize) {
        let a = self.perm[p];
        let b = self.perm[q];
        self.perm.swap(p, q);
        self.pos[a as usize] = q as u32;
        self.pos[b as usize] = p as u32;
    }

    /// Checks the internal bijection invariant (test support).
    pub fn is_consistent(&self) -> bool {
        self.perm.len() == self.pos.len()
            && self
                .perm
                .iter()
                .enumerate()
                .all(|(p, &e)| self.pos.get(e as usize) == Some(&(p as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn identity_maps_both_ways() {
        let a = Arrangement::identity(5);
        for i in 0..5 {
            assert_eq!(a.element_at(i), i as u32);
            assert_eq!(a.position_of(i as u32), i as u32);
        }
        assert!(a.is_consistent());
    }

    #[test]
    fn from_order_builds_inverse() {
        let a = Arrangement::from_order(vec![2, 0, 1]);
        assert_eq!(a.element_at(0), 2);
        assert_eq!(a.position_of(2), 0);
        assert_eq!(a.position_of(1), 2);
        assert!(a.is_consistent());
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn from_order_rejects_duplicates() {
        let _ = Arrangement::from_order(vec![0, 0, 1]);
    }

    #[test]
    fn swap_is_involutive() {
        let mut a = Arrangement::identity(6);
        a.swap_positions(1, 4);
        a.swap_positions(1, 4);
        assert_eq!(a, Arrangement::identity(6));
    }

    #[test]
    fn random_is_permutation_and_seed_deterministic() {
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        let a = Arrangement::random(15, &mut r1);
        let b = Arrangement::random(15, &mut r2);
        assert_eq!(a, b);
        assert!(a.is_consistent());
        let mut sorted = a.order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<u32>>());
    }

    #[test]
    fn random_varies_with_seed() {
        let a = Arrangement::random(15, &mut StdRng::seed_from_u64(1));
        let b = Arrangement::random(15, &mut StdRng::seed_from_u64(2));
        assert_ne!(a, b);
    }
}
