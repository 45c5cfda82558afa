//! Packed bit vectors representing query data interests over substreams.
//!
//! The paper (§3.2) partitions every stream into substreams and represents a
//! query's data interest as a bit vector so that overlap between two queries
//! can be estimated "by efficient bit operations" instead of semantic
//! reasoning. [`InterestSet`] is that bit vector: a fixed-universe bitset
//! packed into `u64` words with word-parallel intersection/union/weighted
//! overlap operations.

use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-universe bitset over substream indices.
///
/// Two `InterestSet`s are only meaningfully comparable when they share the
/// same `universe` (number of substreams); all binary operations panic on a
/// universe mismatch, since mixing universes is always a logic error.
///
/// # Examples
///
/// ```
/// use cosmos_util::InterestSet;
///
/// let a = InterestSet::from_indices(100, [1usize, 5, 63, 64]);
/// let b = InterestSet::from_indices(100, [5usize, 64, 99]);
/// assert_eq!(a.intersection_count(&b), 2);
/// assert!(a.union(&b).contains(99));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct InterestSet {
    universe: usize,
    words: Vec<u64>,
}

impl InterestSet {
    /// Creates an empty interest set over `universe` substreams.
    pub fn new(universe: usize) -> Self {
        let nwords = universe.div_ceil(WORD_BITS);
        Self { universe, words: vec![0; nwords] }
    }

    /// Creates a set with every substream selected.
    pub fn full(universe: usize) -> Self {
        let mut s = Self::new(universe);
        for i in 0..universe {
            s.insert(i);
        }
        s
    }

    /// Builds a set from an iterator of substream indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= universe`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(universe: usize, indices: I) -> Self {
        let mut s = Self::new(universe);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// The number of substreams this set ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Inserts substream `i` into the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= universe`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.universe, "substream index {i} out of universe {}", self.universe);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Removes substream `i` from the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= universe`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.universe, "substream index {i} out of universe {}", self.universe);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Removes every substream.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Returns `true` if substream `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.universe {
            return false;
        }
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Number of substreams in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no substream is selected.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn assert_same_universe(&self, other: &Self) {
        assert_eq!(
            self.universe, other.universe,
            "interest sets over different substream universes"
        );
    }

    /// Number of substreams present in both sets (population of the AND).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection_count(&self, other: &Self) -> usize {
        self.assert_same_universe(other);
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// Returns `true` if the two sets share at least one substream.
    ///
    /// Cheaper than [`InterestSet::intersection_count`] because it can exit
    /// at the first overlapping word.
    pub fn overlaps(&self, other: &Self) -> bool {
        self.assert_same_universe(other);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// The union of the two sets.
    pub fn union(&self, other: &Self) -> Self {
        self.assert_same_universe(other);
        Self {
            universe: self.universe,
            words: self.words.iter().zip(&other.words).map(|(a, b)| a | b).collect(),
        }
    }

    /// In-place intersection: `self &= other`.
    pub fn intersect_with(&mut self, other: &Self) {
        self.assert_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union: `self |= other`.
    pub fn union_with(&mut self, other: &Self) {
        self.assert_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Sum of `rates[i]` over the substreams present in the set.
    ///
    /// This is the *data rate of a query's interest* — the quantity the paper
    /// uses for query-graph edge weights.
    ///
    /// # Panics
    ///
    /// Panics if `rates.len() != universe`.
    pub fn weighted_len(&self, rates: &[f64]) -> f64 {
        assert_eq!(rates.len(), self.universe, "rate table does not match universe");
        self.iter().map(|i| rates[i]).sum()
    }

    /// Sum of `rates[i]` over the substreams present in **both** sets.
    ///
    /// This is the weight of a query-graph *overlap edge* (§3.1.2): "the rate
    /// of the data that are of interest to both of its end vertices".
    ///
    /// # Panics
    ///
    /// Panics if the universes differ or `rates.len() != universe`.
    pub fn weighted_overlap(&self, other: &Self, rates: &[f64]) -> f64 {
        self.assert_same_universe(other);
        assert_eq!(rates.len(), self.universe, "rate table does not match universe");
        let mut total = 0.0;
        for (wi, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut w = a & b;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                total += rates[wi * WORD_BITS + bit];
                w &= w - 1;
            }
        }
        total
    }

    /// Iterates over the substream indices in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }
}

impl fmt::Debug for InterestSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InterestSet")
            .field("universe", &self.universe)
            .field("len", &self.len())
            .finish()
    }
}

impl FromIterator<usize> for InterestSet {
    /// Collects indices into a set whose universe is `max index + 1`.
    ///
    /// Mostly useful in tests; prefer [`InterestSet::from_indices`] so the
    /// universe matches the experiment's substream count.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let universe = indices.iter().max().map_or(0, |m| m + 1);
        Self::from_indices(universe, indices)
    }
}

/// Iterator over set substream indices, produced by [`InterestSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a InterestSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_set_has_no_members() {
        let s = InterestSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = InterestSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn contains_out_of_universe_is_false() {
        let s = InterestSet::from_indices(10, [3usize]);
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_universe_panics() {
        let mut s = InterestSet::new(10);
        s.insert(10);
    }

    #[test]
    #[should_panic(expected = "different substream universes")]
    fn mixed_universe_panics() {
        let a = InterestSet::new(10);
        let b = InterestSet::new(20);
        let _ = a.intersection_count(&b);
    }

    #[test]
    fn full_set_covers_everything() {
        let f = InterestSet::full(77);
        assert_eq!(f.len(), 77);
        let s = InterestSet::from_indices(77, [0usize, 40, 76]);
        assert_eq!(f.intersection_count(&s), s.len());
        assert!(s.intersection_count(&f) < f.len());
    }

    #[test]
    fn weighted_overlap_matches_manual_sum() {
        let rates: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let a = InterestSet::from_indices(100, [1usize, 50, 99]);
        let b = InterestSet::from_indices(100, [50usize, 99, 3]);
        assert_eq!(a.weighted_overlap(&b, &rates), 50.0 + 99.0);
        assert_eq!(a.weighted_len(&rates), 1.0 + 50.0 + 99.0);
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let s = InterestSet::from_indices(200, [199usize, 0, 64, 63, 128]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 63, 64, 128, 199]);
    }

    #[test]
    fn from_iterator_universe_is_max_plus_one() {
        let s: InterestSet = [5usize, 9].into_iter().collect();
        assert_eq!(s.universe(), 10);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = InterestSet::new(8);
        assert!(!format!("{s:?}").is_empty());
    }

    fn arb_indices(universe: usize) -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(0..universe, 0..universe)
    }

    proptest! {
        #[test]
        fn prop_intersection_commutes(a in arb_indices(256), b in arb_indices(256)) {
            let sa = InterestSet::from_indices(256, a);
            let sb = InterestSet::from_indices(256, b);
            prop_assert_eq!(sa.intersection_count(&sb), sb.intersection_count(&sa));
            prop_assert_eq!(sa.union(&sb), sb.union(&sa));
        }

        #[test]
        fn prop_union_is_superset_of_both(a in arb_indices(256), b in arb_indices(256)) {
            let sa = InterestSet::from_indices(256, a);
            let sb = InterestSet::from_indices(256, b);
            let u = sa.union(&sb);
            prop_assert_eq!(u.intersection_count(&sa), sa.len());
            prop_assert_eq!(u.intersection_count(&sb), sb.len());
            prop_assert_eq!(u.len() + sa.intersection_count(&sb), sa.len() + sb.len());
        }

        #[test]
        fn prop_superset_iff_intersection_is_smaller(a in arb_indices(128), b in arb_indices(128)) {
            let sa = InterestSet::from_indices(128, a);
            let sb = InterestSet::from_indices(128, b);
            let covers = sa.union(&sb) == sa;
            prop_assert_eq!(covers, sa.intersection_count(&sb) == sb.len());
        }

        #[test]
        fn prop_weighted_overlap_equals_scalar_sum(
            a in arb_indices(192),
            b in arb_indices(192),
            seed in 0u64..1000,
        ) {
            let rates: Vec<f64> = (0..192).map(|i| ((i as u64 * 31 + seed) % 17) as f64).collect();
            let sa = InterestSet::from_indices(192, a);
            let sb = InterestSet::from_indices(192, b);
            let fast = sa.weighted_overlap(&sb, &rates);
            let slow: f64 = (0..192)
                .filter(|&i| sa.contains(i) && sb.contains(i))
                .map(|i| rates[i])
                .sum();
            prop_assert!((fast - slow).abs() < 1e-9);
        }

        #[test]
        fn prop_overlaps_agrees_with_count(a in arb_indices(96), b in arb_indices(96)) {
            let sa = InterestSet::from_indices(96, a);
            let sb = InterestSet::from_indices(96, b);
            prop_assert_eq!(sa.overlaps(&sb), sa.intersection_count(&sb) > 0);
        }
    }
}
