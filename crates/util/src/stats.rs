//! Summary statistics used throughout the experiment harness.
//!
//! The paper reports the *standard deviation of processor loads* (Figures
//! 7b, 8b, 10b) next to communication cost. [`Summary`] computes the moments
//! with Welford's online algorithm so long simulation runs never accumulate
//! FP cancellation error.

/// Online mean / variance accumulator (Welford).
///
/// # Examples
///
/// ```
/// use cosmos_util::stats::Summary;
///
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_stddev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`).
    fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation — what the paper's "standard deviation
    /// of system load" figures plot.
    pub fn population_stddev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Population standard deviation of a slice, convenience wrapper.
pub fn stddev(xs: &[f64]) -> f64 {
    xs.iter().copied().collect::<Summary>().population_stddev()
}

/// Arithmetic mean of a slice (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().copied().collect::<Summary>().mean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_neutral() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_stddev(), 0.0);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let mut s = Summary::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn matches_two_pass_formula() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0, -5.0];
        let s: Summary = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.population_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_concatenation() {
        let a: Summary = (0..100).map(|i| i as f64).collect();
        let b: Summary = (100..250).map(|i| (i as f64).sqrt()).collect();
        let whole: Summary =
            (0..100).map(|i| i as f64).chain((100..250).map(|i| (i as f64).sqrt())).collect();
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean() - whole.mean()).abs() < 1e-9);
        assert!((merged.population_variance() - whole.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn helpers_agree_with_summary() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((stddev(&xs) - 2.0).abs() < 1e-12);
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_variance_nonnegative(xs in proptest::collection::vec(-1e6f64..1e6, 0..200)) {
            let s: Summary = xs.iter().copied().collect();
            prop_assert!(s.population_variance() >= -1e-9);
        }

        #[test]
        fn prop_merge_commutes(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..50),
            ys in proptest::collection::vec(-1e3f64..1e3, 1..50),
        ) {
            let a: Summary = xs.iter().copied().collect();
            let b: Summary = ys.iter().copied().collect();
            let mut ab = a; ab.merge(&b);
            let mut ba = b; ba.merge(&a);
            prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
            prop_assert!((ab.population_variance() - ba.population_variance()).abs() < 1e-6);
            prop_assert_eq!(ab.count(), ba.count());
        }
    }
}
